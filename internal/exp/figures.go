package exp

import (
	"fmt"

	"aic/internal/ckpt"
	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/model"
	"aic/internal/stats"
	"aic/internal/workload"
)

// Fig2Point is one sample of the delta-dynamics study.
type Fig2Point struct {
	Time        float64 // checkpoint moment (seconds since the full checkpoint)
	Latency     float64 // absolute delta latency (s)
	Size        float64 // absolute delta size (bytes)
	NormLatency float64 // latency / mean latency over the window
	NormSize    float64 // size / mean size over the window
}

// Fig2Series is one benchmark's curve in Fig. 2.
type Fig2Series struct {
	Benchmark string
	Points    []Fig2Point
}

// Swing returns max/min of the normalized size — the magnitude of the
// benchmark's delta-size swings.
func (s Fig2Series) Swing() float64 {
	if len(s.Points) == 0 {
		return 1
	}
	lo, hi := s.Points[0].NormSize, s.Points[0].NormSize
	for _, p := range s.Points {
		if p.NormSize < lo {
			lo = p.NormSize
		}
		if p.NormSize > hi {
			hi = p.NormSize
		}
	}
	if lo <= 0 {
		return hi
	}
	return hi / lo
}

// Fig2 reproduces the motivating study: for each benchmark, take the first
// full checkpoint at t=0, then evaluate the page-aligned delta (latency and
// size) the second checkpoint would have if taken at each second of a
// 60-second window, normalized by the window means.
func Fig2(seed uint64, benchmarks ...string) ([]Fig2Series, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"sjeng", "lbm", "bzip2"}
	}
	sys := BenchSystem(1)
	var out []Fig2Series
	for _, name := range benchmarks {
		prog, err := workload.ByName(name, seed)
		if err != nil {
			return nil, err
		}
		as := memsim.New(0)
		builder := ckpt.NewBuilder(as.PageSize(), 0, 0)
		prog.Init(as)
		builder.FullCheckpoint(as)

		series := Fig2Series{Benchmark: name}
		const window = 60
		for t := 1; t <= window; t++ {
			prog.Step(as, float64(t-1), 1)
			// Hypothetical checkpoint now: delta every dirty page against
			// its version in the full checkpoint, without disturbing the
			// run.
			dirty := as.DirtyPages()
			updates := make([]delta.PageUpdate, 0, len(dirty))
			var oldBytes int
			for _, idx := range dirty {
				old := builder.PrevPage(idx)
				if old != nil {
					oldBytes += len(old)
				}
				updates = append(updates, delta.PageUpdate{Index: idx, Old: old, New: as.Page(idx)})
			}
			_, st := delta.EncodePageAlignedParallelStats(updates, 0, 1)
			dl := sys.CompressTime(int64(st.InputBytes+oldBytes), int64(st.OutputBytes))
			series.Points = append(series.Points, Fig2Point{
				Time:    float64(t),
				Latency: dl,
				Size:    float64(st.OutputBytes),
			})
		}
		var lats, sizes []float64
		for _, p := range series.Points {
			lats = append(lats, p.Latency)
			sizes = append(sizes, p.Size)
		}
		meanLat, meanSize := stats.Mean(lats), stats.Mean(sizes)
		for i := range series.Points {
			if meanLat > 0 {
				series.Points[i].NormLatency = series.Points[i].Latency / meanLat
			}
			if meanSize > 0 {
				series.Points[i].NormSize = series.Points[i].Size / meanSize
			}
		}
		out = append(out, series)
	}
	return out, nil
}

// ScalingRow is one system size of Figs. 5/6: NET² of the Moody baseline
// and the three concurrent configurations.
type ScalingRow struct {
	Size   float64
	Moody  float64
	L1L3   float64
	L2L3   float64
	L1L2L3 float64
}

// DefaultSizes are the system-size multipliers of Figs. 5/6.
func DefaultSizes() []float64 { return []float64{1, 2, 4, 10, 20} }

func scalingStudy(sizes []float64, scale func(model.Params, float64) model.Params) ([]ScalingRow, error) {
	base := model.Coastal()
	var rows []ScalingRow
	for _, s := range sizes {
		p := scale(base, s)
		row := ScalingRow{Size: s}
		m, err := model.OptimizeMoody(p, 10, 500000)
		if err != nil {
			return nil, fmt.Errorf("Moody at %gx: %w", s, err)
		}
		row.Moody = m.NET2
		for _, kind := range []model.ConcurrentKind{model.KindL1L3, model.KindL2L3, model.KindL1L2L3} {
			r, err := model.OptimizeConcurrent(kind, p, 10, 500000)
			if err != nil {
				return nil, fmt.Errorf("%v at %gx: %w", kind, s, err)
			}
			switch kind {
			case model.KindL1L3:
				row.L1L3 = r.NET2
			case model.KindL2L3:
				row.L2L3 = r.NET2
			case model.KindL1L2L3:
				row.L1L2L3 = r.NET2
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5 computes NET² of the pF3D MPI profile under system-size scaling
// (failure rates and c3 both grow with size).
func Fig5(sizes []float64) ([]ScalingRow, error) {
	if len(sizes) == 0 {
		sizes = DefaultSizes()
	}
	return scalingStudy(sizes, func(p model.Params, s float64) model.Params { return p.ScaleMPI(s) })
}

// Fig6 computes NET² for the RMS profile (failure rates flat, c3 grows).
func Fig6(sizes []float64) ([]ScalingRow, error) {
	if len(sizes) == 0 {
		sizes = DefaultSizes()
	}
	return scalingStudy(sizes, func(p model.Params, s float64) model.Params { return p.ScaleRMS(s) })
}

// SharingRow is one system size of Fig. 7: Moody's NET² and L2L3's NET²
// for each sharing factor.
type SharingRow struct {
	Size  float64
	Moody float64
	BySF  map[int]float64
}

// DefaultSharingFactors are the SF values studied in Fig. 7.
func DefaultSharingFactors() []int { return []int{1, 3, 7, 15} }

// Fig7 computes L2L3 NET² when SF computation processes share a single
// checkpointing core, against the Moody reference (which has no
// checkpointing core and is unaffected by SF), under RMS scaling.
func Fig7(sizes []float64, sfs []int) ([]SharingRow, error) {
	if len(sizes) == 0 {
		sizes = DefaultSizes()
	}
	if len(sfs) == 0 {
		sfs = DefaultSharingFactors()
	}
	base := model.Coastal()
	var rows []SharingRow
	for _, s := range sizes {
		p := base.ScaleRMS(s)
		row := SharingRow{Size: s, BySF: make(map[int]float64, len(sfs))}
		m, err := model.OptimizeMoody(p, 10, 500000)
		if err != nil {
			return nil, err
		}
		row.Moody = m.NET2
		for _, sf := range sfs {
			shared := p.ShareCheckpointCore(float64(sf))
			r, err := model.OptimizeConcurrent(model.KindL2L3, shared, 10, 500000)
			if err != nil {
				return nil, err
			}
			row.BySF[sf] = r.NET2
		}
		rows = append(rows, row)
	}
	return rows, nil
}
