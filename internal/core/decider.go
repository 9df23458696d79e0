package core

import (
	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/model"
	"aic/internal/predictor"
	"aic/internal/storage"
)

// Decider is AIC's Predictor and Checkpoint Decider (Fig. 9), the one copy
// both the Runtime and the coordinated MPI job (internal/mpi) run: an
// online c1/dl/ds predictor triplet per process it decides for, the clamp
// that bounds their predictions, and the w*_L search with its take rule.
// A Runtime decides for one process; a coordinated job for all its ranks.
type Decider struct {
	sys      storage.System
	pageSize int
	procs    [][3]*predictor.Online // per process: c1, dl, ds
}

// NewDecider builds a decider for procs processes with the given page size.
func NewDecider(sys storage.System, pageSize, procs int) *Decider {
	d := &Decider{sys: sys, pageSize: pageSize, procs: make([][3]*predictor.Online, procs)}
	for i := range d.procs {
		for k := range d.procs[i] {
			d.procs[i][k] = predictor.NewOnline(4, 3, 0.5)
		}
	}
	return d
}

// Ready reports whether every process's predictors have fitted their
// bootstrap samples.
func (d *Decider) Ready() bool {
	for _, p := range d.procs {
		for _, o := range p {
			if !o.Ready() {
				return false
			}
		}
	}
	return true
}

// Observe feeds process proc's measured costs at metrics m back into its
// predictors.
func (d *Decider) Observe(proc int, m predictor.Metrics, c1, dl, ds float64) {
	for k, y := range [3]float64{c1, dl, ds} {
		d.procs[proc][k].Observe(m, y)
	}
}

// Predict returns process proc's clamped c1, dl and ds at metrics m.
func (d *Decider) Predict(proc int, m predictor.Metrics) (c1, dl, ds float64) {
	p := d.procs[proc]
	return d.clamp(m, p[0].Predict(m), p[1].Predict(m), p[2].Predict(m))
}

// clamp bounds the regression outputs by physical limits derived from the
// dirty set: a delta-compressed checkpoint can never exceed the raw dirty
// bytes (plus the CPU blob and a header allowance), the compression
// latency is bounded by compressing that worst case, and the local write
// by writing it. Early stepwise fits extrapolate wildly outside their four
// bootstrap samples; these caps keep the decider's inputs sane without
// biasing converged predictions.
func (d *Decider) clamp(m predictor.Metrics, c1, dl, ds float64) (float64, float64, float64) {
	rawCap := m.DP*float64(d.pageSize) + cpuStateBytes + 64
	if ds > rawCap {
		ds = rawCap
	}
	if maxDL := d.sys.CompressTime(int64(rawCap), int64(rawCap)); dl > maxDL {
		dl = maxDL
	}
	if maxC1 := d.sys.LocalDisk.TransferTime(int64(rawCap)); c1 > maxC1 {
		c1 = maxC1
	}
	return c1, dl, ds
}

// Decide searches w*_L over [WMin, wHi] and rules on checkpointing at the
// elapsed span effW: yes when w*_L is at or below it, or when NET² there is
// within 0.1% of the optimum's (predictions get less reliable the further
// they extrapolate, so a near tie goes to checkpointing now).
func (d *Decider) Decide(cur func(w float64) model.Params, prev model.Params, wHi, effW float64) (bool, model.WorkSpan) {
	ws := model.OptimalWorkSpanDynamic(cur, prev, WMin, wHi)
	return ws.W <= effW || ws.NET2At(effW) <= ws.NET2*1.001, ws
}

// LevelCosts is the one level-cost rule: c_k = from + dl + ds/B_k for the
// level-2 and level-3 sends, a zero bandwidth counting as zero time. (The
// paper's c3 = ds/B2 is an evident typo; see EXPERIMENTS.md.)
func LevelCosts(sys storage.System, from, dl, ds float64) (c2, c3 float64) {
	c2, c3 = from+dl, from+dl
	if b := sys.RAID5.BandwidthBps; b > 0 {
		c2 += ds / b
	}
	if b := sys.Remote.BandwidthBps; b > 0 {
		c3 += ds / b
	}
	return c2, c3
}

// PageMetrics gathers one process's predictor features: DP is its
// dirty-page count and T the work span t since its last checkpoint, and
// JD and DI are averaged over the listed pages that have a previous
// version, at most limit of them. It also returns how many pages it
// averaged.
func PageMetrics(as *memsim.AddressSpace, b *ckpt.Builder, t float64, pages []uint64, limit int) (predictor.Metrics, int) {
	m := predictor.Metrics{DP: float64(as.DirtyCount()), T: t}
	var jd, di float64
	n := 0
	for _, idx := range pages {
		if n >= limit {
			break
		}
		cur, old := as.Page(idx), b.PrevPage(idx)
		if cur == nil || old == nil {
			continue
		}
		jd += predictor.JaccardDistance(cur, old)
		di += predictor.DivergenceIndex(cur)
		n++
	}
	if n > 0 {
		m.JD, m.DI = jd/float64(n), di/float64(n)
	}
	return m, n
}
