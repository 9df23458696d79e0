// Benchmark harness: one benchmark per table and figure of the paper (each
// logs the regenerated rows and reports the headline numbers as metrics),
// plus micro-benchmarks of the performance-critical substrates.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package aic_test

import (
	"fmt"
	"testing"

	"aic"
	"aic/internal/ckpt"
	"aic/internal/delta"
	"aic/internal/exp"
	"aic/internal/memsim"
	"aic/internal/model"
	"aic/internal/numeric"
	"aic/internal/predictor"
	"aic/internal/recovery"
	"aic/internal/storage"
	"aic/internal/workload"
)

// --- Experiment regeneration benchmarks (Tables 1, 3; Figs. 2, 5-7, 11, 12) ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1Rows(4000, 7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderTable1(rows))
			b.ReportMetric(100*rows[1].CandidateFrac, "%cand-sys20")
			b.ReportMetric(100*rows[1].CandidateFracReserved, "%resch-sys20")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := exp.Fig2(42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderFig2(series))
			b.ReportMetric(series[0].Swing(), "sjeng-swing-x")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig5(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderScaling("Fig. 5 — NET² of pF3D (MPI scaling)", rows))
			last := rows[len(rows)-1]
			b.ReportMetric(last.L2L3, "NET2-L2L3-20x")
			b.ReportMetric(last.Moody, "NET2-Moody-20x")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig6(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderScaling("Fig. 6 — NET² of RMS", rows))
			last := rows[len(rows)-1]
			b.ReportMetric(last.Moody-last.L2L3, "Moody-gap-20x")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig7(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderFig7(rows))
			b.ReportMetric(rows[0].BySF[15], "NET2-SF15-1x")
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig11(42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderFig11(rows))
			for _, r := range rows {
				if r.Benchmark == "milc" {
					b.ReportMetric(100*(r.Moody-r.AIC)/r.Moody, "%milc-vs-moody")
				}
			}
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig12(42, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderFig12(rows))
			last := rows[len(rows)-1]
			b.ReportMetric(100*(last.SIC-last.AIC)/last.SIC, "%aic-gain-4x")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderTable3(rows))
			for _, r := range rows {
				if r.Benchmark == "sphinx3" {
					b.ReportMetric(r.RatioPA, "sphinx3-ratio-pa")
				}
			}
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5 design decisions) ---

func BenchmarkAblationCompressor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationCompressor(42, "sjeng", "sphinx3")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderAblations(rows, nil, nil))
		}
	}
}

func BenchmarkAblationPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationPredictor(42, "milc", "sjeng")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderAblations(nil, rows, nil))
		}
	}
}

func BenchmarkAblationSampler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationSampler(42, "sjeng")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderAblations(nil, nil, rows))
		}
	}
}

// --- Substrate micro-benchmarks ---

func benchPages(n int) ([]byte, []byte) {
	rng := numeric.NewRNG(1)
	src := make([]byte, n)
	rng.Bytes(src)
	dst := append([]byte(nil), src...)
	for i := 0; i < n/64; i++ {
		dst[rng.Intn(n)] ^= 0xFF
	}
	return src, dst
}

func BenchmarkDeltaEncode4KiBSparse(b *testing.B) {
	src, dst := benchPages(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta.Encode(src, dst, delta.DefaultBlockSize)
	}
}

func BenchmarkDeltaEncode1MiB(b *testing.B) {
	src, dst := benchPages(1 << 20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta.Encode(src, dst, 1024)
	}
}

func BenchmarkDeltaDecode1MiB(b *testing.B) {
	src, dst := benchPages(1 << 20)
	stream := delta.Encode(src, dst, 1024)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.Decode(src, stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXOREncode4KiB(b *testing.B) {
	src, dst := benchPages(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.EncodeXOR(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUpdates builds a dirty set with the AIC steady-state mix: 70% hot
// lightly-edited pages (delta pays off), 10% hot rewritten pages (raw
// fallback), 20% fresh pages. It is the synthetic dirty-set generator the
// codec benchmarks share; hotEditUpdates is the hot-only shape beside it.
func benchUpdates(pages int) []delta.PageUpdate {
	rng := numeric.NewRNG(4)
	updates := make([]delta.PageUpdate, pages)
	for i := range updates {
		newPage := make([]byte, 4096)
		switch {
		case i%10 < 7:
			old := make([]byte, 4096)
			rng.Bytes(old)
			copy(newPage, old)
			for k := 0; k < 8; k++ {
				newPage[rng.Intn(4096)] ^= byte(1 + rng.Intn(255))
			}
			updates[i] = delta.PageUpdate{Index: uint64(i), Old: old, New: newPage}
		case i%10 < 8:
			old := make([]byte, 4096)
			rng.Bytes(old)
			rng.Bytes(newPage)
			updates[i] = delta.PageUpdate{Index: uint64(i), Old: old, New: newPage}
		default:
			rng.Bytes(newPage)
			updates[i] = delta.PageUpdate{Index: uint64(i), New: newPage}
		}
	}
	return updates
}

// BenchmarkPageAlignedEncodeParallel tracks the scaling headline of the
// concurrent compression pipeline: throughput of the page-aligned encoder
// at 1/2/4/8 workers over an 8 MiB dirty set.
func BenchmarkPageAlignedEncodeParallel(b *testing.B) {
	const pages = 2048
	updates := benchUpdates(pages)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(pages) * 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta.EncodePageAlignedParallelStats(updates, delta.DefaultBlockSize, workers)
			}
		})
	}
}

// hotEditUpdates builds a dirty set of hot pages only, each old page edited
// in place by four random 64 B writes — the shape of the end-to-end
// benchmark's hot set, and the case the page-aligned encoder's aligned
// fast path is for.
func hotEditUpdates(pages int) []delta.PageUpdate {
	rng := numeric.NewRNG(5)
	updates := make([]delta.PageUpdate, pages)
	for i := range updates {
		old := make([]byte, 4096)
		rng.Bytes(old)
		newPage := append([]byte(nil), old...)
		for k := 0; k < 4; k++ {
			rng.Bytes(newPage[rng.Intn(4096-64):][:64])
		}
		updates[i] = delta.PageUpdate{Index: uint64(i), Old: old, New: newPage}
	}
	return updates
}

// BenchmarkPageAlignedEncodeHotEdit tracks the aligned fast path: the
// page-aligned encoder over 1 MiB of lightly edited hot pages at 1 and 2
// workers.
func BenchmarkPageAlignedEncodeHotEdit(b *testing.B) {
	const pages = 256
	updates := hotEditUpdates(pages)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(pages) * 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta.EncodePageAlignedParallelStats(updates, delta.DefaultBlockSize, workers)
			}
		})
	}
}

// BenchmarkPageAlignedEncodeRewritten tracks the page a delta cannot help:
// 1,024 hot 4 KiB pages, each rewritten with unrelated data, the dirty set
// the first delta step after a full checkpoint offers the codec. Every page
// is searched against its old version, finds nothing and falls back to
// raw, at 1 and 2 workers.
func BenchmarkPageAlignedEncodeRewritten(b *testing.B) {
	const pages = 1024
	rng := numeric.NewRNG(6)
	updates := make([]delta.PageUpdate, pages)
	for i := range updates {
		old, newPage := make([]byte, 4096), make([]byte, 4096)
		rng.Bytes(old)
		rng.Bytes(newPage)
		updates[i] = delta.PageUpdate{Index: uint64(i), Old: old, New: newPage}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(pages) * 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta.EncodePageAlignedParallelStats(updates, delta.DefaultBlockSize, workers)
			}
		})
	}
}

// BenchmarkPageAlignedDecodeParallel is the restore-side counterpart: the
// same dirty set, encoded once, decoded at 1/2/4/8 workers. Throughput is
// relative to the decoded image size, as for the encoder.
func BenchmarkPageAlignedDecodeParallel(b *testing.B) {
	const pages = 2048
	updates := benchUpdates(pages)
	stream, _ := delta.EncodePageAlignedParallelStats(updates, delta.DefaultBlockSize, 1)
	olds := make(map[uint64][]byte, pages)
	for _, u := range updates {
		if u.Old != nil {
			olds[u.Index] = u.Old
		}
	}
	fetch := func(idx uint64) []byte { return olds[idx] }
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(pages) * 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := delta.DecodePageAlignedParallel(stream, fetch, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeAllocs tracks the allocation diet of the per-page codec:
// the one-shot Encode (one exact-size output copy), the reused Encoder
// (steady-state zero allocations), and the serial page-aligned path.
func BenchmarkEncodeAllocs(b *testing.B) {
	src, dst := benchPages(4096)
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			delta.Encode(src, dst, delta.DefaultBlockSize)
		}
	})
	b.Run("EncoderReuse", func(b *testing.B) {
		var e delta.Encoder
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Encode(src, dst, delta.DefaultBlockSize)
		}
	})
	b.Run("PageAlignedSerial", func(b *testing.B) {
		updates := benchUpdates(64)
		b.SetBytes(64 * 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			delta.EncodePageAlignedParallelStats(updates, delta.DefaultBlockSize, 1)
		}
	})
}

func BenchmarkMarkovSolveL2L3(b *testing.B) {
	p := model.Coastal()
	for i := 0; i < b.N; i++ {
		if _, err := model.EvalL2L3(1800, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkovSimulate(b *testing.B) {
	p := model.Coastal()
	p.Lambda = [3]float64{1e-4, 7.5e-4, 2e-5}
	ch, start, _ := model.L2L3Interval(1800, p, p)
	rng := numeric.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Simulate(rng, start, 100, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMoodyOptimize(b *testing.B) {
	p := model.Coastal()
	for i := 0; i < b.N; i++ {
		if _, err := model.OptimizeMoody(p, 10, 200000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeciderWorkSpanSearch(b *testing.B) {
	cur := model.Coastal()
	cur.Lambda = [3]float64{8.3e-5, 7.5e-4, 1.67e-5}
	for i := 0; i < b.N; i++ {
		model.OptimalWorkSpanDynamic(func(float64) model.Params { return cur }, cur, 1, 7200)
	}
}

func BenchmarkJaccardDistance4KiB(b *testing.B) {
	src, dst := benchPages(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictor.JaccardDistance(src, dst)
	}
}

func BenchmarkDivergenceIndex4KiB(b *testing.B) {
	src, _ := benchPages(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictor.DivergenceIndex(src)
	}
}

func BenchmarkPredictorOnlineUpdate(b *testing.B) {
	o := predictor.NewOnline(4, 3, 0.5)
	rng := numeric.NewRNG(2)
	for i := 0; i < 10; i++ {
		m := predictor.Metrics{DP: rng.Float64() * 1000, T: rng.Float64() * 60, JD: rng.Float64(), DI: rng.Float64()}
		o.Observe(m, 3*m.DP+m.T)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := predictor.Metrics{DP: float64(i % 1000), T: float64(i % 60), JD: 0.4, DI: 0.7}
		o.Observe(m, 3*m.DP+m.T)
		o.Predict(m)
	}
}

func BenchmarkDeltaCheckpoint(b *testing.B) {
	prog := workload.Sjeng(1)
	as := memsim.New(0)
	builder := ckpt.NewBuilder(as.PageSize(), 0, 0)
	prog.Init(as)
	builder.FullCheckpoint(as)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Step(as, float64(i*5), 5)
		c, _ := builder.DeltaCheckpoint(as)
		b.SetBytes(int64(c.Size()))
	}
}

func BenchmarkAICRunSphinx3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := aic.RunBenchmark("sphinx3", aic.Options{Policy: aic.AIC})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rep.NET2, "NET2")
		}
	}
}

func BenchmarkMonteCarloValidation(b *testing.B) {
	rep, err := aic.RunBenchmark("sphinx3", aic.Options{Policy: aic.SIC})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rep.Validate(2000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sharing, err := exp.SharingEmpirical(42, nil)
		if err != nil {
			b.Fatal(err)
		}
		mpiRows, err := exp.MPIScaling(42, nil)
		if err != nil {
			b.Fatal(err)
		}
		weibull, err := exp.WeibullSensitivity(42, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderExtensions(sharing, mpiRows, weibull))
			b.ReportMetric(sharing[15], "NET2-SF15-empirical")
		}
	}
}

func BenchmarkStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		acc, err := exp.PredictorAccuracy(42)
		if err != nil {
			b.Fatal(err)
		}
		lam, err := exp.LambdaSensitivity(42, "milc", nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.RenderAccuracy(acc, lam))
		}
	}
}

// restoreChain builds an encoded chain: an anchor of anchorPages random
// 4 KiB pages, then deltas elements that each dirty pagesPerDelta pages.
// hot deltas edit the same pages with four 64 B writes each, so every page
// is delta-coded; cold deltas rewrite a quarter of the image with fresh
// bytes, a different quarter each time, so every page is stored raw.
func restoreChain(anchorPages, deltas, pagesPerDelta int, hot bool) [][]byte {
	rng := numeric.NewRNG(6)
	as := memsim.New(4096)
	page := make([]byte, 4096)
	for i := 0; i < anchorPages; i++ {
		rng.Bytes(page)
		as.Write(uint64(i), 0, page, 0)
	}
	b := ckpt.NewBuilder(4096, 0, 64)
	chain := [][]byte{b.FullCheckpoint(as).Encode()}
	for d := 0; d < deltas; d++ {
		for i := 0; i < pagesPerDelta; i++ {
			if hot {
				for k := 0; k < 4; k++ {
					rng.Bytes(page[:64])
					as.Write(uint64(i), rng.Intn(4096-64), page[:64], 0)
				}
			} else {
				rng.Bytes(page)
				as.Write(uint64((d%4)*pagesPerDelta+i), 0, page, 0)
			}
		}
		c, _ := b.DeltaCheckpoint(as)
		chain = append(chain, c.Encode())
	}
	return chain
}

// BenchmarkCheckpointWrite times the write path below the network: a
// delta checkpoint encoded into its frame, plus the stripe split for the
// cold shape. Page writes between checkpoints are not timed; throughput is
// relative to the dirty bytes.
//   - hot: 256 pages of a 2,048-page image, each edited in place by four
//     64 B writes per interval, so every page is delta-coded;
//   - cold: 1,024 pages of a 4,096-page image rewritten with fresh bytes, a
//     different quarter each interval, so every page is stored raw; the
//     frame is then split into 2 stripes.
func BenchmarkCheckpointWrite(b *testing.B) {
	run := func(b *testing.B, imagePages, dirtyPages int, dirty func(p *aic.Process, i int), stripes int) {
		rng := numeric.NewRNG(7)
		p := aic.NewProcess(4096)
		page := make([]byte, 4096)
		for i := 0; i < imagePages; i++ {
			rng.Bytes(page)
			p.Write(uint64(i), 0, page)
		}
		p.FullCheckpoint()
		dirty(p, 0) // the full checkpoint saved every page: one interval to settle
		p.DeltaCheckpoint()
		b.SetBytes(int64(dirtyPages) * 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirty(p, i+1)
			b.StartTimer()
			frame, _ := p.DeltaCheckpoint()
			if stripes > 1 {
				if _, _, err := ckpt.SplitStripes(p.Seq()-1, frame, stripes); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("hot", func(b *testing.B) {
		rng := numeric.NewRNG(8)
		edit := make([]byte, 64)
		run(b, 2048, 256, func(p *aic.Process, _ int) {
			for pg := 0; pg < 256; pg++ {
				for k := 0; k < 4; k++ {
					rng.Bytes(edit)
					p.Write(uint64(pg), rng.Intn(4096-64), edit)
				}
			}
		}, 1)
	})
	b.Run("cold", func(b *testing.B) {
		fresh := make([]byte, 2*1024*4096) // two rounds of fresh pages, reused in turn
		numeric.NewRNG(9).Bytes(fresh)
		run(b, 4096, 1024, func(p *aic.Process, i int) {
			src := fresh[(i/4)%2*1024*4096:]
			for pg := 0; pg < 1024; pg++ {
				p.Write(uint64(i%4*1024+pg), 0, src[pg*4096:(pg+1)*4096])
			}
		}, 2)
	})
}

// BenchmarkRestoreChain times restore-to-image below the network: decode
// and replay, from the stripe parts for the cold shape.
//   - hot: an 8 MiB anchor and 15 deltas of 256 lightly edited pages,
//     replayed through recovery.RestoreLatestGood;
//   - cold: a 16 MiB anchor and 7 raw 4 MiB deltas, every element split
//     into 2 stripes, each stripe decoded, the element decoded from its
//     parts by ckpt.DecodeStriped without joining them, then the chain
//     replayed by ckpt.Restore straight from the parts.
func BenchmarkRestoreChain(b *testing.B) {
	size := func(chain [][]byte) (n int64) {
		for _, el := range chain {
			n += int64(len(el))
		}
		return n
	}
	b.Run("hot", func(b *testing.B) {
		chain := restoreChain(2048, 15, 256, true)
		stored := make([]storage.Stored, len(chain))
		for i, el := range chain {
			stored[i] = storage.Stored{Seq: i, Data: el}
		}
		b.SetBytes(size(chain))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, rep, err := recovery.RestoreLatestGood(stored); err != nil || rep.LastSeq != len(chain)-1 {
				b.Fatalf("restore: %v", err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		chain := restoreChain(4096, 7, 1024, false)
		type striped struct {
			man   []byte
			parts [][]byte
		}
		sets := make([]striped, len(chain))
		for i, el := range chain {
			man, parts, err := ckpt.SplitStripes(i, el, 2)
			if err != nil {
				b.Fatal(err)
			}
			sets[i] = striped{man, parts}
		}
		b.SetBytes(size(chain))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decoded := make([]*ckpt.Checkpoint, len(sets))
			for j, set := range sets {
				man, err := ckpt.DecodeStripe(set.man)
				if err != nil {
					b.Fatal(err)
				}
				parts := make([]*ckpt.StripeFrame, len(set.parts))
				for k, p := range set.parts {
					if parts[k], err = ckpt.DecodeStripe(p); err != nil {
						b.Fatal(err)
					}
				}
				if decoded[j], err = ckpt.DecodeStriped(man, parts); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := ckpt.Restore(decoded); err != nil {
				b.Fatal(err)
			}
		}
	})
}
