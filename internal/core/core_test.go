package core

import (
	"math"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/failure"
	"aic/internal/model"
	"aic/internal/storage"
	"aic/internal/workload"
)

func benchSys() storage.System {
	return storage.BenchSystem(1, int64(workload.ReferenceFootprintPages)*4096)
}

func benchLambda() [3]float64 {
	return failure.SplitRate(1e-3, failure.CoastalProportions())
}

func TestPolicyKindString(t *testing.T) {
	if PolicyAIC.String() != "AIC" || PolicySIC.String() != "SIC" || PolicyMoody.String() != "Moody" {
		t.Fatal("names")
	}
	if PolicyKind(7).String() == "" {
		t.Fatal("unknown kind must format")
	}
}

func TestConfigDefaults(t *testing.T) {
	if decisionPeriod != 1 || sampleBufferPages != 2048 ||
		cpuStateBytes != 4096 || WMin != 1 || BootstrapInterval != 5 ||
		maxMetricPages != 64 || decisionOverhead != 200e-6 {
		t.Fatal("runtime settings changed")
	}
}

// pinned fails unless got equals a value captured from an earlier run of
// the same configuration, to 12 significant digits: tighter than any
// rendered table, loose enough for fused multiply-add on other platforms.
func pinned(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-11*math.Abs(want) {
		t.Errorf("%s = %.12g, pinned at %.12g", what, got, want)
	}
}

func TestSICRunProducesIntervals(t *testing.T) {
	prog := workload.Sphinx3(1)
	res, err := NewRuntime(prog, Config{
		Policy: PolicySIC, System: benchSys(), Lambda: benchLambda(), FixedInterval: 20,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) < 10 {
		t.Fatalf("only %d intervals", len(res.Intervals))
	}
	if res.BaseTime != prog.BaseTime() {
		t.Fatalf("base time %v", res.BaseTime)
	}
	if res.WallTime <= res.BaseTime {
		t.Fatal("wall time must exceed base time (c1 halts)")
	}
	for i, iv := range res.Intervals {
		if iv.C1 <= 0 || iv.DS <= 0 || iv.C3 < iv.C2 || iv.C2 < iv.C1 {
			t.Fatalf("interval %d: c1=%v c2=%v c3=%v ds=%v", i, iv.C1, iv.C2, iv.C3, iv.DS)
		}
		if iv.W < 1 {
			t.Fatalf("interval %d: w=%v below WMin", i, iv.W)
		}
		if i > 0 && iv.Start != res.Intervals[i-1].End {
			t.Fatalf("interval %d not contiguous", i)
		}
	}
}

func TestIntervalSpacingRespectsTransferWindow(t *testing.T) {
	// With FixedInterval=1, SIC wants to checkpoint every second, but the
	// single checkpointing core forces spacing of at least the previous
	// transfer window.
	prog := workload.Milc(1)
	res, err := NewRuntime(prog, Config{
		Policy: PolicySIC, System: benchSys(), Lambda: benchLambda(), FixedInterval: 1,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// The final interval is exempt: the closing checkpoint covers the
	// execution tail regardless of the transfer window.
	for i := 1; i < len(res.Intervals)-1; i++ {
		prev := res.Intervals[i-1]
		span := res.Intervals[i].End - res.Intervals[i].Start
		window := prev.C3 - prev.C1
		if span < window-1.5 { // decision-period slack
			t.Fatalf("interval %d span %v below previous window %v", i, span, window)
		}
	}
}

func TestAICOverheadWithinPaperEnvelope(t *testing.T) {
	const seed = 3
	for _, prog := range []workload.Program{
		workload.Bzip2(seed + 1), workload.Sjeng(seed + 2), workload.Libquantum(seed + 3),
		workload.Milc(seed + 4), workload.Lbm(seed + 5), workload.Sphinx3(seed + 6),
	} {
		res, err := NewRuntime(prog, Config{
			Policy: PolicyAIC, System: benchSys(), Lambda: benchLambda(),
		}).Run()
		if err != nil {
			t.Fatalf("%s: %v", prog.Name(), err)
		}
		// The paper reports 0.7%–2.6% total; allow simulation slack but
		// catch runaway overhead.
		if ov := res.OverheadFrac(); ov < 0 || ov > 0.08 {
			t.Fatalf("%s: overhead %.2f%% out of envelope", prog.Name(), 100*ov)
		}
		// Bookkeeping alone (predictor+decider+metrics) must be ≤ 2.6%.
		if bk := bookkeepingFrac(res); bk > 0.026 {
			t.Fatalf("%s: bookkeeping %.2f%% above paper bound", prog.Name(), 100*bk)
		}
	}
}

// bookkeepingFrac returns only the predictor/decider/metric share of the
// overhead ("mostly due to the AIC Predictor and Checkpoint Decider").
func bookkeepingFrac(r *RunResult) float64 {
	if r.BaseTime == 0 {
		return 0
	}
	var sum float64
	for _, iv := range r.Intervals {
		sum += iv.Overhead
	}
	return sum / r.BaseTime
}

func TestAICNRIterationsBounded(t *testing.T) {
	prog := workload.Sphinx3(5)
	res, err := NewRuntime(prog, Config{
		Policy: PolicyAIC, System: benchSys(), Lambda: benchLambda(),
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Intervals {
		if iv.NRIters > 200 {
			t.Fatalf("interval %d: %d NR iterations exceed the paper's bound", iv.Index, iv.NRIters)
		}
	}
}

func TestMoodyBlocksForRemote(t *testing.T) {
	prog := workload.Bzip2(2)
	moody, err := NewRuntime(prog, Config{
		Policy: PolicyMoody, System: benchSys(), Lambda: benchLambda(), FixedInterval: 40,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	sic, err := NewRuntime(workload.Bzip2(2), Config{
		Policy: PolicySIC, System: benchSys(), Lambda: benchLambda(), FixedInterval: 40,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Sequential Moody halts for the full remote transfer; concurrent SIC
	// does not — Moody's wall time must be much larger.
	if moody.WallTime < sic.WallTime+10 {
		t.Fatalf("Moody wall %v not above SIC wall %v", moody.WallTime, sic.WallTime)
	}
	for _, iv := range moody.Intervals {
		if iv.DL != 0 {
			t.Fatal("Moody must not delta-compress")
		}
	}
}

func TestNET2OrderingAICAndSICBeatMoody(t *testing.T) {
	// The Fig. 11 headline on the strongest case (Milc).
	sys := benchSys()
	lambda := benchLambda()
	prof, err := Profile(workload.Milc(42), Config{System: sys, Lambda: lambda}, 25)
	if err != nil {
		t.Fatal(err)
	}
	wSIC, err := OptimalSICInterval(prof, 1, 527)
	if err != nil {
		t.Fatal(err)
	}
	sic, err := NewRuntime(workload.Milc(42), Config{Policy: PolicySIC, System: sys, Lambda: lambda, FixedInterval: wSIC}).Run()
	if err != nil {
		t.Fatal(err)
	}
	aic, err := NewRuntime(workload.Milc(42), Config{Policy: PolicyAIC, System: sys, Lambda: lambda}).Run()
	if err != nil {
		t.Fatal(err)
	}
	moody, err := NewRuntime(workload.Milc(42), Config{Policy: PolicyMoody, System: sys, Lambda: lambda, FixedInterval: 100}).Run()
	if err != nil {
		t.Fatal(err)
	}
	nSIC, err := sic.NET2(lambda)
	if err != nil {
		t.Fatal(err)
	}
	nAIC, err := aic.NET2(lambda)
	if err != nil {
		t.Fatal(err)
	}
	nMoody, err := moody.NET2(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if !(nAIC < nMoody && nSIC < nMoody) {
		t.Fatalf("ordering violated: AIC %v, SIC %v, Moody %v", nAIC, nSIC, nMoody)
	}
	pinned(t, "AIC NET²", nAIC, 1.66443067935)
	pinned(t, "SIC NET²", nSIC, 1.66342746573)
	pinned(t, "Moody NET²", nMoody, 2.34110419009)
	// AIC tracks SIC within a sliver at 1x (both degenerate to
	// ASAP-checkpointing when the transfer window gates the interval);
	// its decisive wins appear at larger scales (see Fig. 12 tests).
	if nAIC > nSIC*1.01 {
		t.Fatalf("AIC %v must stay within 1%% of SIC %v on Milc", nAIC, nSIC)
	}
}

func TestNET2EmptyRun(t *testing.T) {
	r := &RunResult{}
	n, err := r.NET2(benchLambda())
	if err != nil || n != 1 {
		t.Fatalf("empty run NET² = %v, %v", n, err)
	}
}

func TestRunResultAccessors(t *testing.T) {
	r := &RunResult{BaseTime: 100, WallTime: 104}
	if math.Abs(r.OverheadFrac()-0.04) > 1e-12 {
		t.Fatal("OverheadFrac")
	}
	r.Intervals = []IntervalRecord{{RawBytes: 100, DS: 40, Overhead: 1, DL: 2}, {RawBytes: 100, DS: 60, DL: 4}}
	if r.MeanRatio() != 0.5 {
		t.Fatalf("MeanRatio = %v", r.MeanRatio())
	}
	if r.MeanDeltaLatency() != 3 {
		t.Fatalf("MeanDeltaLatency = %v", r.MeanDeltaLatency())
	}
	if bookkeepingFrac(r) != 0.01 {
		t.Fatalf("bookkeepingFrac = %v", bookkeepingFrac(r))
	}
	zero := &RunResult{}
	if zero.OverheadFrac() != 0 || zero.MeanRatio() != 0 || zero.MeanDeltaLatency() != 0 || bookkeepingFrac(zero) != 0 {
		t.Fatal("zero-value accessors")
	}
}

func TestIntervalRecordParams(t *testing.T) {
	rec := IntervalRecord{C1: 1, C2: 3, C3: 9}
	p := rec.Params([3]float64{1e-3, 1e-3, 1e-3})
	if p.C != [3]float64{1, 3, 9} || p.R != p.C {
		t.Fatalf("params: %+v", p)
	}
	if p.Lambda[0] != 1e-3 {
		t.Fatal("lambda")
	}
}

func TestMoodyFullParams(t *testing.T) {
	sys := storage.System{
		LocalDisk: storage.Target{BandwidthBps: 100},
		RAID5:     storage.Target{BandwidthBps: 1000},
		Remote:    storage.Target{BandwidthBps: 10},
	}
	p := MoodyFullParams(sys, 1000, [3]float64{1, 2, 3})
	if p.C[0] != 10 || p.C[1] != 11 || p.C[2] != 110 {
		t.Fatalf("c = %v", p.C)
	}
}

func TestRuntimeSinksReceiveCheckpoints(t *testing.T) {
	var local, remote []*ckpt.Checkpoint
	rt := NewRuntime(workload.Sphinx3(4), Config{
		Policy: PolicySIC, System: benchSys(), Lambda: benchLambda(), FixedInterval: 30,
	})
	rt.LocalSink = func(c *ckpt.Checkpoint) { local = append(local, c) }
	rt.RemoteSink = func(c *ckpt.Checkpoint) { remote = append(remote, c) }
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != len(res.Intervals)+1 || len(remote) != len(local) {
		t.Fatalf("sinks got %d/%d checkpoints for %d intervals", len(local), len(remote), len(res.Intervals))
	}
	if local[0].Kind != ckpt.Full {
		t.Fatal("first checkpoint must be full")
	}
	// The emitted chain must restore to the final process image.
	restored, err := ckpt.Restore(local)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(rt.as) {
		t.Fatal("restored chain differs from final image")
	}
}

func TestProfileAndOptimalIntervals(t *testing.T) {
	prof, err := Profile(workload.Sphinx3(6), Config{System: benchSys(), Lambda: benchLambda()}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if prof.C[0] <= 0 || prof.C[2] <= prof.C[0] {
		t.Fatalf("profile params: %v", prof.C)
	}
	w, err := OptimalSICInterval(prof, 1, 749)
	if err != nil {
		t.Fatal(err)
	}
	if w < 1 || w > 749 {
		t.Fatalf("SIC w* = %v", w)
	}
	mp := MoodyFullParams(benchSys(), 1<<20, benchLambda())
	wm, err := OptimalMoodyInterval(mp, 1, 7490)
	if err != nil {
		t.Fatal(err)
	}
	if wm < 1 {
		t.Fatalf("Moody w* = %v", wm)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *RunResult {
		res, err := NewRuntime(workload.Bzip2(11), Config{
			Policy: PolicyAIC, System: benchSys(), Lambda: benchLambda(),
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Intervals) != len(b.Intervals) || a.WallTime != b.WallTime {
		t.Fatalf("non-deterministic: %d/%v vs %d/%v",
			len(a.Intervals), a.WallTime, len(b.Intervals), b.WallTime)
	}
	for i := range a.Intervals {
		if a.Intervals[i].DS != b.Intervals[i].DS {
			t.Fatalf("interval %d differs", i)
		}
	}
}

func TestMeanParams(t *testing.T) {
	r := &RunResult{Intervals: []IntervalRecord{
		{C1: 1, C2: 2, C3: 10},
		{C1: 3, C2: 4, C3: 30},
	}}
	p := r.MeanParams(benchLambda())
	if p.C != [3]float64{2, 3, 20} {
		t.Fatalf("mean params: %v", p.C)
	}
	var _ model.Params = p
}

func TestFullEveryBoundsRestoreChain(t *testing.T) {
	var chain []*ckpt.Checkpoint
	rt := NewRuntime(workload.Sphinx3(8), Config{
		Policy: PolicySIC, System: benchSys(), Lambda: benchLambda(),
		FixedInterval: 20, FullEvery: 5,
	})
	rt.LocalSink = func(c *ckpt.Checkpoint) { chain = append(chain, c) }
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	fulls := 0
	for _, c := range chain[1:] {
		if c.Kind == ckpt.Full {
			fulls++
		}
	}
	if fulls == 0 {
		t.Fatal("FullEvery produced no periodic full checkpoints")
	}
	// Periodic fulls are much larger than the deltas around them.
	var lastFull, lastDelta int
	for _, c := range chain[1:] {
		if c.Kind == ckpt.Full {
			lastFull = c.Size()
		} else {
			lastDelta = c.Size()
		}
	}
	if lastFull <= lastDelta {
		t.Fatalf("full %d not above delta %d", lastFull, lastDelta)
	}
	// Restoring from the most recent full reproduces the final image.
	latest := len(chain) - 1
	for chain[latest].Kind != ckpt.Full {
		latest--
	}
	restored, err := ckpt.Restore(chain[latest:])
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(rt.as) {
		t.Fatal("restore from the latest full mismatch")
	}
	_ = res
}

func TestCompressorKindsProduceRestorableRuns(t *testing.T) {
	for _, comp := range []CompressorKind{CompressorPA, CompressorXOR} {
		var chain []*ckpt.Checkpoint
		rt := NewRuntime(workload.Bzip2(4), Config{
			Policy: PolicySIC, System: benchSys(), Lambda: benchLambda(),
			FixedInterval: 30, Compressor: comp,
		})
		rt.LocalSink = func(c *ckpt.Checkpoint) { chain = append(chain, c) }
		if _, err := rt.Run(); err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		restored, err := ckpt.Restore(chain)
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		if !restored.Equal(rt.as) {
			t.Fatalf("%v: restore mismatch", comp)
		}
	}
}

func TestCompressorWholeRecordsCosts(t *testing.T) {
	res, err := NewRuntime(workload.Sphinx3(4), Config{
		Policy: PolicySIC, System: benchSys(), Lambda: benchLambda(),
		FixedInterval: 30, Compressor: CompressorWhole,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) < 5 {
		t.Fatalf("%d intervals", len(res.Intervals))
	}
	for i, iv := range res.Intervals {
		if iv.DS <= 0 || iv.DL <= 0 {
			t.Fatalf("interval %d: ds=%v dl=%v", i, iv.DS, iv.DL)
		}
	}
}

func TestNaivePredictorRuns(t *testing.T) {
	res, err := NewRuntime(workload.Sphinx3(4), Config{
		Policy: PolicyAIC, System: benchSys(), Lambda: benchLambda(),
		NaivePredictor: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	n, err := res.NET2(benchLambda())
	if err != nil || n < 1 {
		t.Fatalf("NET² = %v, %v", n, err)
	}
}

func TestFixedTgRuns(t *testing.T) {
	res, err := NewRuntime(workload.Sjeng(4), Config{
		Policy: PolicyAIC, System: benchSys(), Lambda: benchLambda(),
		FixedTg: 0.5,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no intervals")
	}
}
