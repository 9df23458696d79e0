package core

import (
	"fmt"
	"math"

	"aic/internal/ckpt"
	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/model"
	"aic/internal/predictor"
	"aic/internal/sampler"
	"aic/internal/storage"
	"aic/internal/workload"
)

// Runtime executes one process under a checkpointing policy in virtual
// time, producing the per-interval cost trace the evaluation feeds into the
// Markov models. Work time (the program's own progress) and wall time
// (work + checkpoint halts + bookkeeping) are tracked separately; delta
// compression and remote transfers happen on the checkpointing core and do
// not add wall time, exactly as in the concurrent model.
type Runtime struct {
	cfg     Config
	prog    workload.Program
	as      *memsim.AddressSpace
	builder *ckpt.Builder
	sb      *sampler.Sampler
	dec     *Decider

	// Sinks receive the produced checkpoints; nil sinks discard them.
	LocalSink  func(*ckpt.Checkpoint)
	RemoteSink func(*ckpt.Checkpoint)

	workNow  float64 // program work-seconds executed
	wallNow  float64 // virtual wall-clock
	overhead float64 // bookkeeping charged in the current interval

	lastCkptWork float64 // work time when the last checkpoint's c1 ended
	prevXferWin  float64 // previous interval's c3 − c1 (concurrent window)
	prevParams   model.Params

	lastWStar   float64
	lastNRIters int
	lastPred    [3]float64

	prevRawPayload []byte // previous raw incremental payload (whole-image comparator)

	result RunResult
}

// NewRuntime wires a runtime for the program under the config.
func NewRuntime(prog workload.Program, cfg Config) *Runtime {
	as := memsim.New(0)
	rt := &Runtime{
		cfg:     cfg,
		prog:    prog,
		as:      as,
		builder: ckpt.NewBuilder(as.PageSize(), 0, cpuStateBytes),
		sb:      sampler.New(sampleBufferPages, cfg.FixedTg),
		dec:     NewDecider(cfg.System, as.PageSize(), 1),
		result: RunResult{
			Benchmark: prog.Name(),
			Policy:    cfg.Policy,
			Seed:      cfg.Seed,
		},
	}
	if cfg.FixedTg > 0 {
		rt.sb.SetAdaptive(false)
	}
	as.SetFirstWriteHook(func(idx uint64, now float64) {
		if rt.builder.IsHot(idx) {
			rt.sb.Observe(idx, now)
		}
	})
	return rt
}

// Run executes the program to completion and returns the measured trace.
func (rt *Runtime) Run() (*RunResult, error) {
	base := rt.prog.BaseTime()
	rt.prog.Init(rt.as)

	// The very first checkpoint is always full. It captures the initial
	// process image, which is staged to every level together with the job
	// submission (the scheduler ships the input state before execution
	// starts), so it charges no wall time and leaves the checkpointing
	// core free.
	full := rt.builder.FullCheckpoint(rt.as)
	rt.result.FullCheckpointBytes = full.Size()
	rt.emit(full)
	rt.sb.Reset()
	rt.prevParams = MoodyFullParams(rt.cfg.System, int64(full.Size()), rt.cfg.Lambda)

	interval := rt.cfg.FixedInterval
	if interval <= 0 {
		interval = BootstrapInterval
	}
	rt.result.Interval = interval

	for rt.workNow < base {
		step := math.Min(decisionPeriod, base-rt.workNow)
		rt.prog.Step(rt.as, rt.workNow, step)
		rt.workNow += step
		rt.wallNow += step
		if rt.workNow >= base {
			break
		}
		take, err := rt.decide(interval)
		if err != nil {
			return nil, err
		}
		if take {
			if err := rt.checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	// Closing checkpoint so the tail of execution is covered.
	if rt.as.DirtyCount() > 0 {
		if err := rt.checkpoint(); err != nil {
			return nil, err
		}
	}
	rt.result.BaseTime = rt.workNow
	rt.result.WallTime = rt.wallNow
	return &rt.result, nil
}

// elapsedWork returns the work seconds since the last checkpoint completed.
func (rt *Runtime) elapsedWork() float64 { return rt.workNow - rt.lastCkptWork }

// effectiveW maps elapsed work time to the model's work span w by removing
// the previous interval's concurrent-transfer window.
func (rt *Runtime) effectiveW() float64 { return rt.elapsedWork() - rt.prevXferWin }

// decide evaluates the policy at a decision tick.
func (rt *Runtime) decide(interval float64) (bool, error) {
	// The model takes no new L1 until the previous remote transfers have
	// finished (single checkpointing core).
	if rt.effectiveW() <= 0 {
		return false, nil
	}
	switch rt.cfg.Policy {
	case PolicySIC, PolicyMoody:
		return rt.elapsedWork() >= interval, nil
	case PolicyAIC:
		return rt.decideAIC(interval)
	}
	return false, fmt.Errorf("core: unknown policy %v", rt.cfg.Policy)
}

// decideAIC implements the per-second adaptive decision: gather lightweight
// metrics, predict the interval's costs as a function of the candidate work
// span (the regression carries t as a feature, so cost growth with interval
// length is modelled, and the dirty-page count is extrapolated linearly up
// to the footprint), and let the decider locate w*_L and rule on taking the
// checkpoint now.
func (rt *Runtime) decideAIC(bootstrapInterval float64) (bool, error) {
	m := rt.metrics()
	if rt.cfg.NaivePredictor {
		return rt.decideNaive(bootstrapInterval)
	}
	if !rt.dec.Ready() {
		// Bootstrap phase: fixed interval until four samples exist.
		rt.charge(decisionOverhead)
		return rt.elapsedWork() >= bootstrapInterval, nil
	}
	win := rt.prevXferWin
	elapsed := rt.elapsedWork()
	footprint := float64(rt.prog.FootprintPages())
	predParams := func(w float64) model.Params {
		tc := w + win // interval length at candidate w
		dp := m.DP
		if elapsed > 0 {
			dp *= tc / elapsed
		}
		if dp > footprint {
			dp = footprint
		}
		c1, dl, ds := rt.dec.Predict(0, predictor.Metrics{DP: dp, T: tc, JD: m.JD, DI: m.DI})
		c2, c3 := LevelCosts(rt.cfg.System, c1, dl, ds)
		return IntervalRecord{C1: c1, C2: c2, C3: c3}.Params(rt.cfg.Lambda)
	}
	take, ws := rt.dec.Decide(predParams, rt.prevParams, rt.prog.BaseTime(), rt.effectiveW())
	c1, dl, ds := rt.dec.Predict(0, m)
	rt.lastPred = [3]float64{c1, dl, ds}
	rt.lastWStar, rt.lastNRIters = ws.W, ws.NRIters
	rt.charge(decisionOverhead)
	return take, nil
}

// decideNaive is the predictor ablation: the last measured (c1, dl, ds)
// are used as constants — no metric features, no cost-vs-span coupling —
// and the checkpoint is taken once w*_L is at or below the elapsed span.
func (rt *Runtime) decideNaive(bootstrapInterval float64) (bool, error) {
	rt.charge(decisionOverhead)
	n := len(rt.result.Intervals)
	if n < 1 {
		return rt.elapsedWork() >= bootstrapInterval, nil
	}
	last := rt.result.Intervals[n-1]
	cur := last.Params(rt.cfg.Lambda)
	ws := model.OptimalWorkSpanDynamic(func(float64) model.Params { return cur }, rt.prevParams, WMin, rt.prog.BaseTime())
	rt.lastWStar, rt.lastNRIters = ws.W, ws.NRIters
	rt.lastPred = [3]float64{last.C1, last.DL, last.DS}
	return ws.W <= rt.effectiveW(), nil
}

// charge accounts computation-core bookkeeping time: it both extends the
// wall clock and is attributed to the current interval's overhead.
func (rt *Runtime) charge(sec float64) {
	rt.overhead += sec
	rt.wallNow += sec
}

// metrics gathers the predictor's feature vector at the current decision
// point, charging the metric-computation cost to the computation core. At
// most maxMetricPages samples are examined, spread evenly over the buffer.
func (rt *Runtime) metrics() predictor.Metrics {
	samples := rt.sb.AtDecision()
	stride := 1
	if len(samples) > maxMetricPages {
		stride = (len(samples) + maxMetricPages - 1) / maxMetricPages
	}
	pages := make([]uint64, 0, maxMetricPages)
	for i := 0; i < len(samples); i += stride {
		pages = append(pages, samples[i].Page)
	}
	m, n := PageMetrics(rt.as, rt.builder, rt.elapsedWork(), pages, maxMetricPages)
	if rt.cfg.System.MetricBps > 0 {
		rt.charge(float64(n*rt.as.PageSize()) / rt.cfg.System.MetricBps)
	}
	return m
}

// checkpoint takes a checkpoint per the policy, records the interval, and
// feeds the predictor.
func (rt *Runtime) checkpoint() error {
	m := rt.metrics() // metrics at the actual checkpoint moment
	dirty := rt.as.DirtyCount()

	var rec IntervalRecord
	switch {
	case rt.fullDue():
		// Full checkpoint, no compression: Moody's every one, and for
		// SIC/AIC every FullEvery-th, bounding the restore chain (Section
		// II.A: a restart needs the last full checkpoint plus all
		// incrementals after it).
		full := rt.builder.FullCheckpoint(rt.as)
		rec.RawBytes = full.Size()
		rec.DS = float64(rec.RawBytes)
		rec.C1 = rt.cfg.System.LocalDisk.TransferTime(int64(rec.RawBytes))
		rt.emit(full)
	case rt.cfg.Compressor == CompressorWhole:
		// Incremental checkpoint to local disk (process halted for c1),
		// then delta compression + remote send on the checkpointing core
		// (concurrent: no wall time). Whole-file compression differences
		// the new payload against the whole previous one.
		inc := rt.builder.IncrementalCheckpoint(rt.as)
		raw := inc.Payload
		stream := delta.Encode(rt.prevRawPayload, raw, 1024)
		rec.RawBytes = len(raw) + len(inc.CPUState)
		rec.DS = float64(len(stream) + len(inc.CPUState))
		rec.DL = rt.cfg.System.CompressTime(int64(len(raw)+len(rt.prevRawPayload)), int64(rec.DS))
		rec.C1 = rt.cfg.System.LocalDisk.TransferTime(int64(rec.RawBytes))
		rt.prevRawPayload = raw
		rt.emit(inc)
	default:
		// Page-level delta (or XOR) compression: the input covers the new
		// checkpoint plus the prior versions of its hot pages.
		var inc *ckpt.Checkpoint
		var st delta.Stats
		if rt.cfg.Compressor == CompressorXOR {
			inc, st = rt.builder.XORCheckpoint(rt.as)
		} else {
			inc, st = rt.builder.DeltaCheckpoint(rt.as)
		}
		rec = CheckpointCosts(rt.cfg.System, inc, st, rt.as.PageSize())
		rt.emit(inc)
	}
	c1, dl, ds := rec.C1, rec.DL, rec.DS

	rec.Index = len(rt.result.Intervals)
	rec.Start, rec.End = rt.lastCkptWork, rt.workNow
	rec.W = math.Max(WMin, rt.effectiveW())
	rec.DirtyPages = dirty
	rec.Overhead = rt.overhead
	rec.WStar, rec.NRIters = rt.lastWStar, rt.lastNRIters
	rec.PredC1, rec.PredDL, rec.PredDS = rt.lastPred[0], rt.lastPred[1], rt.lastPred[2]
	rec.C2, rec.C3 = LevelCosts(rt.cfg.System, c1, dl, ds)
	rt.result.Intervals = append(rt.result.Intervals, rec)

	// Process halts for c1; compression/transfers overlap execution.
	rt.wallNow += c1

	if rt.cfg.Policy == PolicyMoody {
		// Sequential model: the process also blocks for the remote send.
		remote := rt.cfg.System.Remote.TransferTime(int64(rec.RawBytes))
		rt.wallNow += remote
		rt.prevXferWin = 0
	} else {
		rt.prevXferWin = dl + rt.cfg.System.Remote.TransferTime(int64(ds))
	}

	// Predictor feedback (AIC learns online; harmless for SIC).
	rt.dec.Observe(0, m, c1, dl, ds)

	rt.prevParams = rec.Params(rt.cfg.Lambda)
	rt.lastCkptWork = rt.workNow
	rt.overhead = 0
	rt.sb.Reset()
	return nil
}

// fullDue reports whether this checkpoint is a full one: always under
// Moody, and every FullEvery-th one under SIC/AIC.
func (rt *Runtime) fullDue() bool {
	if rt.cfg.Policy == PolicyMoody {
		return true
	}
	n, taken := rt.cfg.FullEvery, len(rt.result.Intervals)
	return n > 0 && taken > 0 && (taken+1)%n == 0
}

// CheckpointCosts is the one cost model every simulator prices a
// page-level delta (or XOR) checkpoint with: c1 writes the raw dirty input
// and the CPU blob to local disk, dl compresses that input together with
// the hot pages' previous versions into the stored size, and ds is the
// stored size. It returns them in a record with RawBytes set; the caller
// fills in the rest.
func CheckpointCosts(sys storage.System, c *ckpt.Checkpoint, st delta.Stats, pageSize int) IntervalRecord {
	raw := st.InputBytes + len(c.CPUState)
	size := c.Size()
	return IntervalRecord{
		C1:       sys.LocalDisk.TransferTime(int64(raw)),
		DL:       sys.CompressTime(int64(st.InputBytes+st.HotPages*pageSize), int64(size)),
		DS:       float64(size),
		RawBytes: raw,
	}
}

// emit hands a produced checkpoint to the configured sinks (the local disk
// chain and the remote levels); nil sinks discard it.
func (rt *Runtime) emit(c *ckpt.Checkpoint) {
	if rt.LocalSink != nil {
		rt.LocalSink(c)
	}
	if rt.RemoteSink != nil {
		rt.RemoteSink(c)
	}
}

// Profile runs the program under SIC with a given interval to measure its
// average checkpoint costs — the offline profiling that SIC and Moody
// require and AIC explicitly avoids.
func Profile(prog workload.Program, cfg Config, interval float64) (model.Params, error) {
	cfg.Policy = PolicySIC
	cfg.FixedInterval = interval
	res, err := NewRuntime(prog, cfg).Run()
	if err != nil {
		return model.Params{}, err
	}
	return res.MeanParams(cfg.Lambda), nil
}

// StaticInterval derives the fixed checkpoint interval SIC and Moody need,
// the way Section V.A prescribes: SIC profiles a fresh instance of the
// program (built by fresh) at a twentieth of its base time and optimizes
// the static L2L3 model on the average costs; Moody optimizes its own model
// on full checkpoints of the footprint. AIC needs none and gets 0.
func StaticInterval(cfg Config, prog workload.Program, fresh func() (workload.Program, error)) (float64, error) {
	base := prog.BaseTime()
	switch cfg.Policy {
	case PolicySIC:
		profProg, err := fresh()
		if err != nil {
			return 0, err
		}
		prof, err := Profile(profProg, Config{System: cfg.System, Lambda: cfg.Lambda, Compressor: cfg.Compressor}, base/20)
		if err != nil {
			return 0, fmt.Errorf("core: profiling %s: %w", prog.Name(), err)
		}
		return OptimalSICInterval(prof, 1, base)
	case PolicyMoody:
		mp := MoodyFullParams(cfg.System, int64(prog.FootprintPages()*4096), cfg.Lambda)
		return OptimalMoodyInterval(mp, 1, 10*base)
	}
	return 0, nil
}

// OptimalSICInterval derives SIC's fixed checkpoint interval from profiled
// average costs via the static L2L3 concurrent model.
func OptimalSICInterval(p model.Params, wLo, wHi float64) (float64, error) {
	res, err := model.OptimizeConcurrent(model.KindL2L3, p, wLo, wHi)
	if err != nil {
		return 0, err
	}
	return res.W, nil
}

// MoodyFullParams computes the Moody baseline's checkpoint-cost profile
// directly from the process footprint: full checkpoints of fullBytes to
// each level, with no compression.
func MoodyFullParams(sys storage.System, fullBytes int64, lambda [3]float64) model.Params {
	c1 := sys.LocalDisk.TransferTime(fullBytes)
	p := model.Params{Lambda: lambda}
	p.C = [3]float64{
		c1,
		c1 + sys.RAID5.TransferTime(fullBytes),
		c1 + sys.Remote.TransferTime(fullBytes),
	}
	p.R = p.C
	return p
}

// OptimalMoodyInterval derives Moody's fixed interval from profiled average
// full-checkpoint costs via the Moody model.
func OptimalMoodyInterval(p model.Params, wLo, wHi float64) (float64, error) {
	res, err := model.OptimizeMoody(p, wLo, wHi)
	if err != nil {
		return 0, err
	}
	return res.W, nil
}
