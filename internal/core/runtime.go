package core

import (
	"fmt"
	"math"

	"aic/internal/ckpt"
	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/model"
	"aic/internal/numeric"
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

	predC1 *predictor.Online
	predDL *predictor.Online
	predDS *predictor.Online

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
		predC1:  predictor.NewOnline(4, 3, 0.5),
		predDL:  predictor.NewOnline(4, 3, 0.5),
		predDS:  predictor.NewOnline(4, 3, 0.5),
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

// AddressSpace exposes the simulated process memory (for restore tests).
func (rt *Runtime) AddressSpace() *memsim.AddressSpace { return rt.as }

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
		interval = rt.defaultInterval()
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

// defaultInterval derives the bootstrap interval when none is configured:
// a handful of decision periods. Early checkpoints are cheap (small dirty
// sets) and the predictor needs its four samples quickly; the transfer
// window alone spaces the later intervals.
func (rt *Runtime) defaultInterval() float64 {
	return 5 * decisionPeriod
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
// to the footprint), locate w*_L via the EVT/Newton–Raphson search, and
// checkpoint when w*_L is at or below the elapsed span — i.e. when the
// predicted-cost-aware optimum says a better moment is not ahead.
func (rt *Runtime) decideAIC(bootstrapInterval float64) (bool, error) {
	m := rt.metrics()
	if rt.cfg.NaivePredictor {
		return rt.decideNaive(bootstrapInterval)
	}
	if !rt.predC1.Ready() || !rt.predDL.Ready() || !rt.predDS.Ready() {
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
		mc := predictor.Metrics{DP: dp, T: tc, JD: m.JD, DI: m.DI}
		c1, dl, ds := rt.clampPrediction(mc,
			rt.predC1.Predict(mc), rt.predDL.Predict(mc), rt.predDS.Predict(mc))
		return rt.assembleParams(c1, dl, ds)
	}
	obj := func(w float64) float64 {
		iv, err := model.EvalL2L3Dynamic(w, predParams(w), rt.prevParams)
		if err != nil {
			return math.Inf(1)
		}
		return iv.NET2()
	}
	wStar, objStar, iters := numeric.MinimizeEVT(obj, wMin, rt.prog.BaseTime(), 200)
	c1, dl, ds := rt.clampPrediction(m, rt.predC1.Predict(m), rt.predDL.Predict(m), rt.predDS.Predict(m))
	rt.lastPred = [3]float64{c1, dl, ds}
	rt.lastWStar, rt.lastNRIters = wStar, iters
	rt.charge(decisionOverhead)
	if wStar <= rt.effectiveW() {
		return true, nil
	}
	// Tie-break toward checkpointing now: predictions get less reliable
	// the further they extrapolate, so when taking the checkpoint at the
	// current span is within a sliver of the predicted optimum, take it.
	return obj(rt.effectiveW()) <= objStar*1.001, nil
}

// decideNaive is the predictor ablation: the last measured (c1, dl, ds)
// are used as constants — no metric features, no cost-vs-span coupling.
func (rt *Runtime) decideNaive(bootstrapInterval float64) (bool, error) {
	rt.charge(decisionOverhead)
	n := len(rt.result.Intervals)
	if n < 1 {
		return rt.elapsedWork() >= bootstrapInterval, nil
	}
	last := rt.result.Intervals[n-1]
	cur := rt.assembleParams(last.C1, last.DL, last.DS)
	wStar, _, iters := model.OptimalWorkSpanDynamic(cur, rt.prevParams, wMin, rt.prog.BaseTime())
	rt.lastWStar, rt.lastNRIters = wStar, iters
	rt.lastPred = [3]float64{last.C1, last.DL, last.DS}
	return wStar <= rt.effectiveW(), nil
}

// clampPrediction bounds the regression outputs by physical limits derived
// from the current dirty set: a delta-compressed checkpoint can never
// exceed the raw dirty bytes (plus the CPU blob), the compression latency
// is bounded by compressing that worst case, and the local write by writing
// it. Early stepwise fits extrapolate wildly outside their four bootstrap
// samples; these caps keep the decider's inputs sane without biasing
// converged predictions.
func (rt *Runtime) clampPrediction(m predictor.Metrics, c1, dl, ds float64) (float64, float64, float64) {
	rawCap := m.DP*float64(rt.as.PageSize()) + cpuStateBytes + 64
	if ds > rawCap {
		ds = rawCap
	}
	if maxDL := rt.cfg.System.CompressTime(int64(rawCap), int64(rawCap)); dl > maxDL {
		dl = maxDL
	}
	if maxC1 := rt.cfg.System.LocalDisk.TransferTime(int64(rawCap)); c1 > maxC1 {
		c1 = maxC1
	}
	return c1, dl, ds
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
	m := predictor.Metrics{
		DP: float64(rt.as.DirtyCount()),
		T:  rt.elapsedWork(),
	}
	samples := rt.sb.AtDecision()
	if len(samples) == 0 {
		return m
	}
	stride := 1
	if len(samples) > maxMetricPages {
		stride = (len(samples) + maxMetricPages - 1) / maxMetricPages
	}
	var jd, di float64
	n := 0
	for i := 0; i < len(samples); i += stride {
		e := samples[i]
		cur := rt.as.Page(e.Page)
		old := rt.builder.PrevPage(e.Page)
		if cur == nil || old == nil {
			continue
		}
		jd += predictor.JaccardDistance(cur, old)
		di += predictor.DivergenceIndex(cur)
		n++
	}
	if n > 0 {
		m.JD = jd / float64(n)
		m.DI = di / float64(n)
	}
	if rt.cfg.System.MetricBps > 0 {
		rt.charge(float64(n*rt.as.PageSize()) / rt.cfg.System.MetricBps)
	}
	return m
}

// assembleParams converts predicted/measured (c1, dl, ds) into model
// Params: c2 = c1 + dl + ds/B2 and c3 = c1 + dl + ds/B3 (the paper states
// c3 = ds/B2, an evident typo — compression must complete before the
// level-3 send and B3 is the remote bandwidth; see EXPERIMENTS.md).
func (rt *Runtime) assembleParams(c1, dl, ds float64) model.Params {
	b2 := rt.cfg.System.RAID5.BandwidthBps
	b3 := rt.cfg.System.Remote.BandwidthBps
	p := model.Params{Lambda: rt.cfg.Lambda}
	t2, t3 := 0.0, 0.0
	if b2 > 0 {
		t2 = ds / b2
	}
	if b3 > 0 {
		t3 = ds / b3
	}
	p.C = [3]float64{c1, c1 + dl + t2, c1 + dl + t3}
	p.R = p.C
	return p
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
	rec.W = math.Max(wMin, rt.effectiveW())
	rec.DirtyPages = dirty
	rec.Overhead = rt.overhead
	rec.WStar, rec.NRIters = rt.lastWStar, rt.lastNRIters
	rec.PredC1, rec.PredDL, rec.PredDS = rt.lastPred[0], rt.lastPred[1], rt.lastPred[2]
	cur := rt.assembleParams(c1, dl, ds)
	rec.C2, rec.C3 = cur.C[1], cur.C[2]
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
	rt.predC1.Observe(m, c1)
	rt.predDL.Observe(m, dl)
	rt.predDS.Observe(m, ds)

	rt.prevParams = cur
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
