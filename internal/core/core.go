// Package core implements the paper's primary contribution: the AIC runtime
// of Fig. 9. A Runtime attaches to a simulated process (workload + address
// space), tracks dirty pages through the write barrier, samples hot pages,
// predicts per-interval checkpoint costs online (stepwise regression +
// normalized gradient descent), and decides every second whether to take an
// incremental checkpoint whose delta compression and remote transfers run
// concurrently on a dedicated checkpointing core.
//
// The same Runtime executes the two baselines: SIC (static incremental
// checkpointing with compression at the L2L3-model-optimal fixed interval)
// and Moody (sequential periodic full checkpoints at the Moody-model
// optimum).
package core

import (
	"fmt"
	"math"

	"aic/internal/model"
	"aic/internal/stats"
	"aic/internal/storage"
)

// PolicyKind selects the checkpointing policy.
type PolicyKind int

// The three policies compared throughout Section V.
const (
	PolicyAIC   PolicyKind = iota // adaptive incremental checkpointing (this paper)
	PolicySIC                     // static incremental checkpointing with compression
	PolicyMoody                   // sequential periodic full checkpoints (baseline)
)

// String names the policy as the paper does.
func (p PolicyKind) String() string {
	switch p {
	case PolicyAIC:
		return "AIC"
	case PolicySIC:
		return "SIC"
	case PolicyMoody:
		return "Moody"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(p))
}

// CompressorKind selects the delta compressor for SIC/AIC checkpoints.
type CompressorKind int

// Compressor variants: Xdelta3-PA (the paper's, default), conventional
// whole-file Xdelta3 (the Table 3 comparator, which cannot support the
// online per-page prediction), and the XOR+RLE ablation baseline.
const (
	CompressorPA CompressorKind = iota
	CompressorWhole
	CompressorXOR
)

// String names the compressor.
func (c CompressorKind) String() string {
	switch c {
	case CompressorPA:
		return "xdelta3-pa"
	case CompressorWhole:
		return "xdelta3"
	case CompressorXOR:
		return "xor-rle"
	}
	return fmt.Sprintf("CompressorKind(%d)", int(c))
}

// Config parameterizes a run.
type Config struct {
	Policy PolicyKind
	System storage.System
	// Compressor selects the delta compressor (default Xdelta3-PA).
	Compressor CompressorKind
	// NaivePredictor replaces the stepwise+NGD predictor with last-value
	// prediction — the predictor ablation.
	NaivePredictor bool
	// FixedTg disables the sampler's adaptive grouping threshold and pins
	// it to the given value — the hot-page sampling ablation.
	FixedTg float64
	// Lambda is the per-level failure rate used for decisions and NET²
	// evaluation (the experiments use λ = 1e-3 split by Coastal shares).
	Lambda [3]float64
	// FixedInterval overrides the policy's checkpoint interval; 0 derives
	// it (SIC/Moody: from a profiling pre-run via the models; AIC uses it
	// only while bootstrapping the predictor).
	FixedInterval float64
	// FullEvery takes a full checkpoint in place of every N-th incremental
	// one (N > 0), bounding the restore chain as Section II.A suggests;
	// 0 keeps only the initial full checkpoint.
	FullEvery int
	// Seed drives nothing directly in core (workloads carry their own
	// RNGs) but is recorded with results.
	Seed uint64
}

// The runtime's fixed settings. The decider's work-span search runs from
// WMin up to the program's base time; WMin also floors every recorded span.
const (
	decisionPeriod    = 1.0    // AIC decision granularity (s)
	sampleBufferPages = 2048   // hot-page Sample Buffer bound: the paper's 8 MB
	cpuStateBytes     = 4096   // uncompressed CPU-state blob
	WMin              = 1.0    // shortest work span the decider considers (s)
	decisionOverhead  = 200e-6 // predictor evaluation + Newton–Raphson, per decision (s)
	// BootstrapInterval is the interval used when none is configured: a
	// handful of decision periods, so the predictors get their four
	// samples quickly while early checkpoints are cheap (small dirty sets).
	BootstrapInterval = 5 * decisionPeriod
	// maxMetricPages bounds how many sampled hot pages have JD/DI computed
	// per decision, keeping the per-second metric cost within the paper's
	// ≤ 2.6% overhead envelope.
	maxMetricPages = 64
)

// IntervalRecord captures one checkpoint interval's measurements — the
// c1(i), dl(i), ds(i) traces of Section V plus the decision diagnostics.
// It is the one interval record of every simulator: the Runtime, the
// coordinated MPI job (internal/mpi), the shared-core node
// (internal/cluster) and the Monte Carlo reference (internal/sim) all
// produce or replay it, and TraceNET2 scores it.
type IntervalRecord struct {
	Index int
	// Start and End are the interval's work-time span (end of previous c1
	// to start of this checkpoint's c1).
	Start, End float64
	// W is the model work span: the span minus the previous interval's
	// concurrent-transfer window.
	W float64
	// C1 is the local incremental checkpoint latency (process halted).
	C1 float64
	// DL and DS are the delta-compression latency and compressed size.
	DL float64
	DS float64
	// C2 and C3 are the level-2/3 completion latencies measured from
	// checkpoint start: c_k = c1 + dl + ds/B_k. They are also the level's
	// recovery times (r_k = c_k).
	C2, C3 float64
	// RawBytes is the uncompressed incremental checkpoint size.
	RawBytes int
	// DirtyPages is the predictor's DP metric at the decision point.
	DirtyPages int
	// Overhead is the computation-core time charged to AIC bookkeeping
	// during this interval (metrics + decisions).
	Overhead float64
	// WStar and NRIters record the decider's last w*_L and Newton–Raphson
	// iteration count (AIC only).
	WStar   float64
	NRIters int
	// PredC1, PredDL, PredDS are the predictor's estimates at decision
	// time (AIC only), for accuracy studies.
	PredC1, PredDL, PredDS float64
}

// Params assembles the interval's measured Params for the non-static model.
func (r IntervalRecord) Params(lambda [3]float64) model.Params {
	p := model.Params{Lambda: lambda, C: [3]float64{r.C1, r.C2, r.C3}}
	p.R = p.C
	return p
}

// RunResult is the outcome of one measured (failure-free) run.
type RunResult struct {
	Benchmark string
	Policy    PolicyKind
	BaseTime  float64 // work seconds executed
	WallTime  float64 // base + checkpoint halts + bookkeeping overhead
	Intervals []IntervalRecord
	// FullCheckpointBytes is the size of the initial full checkpoint.
	FullCheckpointBytes int
	// Interval is the fixed interval used (SIC/Moody) or the bootstrap
	// interval (AIC).
	Interval float64
	Seed     uint64
}

// OverheadFrac returns the no-failure execution time increase over the base
// time — Table 3's parenthesized percentages.
func (r *RunResult) OverheadFrac() float64 {
	if r.BaseTime == 0 {
		return 0
	}
	return (r.WallTime - r.BaseTime) / r.BaseTime
}

// MeanRatio returns the mean compressed-to-raw checkpoint size ratio across
// intervals (Table 3's compression ratio; lower is better).
func (r *RunResult) MeanRatio() float64 {
	var in, out float64
	for _, iv := range r.Intervals {
		in += float64(iv.RawBytes)
		out += iv.DS
	}
	if in == 0 {
		return 0
	}
	return out / in
}

// MeanDeltaLatency returns the mean dl across intervals.
func (r *RunResult) MeanDeltaLatency() float64 {
	if len(r.Intervals) == 0 {
		return 0
	}
	var sum float64
	for _, iv := range r.Intervals {
		sum += iv.DL
	}
	return sum / float64(len(r.Intervals))
}

// MeanParams returns the interval-averaged Params, the profile SIC and
// Moody feed their offline optimizers ("require the average checkpoint
// latency beforehand").
func (r *RunResult) MeanParams(lambda [3]float64) model.Params {
	var c1, c2, c3 []float64
	for _, iv := range r.Intervals {
		c1 = append(c1, iv.C1)
		c2 = append(c2, iv.C2)
		c3 = append(c3, iv.C3)
	}
	p := model.Params{Lambda: lambda}
	if len(c1) > 0 {
		p.C = [3]float64{stats.Mean(c1), stats.Mean(c2), stats.Mean(c3)}
	}
	p.R = p.C
	return p
}

// NET2 evaluates Eq. (1) on the measured run: TraceNET2 with the
// per-interval AIC bookkeeping overhead folded in. Moody runs are evaluated
// under the Moody period model instead.
func (r *RunResult) NET2(lambda [3]float64) (float64, error) {
	if r.Policy == PolicyMoody && len(r.Intervals) > 0 {
		return r.moodyNET2(lambda)
	}
	n, _, err := TraceNET2(r.Intervals, lambda)
	return n, err
}

// TraceNET2 evaluates Eq. (1), the normalized expected turnaround time
// Σ T_int(i) / Σ work(i), over a measured interval trace under the
// non-static L2L3 concurrent model: each interval's chain takes its own
// measured parameters and its predecessor's for the grey states. It returns
// NET² twice: with each interval's bookkeeping Overhead charged (a run's
// figure), and over the checkpoint costs alone (what the Monte Carlo in
// internal/sim replays). An empty trace scores 1.
func TraceNET2(recs []IntervalRecord, lambda [3]float64) (net2, costsOnly float64, err error) {
	if len(recs) == 0 {
		return 1, 1, nil
	}
	var total, costs, work float64
	// The initial checkpoint is pre-staged with job submission: the first
	// interval has no previous transfer window to re-run, only the initial
	// chain's recovery times.
	prev := recs[0].Params(lambda)
	prev.C = [3]float64{prev.C[0], prev.C[0], prev.C[0]}
	for i, rec := range recs {
		cur := rec.Params(lambda)
		iv, err := model.EvalL2L3Dynamic(rec.W, cur, prev)
		if err != nil {
			return 0, 0, fmt.Errorf("core: interval %d: %w", i, err)
		}
		total += iv.ExpectedTime + rec.Overhead
		costs += iv.ExpectedTime
		work += iv.Work
		prev = cur
	}
	if work <= 0 {
		return math.Inf(1), math.Inf(1), nil
	}
	return total / work, costs / work, nil
}

func (r *RunResult) moodyNET2(lambda [3]float64) (float64, error) {
	// The paper obtains Moody NET² from the Moody model code run on the
	// measured average checkpoint costs.
	p := r.MeanParams(lambda)
	res, err := model.OptimizeMoody(p, 1, math.Max(10, 50*r.BaseTime))
	if err != nil {
		return 0, err
	}
	return res.NET2, nil
}
