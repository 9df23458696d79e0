// Package aic is the public API of the AIC reproduction: adaptive
// incremental checkpointing with delta compression for networked multicore
// systems (Jangjaimon & Tzeng, IPDPS 2013).
//
// The package runs simulated processes under three checkpointing policies —
// AIC (the paper's adaptive mechanism), SIC (static incremental
// checkpointing with compression) and Moody (sequential multi-level
// checkpointing, the state-of-the-art baseline the paper compares against) —
// and evaluates the normalized expected turnaround time NET² with the
// paper's concurrent multi-level Markov model. It also exposes every
// experiment of the paper's evaluation section by name.
//
// Quick start:
//
//	report, err := aic.RunBenchmark("milc", aic.Options{Policy: aic.AIC})
//	...
//	fmt.Printf("NET² = %.4f\n", report.NET2)
//
// Custom workloads are described with a ProgramSpec (footprint, phase
// schedule, content mutation styles) and run with RunProgram.
package aic

import (
	"fmt"
	"math"

	"aic/internal/core"
	"aic/internal/exp"
	"aic/internal/failure"
	"aic/internal/sim"
	"aic/internal/storage"
	"aic/internal/workload"
)

// Policy selects the checkpointing policy.
type Policy int

// The three policies of the paper's evaluation.
const (
	AIC   Policy = iota // adaptive incremental checkpointing (the paper)
	SIC                 // static incremental checkpointing with compression
	Moody               // sequential periodic full checkpoints (baseline)
)

// String names the policy.
func (p Policy) String() string { return core.PolicyKind(p).String() }

// Compressor selects the delta compressor for AIC/SIC checkpoints.
type Compressor int

// Compressor variants.
const (
	Xdelta3PA Compressor = iota // page-aligned (the paper's Xdelta3-PA, default)
	Xdelta3                     // conventional whole-file delta
	XORRLE                      // XOR + run-length baseline
)

// String names the compressor.
func (c Compressor) String() string { return core.CompressorKind(c).String() }

// Options configures a run.
type Options struct {
	// Policy is the checkpointing policy (default AIC).
	Policy Policy
	// Scale is the system-size multiplier (default 1 = the Coastal
	// cluster profile); remote-storage bandwidth per node shrinks with it.
	Scale float64
	// FailureRate is the total failure rate λ in 1/s, split across levels
	// by the Coastal proportions (default 1e-3, the paper's Section V.C
	// setting).
	FailureRate float64
	// Seed makes runs deterministic (default 42).
	Seed uint64
	// FixedInterval overrides the checkpoint interval for SIC/Moody; 0
	// derives the optimum from the models (SIC profiles first).
	FixedInterval float64
	// Compressor selects the delta compressor (default Xdelta3PA).
	Compressor Compressor
	// FullCheckpointEvery replaces every N-th incremental checkpoint with a
	// full one, bounding restore chains (0 = only the initial full).
	FullCheckpointEvery int
}

// Validate rejects nonsensical option values with a descriptive error.
// Zero values are fine — they select defaults — but negative rates, NaN or
// infinite parameters, and unknown enum values indicate caller bugs better
// reported than silently "corrected". RunBenchmark and RunProgram call it.
func (o Options) Validate() error {
	if o.Policy < AIC || o.Policy > Moody {
		return fmt.Errorf("aic: unknown policy %d", int(o.Policy))
	}
	if o.Compressor < Xdelta3PA || o.Compressor > XORRLE {
		return fmt.Errorf("aic: unknown compressor %d", int(o.Compressor))
	}
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) || o.Scale < 0 {
		return fmt.Errorf("aic: invalid Scale %v (want a positive multiplier, or 0 for the default)", o.Scale)
	}
	if math.IsNaN(o.FailureRate) || math.IsInf(o.FailureRate, 0) || o.FailureRate < 0 {
		return fmt.Errorf("aic: invalid FailureRate %v (want λ ≥ 0 in 1/s, 0 for the default)", o.FailureRate)
	}
	if math.IsNaN(o.FixedInterval) || math.IsInf(o.FixedInterval, 0) || o.FixedInterval < 0 {
		return fmt.Errorf("aic: invalid FixedInterval %v (want seconds ≥ 0, 0 to derive the optimum)", o.FixedInterval)
	}
	if o.FullCheckpointEvery < 0 {
		return fmt.Errorf("aic: invalid FullCheckpointEvery %d (want ≥ 0)", o.FullCheckpointEvery)
	}
	return nil
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.FailureRate <= 0 {
		o.FailureRate = 1e-3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o Options) lambda() [3]float64 {
	return failure.SplitRate(o.FailureRate, failure.CoastalProportions())
}

func (o Options) system() storage.System {
	return exp.BenchSystem(o.Scale)
}

// Interval is one measured checkpoint interval of a run.
type Interval struct {
	Start, End   float64 // work-time span
	W            float64 // model work span
	C1           float64 // local checkpoint latency (s)
	DeltaLatency float64 // dl
	DeltaSize    float64 // ds (bytes)
	C2, C3       float64 // level-2/3 completion latencies
	DirtyPages   int
}

// Report is the outcome of a run: the per-interval trace, the no-failure
// execution accounting, and the Eq. (1) NET² evaluation.
type Report struct {
	Benchmark        string
	Policy           Policy
	BaseTime         float64 // virtual seconds of pure execution
	WallTime         float64 // plus checkpoint halts and bookkeeping
	OverheadPct      float64 // (WallTime-BaseTime)/BaseTime × 100
	CompressionRatio float64 // Σ ds / Σ raw (lower is better)
	NET2             float64 // normalized expected turnaround time
	Intervals        []Interval

	lambda [3]float64
	run    *core.RunResult
}

func buildReport(res *core.RunResult, lambda [3]float64) (*Report, error) {
	n, err := res.NET2(lambda)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Benchmark:        res.Benchmark,
		Policy:           Policy(res.Policy),
		BaseTime:         res.BaseTime,
		WallTime:         res.WallTime,
		OverheadPct:      100 * res.OverheadFrac(),
		CompressionRatio: res.MeanRatio(),
		NET2:             n,
		lambda:           lambda,
		run:              res,
	}
	for _, iv := range res.Intervals {
		rep.Intervals = append(rep.Intervals, Interval{
			Start: iv.Start, End: iv.End, W: iv.W,
			C1: iv.C1, DeltaLatency: iv.DL, DeltaSize: iv.DS,
			C2: iv.C2, C3: iv.C3, DirtyPages: iv.DirtyPages,
		})
	}
	return rep, nil
}

// RunBenchmark executes one of the six SPEC-like benchmarks (bzip2, sjeng,
// libquantum, milc, lbm, sphinx3) under the given options.
func RunBenchmark(name string, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalize()
	prog, err := workload.ByName(name, opts.Seed)
	if err != nil {
		return nil, err
	}
	fresh := func() (workload.Program, error) { return workload.ByName(name, opts.Seed) }
	return runProgram(prog, fresh, opts)
}

// runProgram executes prog; fresh builds independent instances for the
// profiling pre-run SIC requires.
func runProgram(prog workload.Program, fresh func() (workload.Program, error), opts Options) (*Report, error) {
	lambda := opts.lambda()
	cfg := core.Config{
		Policy:        core.PolicyKind(opts.Policy),
		System:        opts.system(),
		Lambda:        lambda,
		Seed:          opts.Seed,
		Compressor:    core.CompressorKind(opts.Compressor),
		FixedInterval: opts.FixedInterval,
		FullEvery:     opts.FullCheckpointEvery,
	}
	if opts.FixedInterval <= 0 {
		w, err := core.StaticInterval(cfg, prog, fresh)
		if err != nil {
			return nil, fmt.Errorf("aic: %w", err)
		}
		cfg.FixedInterval = w
	}
	res, err := core.NewRuntime(prog, cfg).Run()
	if err != nil {
		return nil, err
	}
	return buildReport(res, lambda)
}

// Validate cross-checks a report's Eq. (1) NET² against the independent
// event-driven Monte Carlo simulator on the same interval trace, returning
// both estimates over the checkpoint costs alone (the Monte Carlo replays
// no bookkeeping overhead). A Moody report is refused: its NET² comes from
// the Moody period model, not from the concurrent L2L3 chain the Monte
// Carlo walks.
func (r *Report) Validate(trials int, seed uint64) (analytic, empirical float64, err error) {
	if r.run == nil || len(r.run.Intervals) == 0 {
		return 0, 0, fmt.Errorf("aic: report has no interval trace")
	}
	if r.Policy == Moody {
		return 0, 0, fmt.Errorf("aic: a Moody report's NET² comes from the Moody period model, which the Monte Carlo does not replay")
	}
	_, analytic, err = core.TraceNET2(r.run.Intervals, r.lambda)
	if err != nil {
		return 0, 0, err
	}
	mc, err := sim.MonteCarloNET2(r.run.Intervals, r.lambda, trials, seed)
	if err != nil {
		return 0, 0, err
	}
	return analytic, mc.NET2, nil
}

// Experiments lists the reproducible tables and figures by name.
func Experiments() []string {
	names := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		names[i] = e.Name
	}
	return names
}

// RunExperiment reproduces one table or figure of the paper and returns its
// rendered report. Names follow Experiments().
func RunExperiment(name string, seed uint64) (string, error) {
	if seed == 0 {
		seed = 42
	}
	e, ok := exp.Lookup(name)
	if !ok {
		return "", fmt.Errorf("aic: unknown experiment %q (want one of %v)", name, Experiments())
	}
	return e.Text(seed)
}

// Benchmarks lists the built-in SPEC-like benchmark names.
func Benchmarks() []string { return exp.BenchmarkNames() }

// Improvement returns the relative NET² reduction of this report versus a
// baseline (positive = this report is better).
func (r *Report) Improvement(baseline *Report) float64 {
	if baseline == nil || baseline.NET2 == 0 || math.IsNaN(baseline.NET2) {
		return 0
	}
	return (baseline.NET2 - r.NET2) / baseline.NET2
}
