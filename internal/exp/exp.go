// Package exp implements every experiment of the paper's evaluation — one
// entry point per table and figure — on top of the core runtime, the
// analytic models, the workloads and the trace analyzer. The cmd tools and
// the repository benchmarks are thin wrappers over this package.
package exp

import (
	"fmt"

	"aic/internal/core"
	"aic/internal/failure"
	"aic/internal/storage"
	"aic/internal/workload"
)

// BenchmarkNames lists the six Table 3 benchmarks in paper order.
func BenchmarkNames() []string {
	return []string{"bzip2", "sjeng", "libquantum", "milc", "lbm", "sphinx3"}
}

// ExperimentLambda is the inflated failure rate of Section V.C (λ = 1e-3,
// split across levels by the Coastal proportions — the paper's "1.67%" for
// λ3 is an evident typo for 16.7%, the Coastal share).
func ExperimentLambda() [3]float64 {
	return failure.SplitRate(1e-3, failure.CoastalProportions())
}

// BenchSystem returns the benchmark system model at the given system-size
// scale.
func BenchSystem(scale float64) storage.System {
	return storage.BenchSystem(scale, int64(workload.ReferenceFootprintPages)*4096)
}

// runPolicy executes one benchmark under one policy, deriving fixed
// intervals the way Section V.A prescribes (SIC/Moody profile offline; AIC
// needs nothing).
func runPolicy(name string, policy core.PolicyKind, sys storage.System, lambda [3]float64, seed uint64, compressor core.CompressorKind) (*core.RunResult, error) {
	fresh := func() (workload.Program, error) { return workload.ByName(name, seed) }
	prog, err := fresh()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Policy:     policy,
		System:     sys,
		Lambda:     lambda,
		Seed:       seed,
		Compressor: compressor,
	}
	if cfg.FixedInterval, err = core.StaticInterval(cfg, prog, fresh); err != nil {
		return nil, fmt.Errorf("%v interval for %s: %w", policy, name, err)
	}
	return core.NewRuntime(prog, cfg).Run()
}

// PolicyNET2 runs the benchmark under the policy and evaluates Eq. (1).
func PolicyNET2(name string, policy core.PolicyKind, sys storage.System, lambda [3]float64, seed uint64) (float64, *core.RunResult, error) {
	res, err := runPolicy(name, policy, sys, lambda, seed, core.CompressorPA)
	if err != nil {
		return 0, nil, err
	}
	n, err := res.NET2(lambda)
	return n, res, err
}
