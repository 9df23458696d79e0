package exp

import (
	"fmt"

	"aic/internal/core"
	"aic/internal/par"
	"aic/internal/trace"
	"aic/internal/workload"
)

// Table1Rows reproduces Table 1 via the trace package.
func Table1Rows(numJobs int, seed uint64) ([]trace.Table1Row, error) {
	if numJobs <= 0 {
		numJobs = 4000
	}
	return trace.Table1(numJobs, seed)
}

// Table3Row is one benchmark row of Table 3.
type Table3Row struct {
	Benchmark string
	BaseTime  float64
	// Compression columns under SIC: conventional whole-file Xdelta3
	// versus the page-aligned Xdelta3-PA.
	RatioXdelta3   float64
	RatioPA        float64
	LatencyXdelta3 float64 // mean delta latency (s)
	LatencyPA      float64
	// AIC execution columns: virtual wall time without failures and its
	// increase over the base time.
	AICTime        float64
	AICOverheadPct float64
}

// Table3 reproduces the benchmark/compressor characterization. The six
// benchmark rows are computed in parallel (each cell is an independent
// deterministic simulation).
func Table3(seed uint64) ([]Table3Row, error) {
	sys := BenchSystem(1)
	lambda := ExperimentLambda()
	names := BenchmarkNames()
	rows := make([]Table3Row, len(names))
	err := par.For(0, len(names), func(_, i int) error {
		name := names[i]
		prog, err := workload.ByName(name, seed)
		if err != nil {
			return err
		}
		row := Table3Row{Benchmark: name, BaseTime: prog.BaseTime()}

		pa, err := runPolicy(name, core.PolicySIC, sys, lambda, seed, core.CompressorPA)
		if err != nil {
			return fmt.Errorf("%s PA: %w", name, err)
		}
		row.RatioPA = pa.MeanRatio()
		row.LatencyPA = pa.MeanDeltaLatency()

		whole, err := runPolicy(name, core.PolicySIC, sys, lambda, seed, core.CompressorWhole)
		if err != nil {
			return fmt.Errorf("%s whole: %w", name, err)
		}
		row.RatioXdelta3 = whole.MeanRatio()
		row.LatencyXdelta3 = whole.MeanDeltaLatency()

		aic, err := runPolicy(name, core.PolicyAIC, sys, lambda, seed, core.CompressorPA)
		if err != nil {
			return fmt.Errorf("%s AIC: %w", name, err)
		}
		row.AICTime = aic.WallTime
		row.AICOverheadPct = 100 * aic.OverheadFrac()

		rows[i] = row
		return nil
	})
	return rows, err
}

// Fig11Row is one benchmark of Fig. 11: NET² under the three policies.
type Fig11Row struct {
	Benchmark string
	AIC       float64
	SIC       float64
	Moody     float64
}

// Fig11 compares AIC, SIC and Moody on the six benchmarks at 1× scale,
// fanning the 18 policy runs out across the machine.
func Fig11(seed uint64) ([]Fig11Row, error) {
	sys := BenchSystem(1)
	lambda := ExperimentLambda()
	names := BenchmarkNames()
	policies := []core.PolicyKind{core.PolicyAIC, core.PolicySIC, core.PolicyMoody}
	rows := make([]Fig11Row, len(names))
	for i, name := range names {
		rows[i].Benchmark = name
	}
	err := par.For(0, len(names)*len(policies), func(_, k int) error {
		name := names[k/len(policies)]
		policy := policies[k%len(policies)]
		n, _, err := PolicyNET2(name, policy, sys, lambda, seed)
		if err != nil {
			return fmt.Errorf("%s/%v: %w", name, policy, err)
		}
		switch policy {
		case core.PolicyAIC:
			rows[k/len(policies)].AIC = n
		case core.PolicySIC:
			rows[k/len(policies)].SIC = n
		case core.PolicyMoody:
			rows[k/len(policies)].Moody = n
		}
		return nil
	})
	return rows, err
}

// Fig12Row is one system scale of Fig. 12 (Milc, AIC vs SIC).
type Fig12Row struct {
	Scale float64
	AIC   float64
	SIC   float64
}

// DefaultFig12Scales are the 0.25×–4× scales of Fig. 12.
func DefaultFig12Scales() []float64 { return []float64{0.25, 0.5, 1, 2, 4} }

// Fig12 compares AIC and SIC on Milc across system scales; under RMS
// scaling only the remote bandwidth per node changes.
func Fig12(seed uint64, scales []float64) ([]Fig12Row, error) {
	if len(scales) == 0 {
		scales = DefaultFig12Scales()
	}
	lambda := ExperimentLambda()
	rows := make([]Fig12Row, len(scales))
	for i, scale := range scales {
		rows[i].Scale = scale
	}
	err := par.For(0, len(scales), func(_, i int) error {
		sys := BenchSystem(scales[i])
		var err error
		if rows[i].AIC, _, err = PolicyNET2("milc", core.PolicyAIC, sys, lambda, seed); err != nil {
			return err
		}
		rows[i].SIC, _, err = PolicyNET2("milc", core.PolicySIC, sys, lambda, seed)
		return err
	})
	return rows, err
}
