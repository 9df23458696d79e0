package sim

import (
	"math"
	"testing"

	"aic/internal/core"
	"aic/internal/failure"
	"aic/internal/storage"
	"aic/internal/workload"
)

func TestIntervalCostsSegmentsAndWork(t *testing.T) {
	iv := core.IntervalRecord{W: 10, C1: 1, C2: 5, C3: 11}
	both, one, full := segments(iv)
	if both != 4 || one != 6 || full != 10 {
		t.Fatalf("segments: %v %v %v", both, one, full)
	}
	if iv.W+full != 20 {
		t.Fatalf("work = %v", iv.W+full)
	}
}

// analyticNET2 is Eq. (1) over the checkpoint costs alone, the value the
// Monte Carlo estimates.
func analyticNET2(ivs []core.IntervalRecord, lambda [3]float64) (float64, error) {
	_, n, err := core.TraceNET2(ivs, lambda)
	return n, err
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

func TestNoFailuresReproducesDeterministicTime(t *testing.T) {
	ivs := []core.IntervalRecord{
		{W: 10, C1: 1, C2: 2, C3: 8},
		{W: 20, C1: 1, C2: 3, C3: 9},
	}
	res, err := MonteCarloNET2(ivs, [3]float64{}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Failure-free: each interval takes w + c3 exactly.
	want := (10.0 + 8) + (20 + 9)
	if math.Abs(res.MeanTime-want) > 1e-9 {
		t.Fatalf("mean time %v, want %v", res.MeanTime, want)
	}
	wantWork := (10.0 + 7) + (20 + 8)
	if math.Abs(res.Work-wantWork) > 1e-9 {
		t.Fatalf("work %v, want %v", res.Work, wantWork)
	}
	if math.Abs(res.NET2-want/wantWork) > 1e-12 {
		t.Fatalf("NET² %v", res.NET2)
	}
}

func TestErrors(t *testing.T) {
	if _, err := MonteCarloNET2(nil, [3]float64{}, 10, 1); err == nil {
		t.Fatal("empty intervals accepted")
	}
	if _, err := MonteCarloNET2([]core.IntervalRecord{{W: 1}}, [3]float64{}, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	if n, err := analyticNET2(nil, [3]float64{}); err != nil || n != 1 {
		t.Fatalf("empty analytic: %v %v", n, err)
	}
}

// The central cross-validation: the independent event-driven walk must
// agree with the Markov linear-system solution on the same interval costs.
func TestMonteCarloMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	lambda := [3]float64{2e-4, 1.2e-3, 2e-4}
	ivs := []core.IntervalRecord{
		{W: 40, C1: 2, C2: 8, C3: 60},
		{W: 25, C1: 1.5, C2: 6, C3: 45},
		{W: 60, C1: 3, C2: 10, C3: 90},
		{W: 10, C1: 1, C2: 4, C3: 20},
	}
	analytic, err := analyticNET2(ivs, lambda)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloNET2(ivs, lambda, 60000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-mc.NET2)/analytic > 0.02 {
		t.Fatalf("analytic %v vs Monte Carlo %v", analytic, mc.NET2)
	}
}

// Degenerate orderings (c2 > c3) must not break either estimator.
func TestDegenerateOrderingAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	lambda := [3]float64{5e-4, 5e-4, 5e-4}
	ivs := []core.IntervalRecord{
		{W: 30, C1: 2, C2: 25, C3: 10},
	}
	analytic, err := analyticNET2(ivs, lambda)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloNET2(ivs, lambda, 60000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-mc.NET2)/analytic > 0.03 {
		t.Fatalf("analytic %v vs MC %v", analytic, mc.NET2)
	}
}

// End-to-end: a real measured AIC run's Eq. (1) NET² must agree with the
// event-driven Monte Carlo on the same trace.
func TestEndToEndTraceValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	sys := storage.BenchSystem(1, int64(workload.ReferenceFootprintPages)*4096)
	lambda := failure.SplitRate(1e-3, failure.CoastalProportions())
	res, err := core.NewRuntime(workload.Sphinx3(42), core.Config{
		Policy: core.PolicyAIC, System: sys, Lambda: lambda,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ivs := res.Intervals
	analytic, err := analyticNET2(ivs, lambda)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloNET2(ivs, lambda, 30000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-mc.NET2)/analytic > 0.03 {
		t.Fatalf("Eq.(1) %v vs event-driven MC %v", analytic, mc.NET2)
	}
	// And the core-side evaluation (which adds bookkeeping overhead) sits
	// at or slightly above the pure-cost analytic value.
	coreN, err := res.NET2(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if coreN < analytic-1e-9 || coreN > analytic*1.05 {
		t.Fatalf("core NET² %v vs analytic %v", coreN, analytic)
	}
	pinned(t, "analytic NET²", analytic, 1.0511635343)
	pinned(t, "Monte Carlo NET²", mc.NET2, 1.05109274855)
	pinned(t, "core NET²", coreN, 1.05212550545)
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	ivs := []core.IntervalRecord{{W: 10, C1: 1, C2: 2, C3: 5}}
	lambda := [3]float64{1e-3, 1e-3, 1e-3}
	a, _ := MonteCarloNET2(ivs, lambda, 5000, 3)
	b, _ := MonteCarloNET2(ivs, lambda, 5000, 3)
	if a.NET2 != b.NET2 {
		t.Fatal("same seed must reproduce")
	}
}

func TestHigherFailureRateRaisesNET2(t *testing.T) {
	ivs := []core.IntervalRecord{
		{W: 40, C1: 2, C2: 8, C3: 60},
	}
	lo, _ := MonteCarloNET2(ivs, [3]float64{1e-4, 1e-4, 1e-4}, 20000, 5)
	hi, _ := MonteCarloNET2(ivs, [3]float64{1e-3, 1e-3, 1e-3}, 20000, 5)
	if hi.NET2 <= lo.NET2 {
		t.Fatalf("NET² must grow with failure rate: %v vs %v", lo.NET2, hi.NET2)
	}
}

func TestStandardErrorShrinksWithTrials(t *testing.T) {
	ivs := []core.IntervalRecord{{W: 40, C1: 2, C2: 8, C3: 60}}
	lambda := [3]float64{1e-3, 1e-3, 1e-3}
	small, _ := MonteCarloNET2(ivs, lambda, 500, 5)
	large, _ := MonteCarloNET2(ivs, lambda, 20000, 5)
	if small.NET2Err <= 0 || large.NET2Err <= 0 {
		t.Fatalf("standard errors: %v %v", small.NET2Err, large.NET2Err)
	}
	if large.NET2Err >= small.NET2Err {
		t.Fatalf("SE must shrink with trials: %v vs %v", small.NET2Err, large.NET2Err)
	}
	// The analytic value lies within a few SEs of the estimate.
	analytic, err := analyticNET2(ivs, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-large.NET2) > 5*large.NET2Err {
		t.Fatalf("analytic %v outside 5 SE of MC %v ± %v", analytic, large.NET2, large.NET2Err)
	}
}
