package mpi

import (
	"math"
	"testing"

	"aic/internal/failure"
	"aic/internal/storage"
	"aic/internal/workload"
)

func testConfig(policy Policy, ranks int) Config {
	perRank := failure.SplitRate(1e-3/4, failure.CoastalProportions())
	return Config{
		System:        storage.BenchSystem(1, int64(workload.ReferenceFootprintPages)*4096),
		Policy:        policy,
		Ranks:         ranks,
		LambdaPerRank: perRank,
		Interval:      20,
		Seed:          5,
		NewProgram: func(rank int, seed uint64) workload.Program {
			return workload.Sphinx3(seed)
		},
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

func TestValidation(t *testing.T) {
	cfg := testConfig(CoordinatedSIC, 0)
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero ranks accepted")
	}
	cfg = testConfig(CoordinatedSIC, 2)
	cfg.NewProgram = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing factory accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	if CoordinatedSIC.String() != "coordinated-SIC" || CoordinatedAIC.String() != "coordinated-AIC" {
		t.Fatal("names")
	}
}

func TestJobLambdaScalesWithRanks(t *testing.T) {
	cfg := testConfig(CoordinatedSIC, 8)
	job := cfg.JobLambda()
	for i := range job {
		if job[i] != cfg.LambdaPerRank[i]*8 {
			t.Fatalf("job λ[%d] = %v", i, job[i])
		}
	}
}

func TestCoordinatedRunBasics(t *testing.T) {
	res, err := Run(testConfig(CoordinatedSIC, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != 4 || res.Policy != CoordinatedSIC {
		t.Fatalf("header: %+v", res)
	}
	if len(res.Intervals) < 5 {
		t.Fatalf("only %d coordinated checkpoints", len(res.Intervals))
	}
	if res.NET2 < 1 {
		t.Fatalf("NET² = %v", res.NET2)
	}
	if res.WallTime <= res.BaseTime {
		t.Fatal("coordinated halts must add wall time")
	}
	pinned(t, "coordinated-SIC NET²", res.NET2, 1.06345762943)
	pinned(t, "coordinated-SIC wall time", res.WallTime, 776.127893333)
	for i, iv := range res.Intervals {
		// Every coordinated c1 carries the coordination cost.
		if iv.C1 < 0.2 {
			t.Fatalf("interval %d: c1 %v below coordination cost", i, iv.C1)
		}
		if iv.C3 < iv.C2 || iv.C2 < iv.C1 {
			t.Fatalf("interval %d malformed: %+v", i, iv)
		}
	}
}

func TestMoreRanksRaiseNET2(t *testing.T) {
	small, err := Run(testConfig(CoordinatedSIC, 1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(testConfig(CoordinatedSIC, 16))
	if err != nil {
		t.Fatal(err)
	}
	// 16× the job failure rate and a slowest-rank barrier: NET² must grow.
	if big.NET2 <= small.NET2 {
		t.Fatalf("NET² must grow with ranks: %v vs %v", small.NET2, big.NET2)
	}
}

func TestCoordinatedAICCompetitive(t *testing.T) {
	sic, err := Run(testConfig(CoordinatedSIC, 4))
	if err != nil {
		t.Fatal(err)
	}
	aic, err := Run(testConfig(CoordinatedAIC, 4))
	if err != nil {
		t.Fatal(err)
	}
	if aic.NET2 < 1 {
		t.Fatalf("AIC NET² = %v", aic.NET2)
	}
	pinned(t, "coordinated-AIC NET²", aic.NET2, 1.0620591915)
	// The adaptive extension must at least stay in SIC's neighbourhood
	// (within 5%) — the paper's deferred design, implemented here, has the
	// same degenerate regime at 1× as single-process AIC.
	if aic.NET2 > sic.NET2*1.05 {
		t.Fatalf("coordinated AIC %v far above SIC %v", aic.NET2, sic.NET2)
	}
}

func TestHeterogeneousRanks(t *testing.T) {
	cfg := testConfig(CoordinatedSIC, 3)
	cfg.NewProgram = func(rank int, seed uint64) workload.Program {
		if rank == 0 {
			return workload.Bzip2(seed)
		}
		return workload.Sphinx3(seed)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Base time is the slowest rank's.
	if res.BaseTime != 749 {
		t.Fatalf("base = %v, want sphinx3's 749", res.BaseTime)
	}
}
