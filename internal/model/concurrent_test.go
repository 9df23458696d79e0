package model

import (
	"math"
	"testing"

	"aic/internal/markov"
	"aic/internal/numeric"
)

func TestCoastalProfile(t *testing.T) {
	p := Coastal()
	if p.C != [3]float64{0.5, 4.5, 1052} {
		t.Fatalf("c = %v", p.C)
	}
	if p.R != p.C {
		t.Fatal("r_k must equal c_k")
	}
	if total := p.Lambda[0] + p.Lambda[1] + p.Lambda[2]; math.Abs(total-2.4e-6) > 1e-12 {
		t.Fatalf("λ = %v", total)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := Coastal()
	p.Lambda[1] = -1
	if p.Validate() == nil {
		t.Fatal("negative rate accepted")
	}
	p = Coastal()
	p.C[2] = math.NaN()
	if p.Validate() == nil {
		t.Fatal("NaN latency accepted")
	}
}

func TestScaleMPI(t *testing.T) {
	p := Coastal().ScaleMPI(4)
	if math.Abs(p.Lambda[0]-8e-7) > 1e-18 || math.Abs(p.C[2]-4208) > 1e-9 {
		t.Fatalf("scaled: %+v", p)
	}
	if p.C[0] != 0.5 || p.C[1] != 4.5 {
		t.Fatal("c1/c2 must not scale")
	}
}

func TestScaleRMS(t *testing.T) {
	p := Coastal().ScaleRMS(4)
	if p.Lambda != Coastal().Lambda {
		t.Fatal("RMS scaling must not change λ")
	}
	if math.Abs(p.C[2]-4208) > 1e-9 {
		t.Fatalf("c3 = %v", p.C[2])
	}
}

func TestShareCheckpointCore(t *testing.T) {
	p := Coastal().ShareCheckpointCore(3)
	if math.Abs(p.C[1]-(0.5+3*4)) > 1e-12 {
		t.Fatalf("c2 = %v", p.C[1])
	}
	if math.Abs(p.C[2]-(0.5+3*1051.5)) > 1e-12 {
		t.Fatalf("c3 = %v", p.C[2])
	}
	if p.C[0] != 0.5 {
		t.Fatal("c1 must not change")
	}
	// SF below 1 clamps to 1.
	if Coastal().ShareCheckpointCore(0.5) != Coastal() {
		t.Fatal("SF < 1 should be identity")
	}
}

func TestClampSegments(t *testing.T) {
	p := Params{C: [3]float64{1, 5, 11}}
	both, one, full := clampSegments(p)
	if both != 4 || one != 6 || full != 10 {
		t.Fatalf("segments = %v %v %v", both, one, full)
	}
	// Degenerate: c2 > c3 (tiny delta, big compression latency).
	p = Params{C: [3]float64{1, 9, 5}}
	both, one, full = clampSegments(p)
	if both != 4 || one != 4 || full != 8 {
		t.Fatalf("degenerate segments = %v %v %v", both, one, full)
	}
	// c2 below c1 clamps to zero-length first phase.
	p = Params{C: [3]float64{2, 1, 6}}
	both, one, full = clampSegments(p)
	if both != 0 || one != 4 || full != 4 {
		t.Fatalf("clamped segments = %v %v %v", both, one, full)
	}
}

func TestNoFailureIntervalTimes(t *testing.T) {
	p := Coastal()
	p.Lambda = [3]float64{0, 0, 0}
	const w = 600
	for _, kind := range []ConcurrentKind{KindL1L3, KindL2L3, KindL1L2L3} {
		iv, err := kind.Eval(w, p)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		want := w + p.C[2] // w + c1 + (c3 - c1)
		if math.Abs(iv.ExpectedTime-want) > 1e-9 {
			t.Fatalf("%v: T = %v, want %v", kind, iv.ExpectedTime, want)
		}
		if math.Abs(iv.Work-(w+p.C[2]-p.C[0])) > 1e-9 {
			t.Fatalf("%v: work = %v", kind, iv.Work)
		}
		// Failure-free NET² barely exceeds 1 (only c1 blocks execution).
		if n := iv.NET2(); n < 1 || n > 1.01 {
			t.Fatalf("%v: NET² = %v", kind, n)
		}
	}
}

func TestIntervalNET2Degenerate(t *testing.T) {
	if !math.IsInf(Interval{ExpectedTime: 5}.NET2(), 1) {
		t.Fatal("zero work must give +Inf NET²")
	}
}

// The central correctness check: each analytic chain must agree with Monte
// Carlo simulation of the same chain under realistic failure rates.
func TestConcurrentChainsAnalyticVsMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// Inflate rates so failures actually occur within feasible trials.
	p := Coastal()
	p.Lambda = [3]float64{1e-4, 7.5e-4, 2e-5}
	const w = 1800
	rng := numeric.NewRNG(7)
	check := func(name string, ch *markov.Chain, start int) {
		analytic, err := ch.ExpectedTime(start)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mc, err := ch.Simulate(rng.Split(), start, 120000, 1<<22)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(analytic-mc)/analytic > 0.02 {
			t.Fatalf("%s: analytic %v vs MC %v", name, analytic, mc)
		}
	}
	ch, s, _ := L1L3Interval(w, p)
	check("L1L3", ch, s)
	ch, s, _ = L2L3Interval(w, p, p)
	check("L2L3", ch, s)
	ch, s, _ = L1L2L3Interval(w, p)
	check("L1L2L3", ch, s)
}

func TestDynamicIntervalUsesPrevParams(t *testing.T) {
	cur := Coastal()
	prev := Coastal()
	prev.R[2] = 5 * prev.R[2] // much costlier recovery from interval i-1
	// With non-trivial failure rates, higher prev recovery time must raise
	// the expected interval time.
	cur.Lambda = [3]float64{1e-4, 1e-4, 1e-4}
	prev.Lambda = cur.Lambda
	base, err := EvalL2L3Dynamic(1000, cur, cur)
	if err != nil {
		t.Fatal(err)
	}
	worse, err := EvalL2L3Dynamic(1000, cur, prev)
	if err != nil {
		t.Fatal(err)
	}
	if worse.ExpectedTime <= base.ExpectedTime {
		t.Fatalf("prev params ignored: %v <= %v", worse.ExpectedTime, base.ExpectedTime)
	}
}

func TestExpectedTimeGrowsWithFailureRate(t *testing.T) {
	p := Coastal()
	lo, err := EvalL2L3(1000, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Lambda = [3]float64{2e-5, 1.8e-4, 4e-5}
	hi, err := EvalL2L3(1000, p)
	if err != nil {
		t.Fatal(err)
	}
	if hi.ExpectedTime <= lo.ExpectedTime {
		t.Fatalf("monotonicity violated: %v <= %v", hi.ExpectedTime, lo.ExpectedTime)
	}
}

func TestEvalAllKindsAgreeWithoutFailures(t *testing.T) {
	// With zero failure rates, every configuration degenerates to the same
	// failure-free timeline, whatever its recovery topology.
	p := Coastal()
	p.Lambda = [3]float64{}
	var times []float64
	for _, kind := range []ConcurrentKind{KindL1L3, KindL2L3, KindL1L2L3} {
		iv, err := kind.Eval(700, p)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, iv.ExpectedTime)
	}
	for i := 1; i < len(times); i++ {
		if math.Abs(times[i]-times[0]) > 1e-9 {
			t.Fatalf("failure-free times diverge: %v", times)
		}
	}
}

func TestLongerWorkSpanMoreExposure(t *testing.T) {
	// With failures enabled, a longer work span raises the per-interval
	// expected time superlinearly (more exposure + larger rework).
	p := Coastal()
	p.Lambda = [3]float64{1e-4, 1e-4, 1e-4}
	short, err := EvalL2L3(500, p)
	if err != nil {
		t.Fatal(err)
	}
	long, err := EvalL2L3(5000, p)
	if err != nil {
		t.Fatal(err)
	}
	if long.ExpectedTime-short.ExpectedTime <= 4500 {
		t.Fatalf("no failure-exposure growth: %v vs %v", short.ExpectedTime, long.ExpectedTime)
	}
}

func TestEvalUnknownKind(t *testing.T) {
	if _, err := ConcurrentKind(9).Eval(100, Coastal()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
