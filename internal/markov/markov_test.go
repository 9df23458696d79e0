package markov

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"aic/internal/numeric"
)

func TestNoFailureChainIsSumOfDurations(t *testing.T) {
	c := New([]float64{0})
	s1 := c.AddState("a", 2)
	s2 := c.AddState("b", 3)
	c.SetSuccess(s1, s2)
	c.SetSuccess(s2, Done)
	got, err := c.ExpectedTime(s1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("ExpectedTime = %v, want 5", got)
	}
}

// Classic single-state retry: work of length d, failure rate λ, restart on
// failure. E[T] = (e^{λd} - 1)/λ, a standard checkpointing result.
func TestSingleStateRetryClosedForm(t *testing.T) {
	const lambda, d = 0.01, 30.0
	c := New([]float64{lambda})
	s := c.AddState("work", d)
	c.SetSuccess(s, Done)
	c.SetFailure(s, 0, s)
	got, err := c.ExpectedTime(s)
	if err != nil {
		t.Fatal(err)
	}
	want := (math.Exp(lambda*d) - 1) / lambda
	if math.Abs(got-want)/want > 1e-10 {
		t.Fatalf("E[T] = %v, want %v", got, want)
	}
}

// Work + recovery state: failure during work enters a recovery state of
// length r that itself can fail.
func TestWorkRecoveryChainMatchesManualSolve(t *testing.T) {
	const lambda, d, r = 0.02, 10.0, 4.0
	c := New([]float64{lambda})
	w := c.AddState("work", d)
	rec := c.AddState("recover", r)
	c.SetSuccess(w, Done)
	c.SetFailure(w, 0, rec)
	c.SetSuccess(rec, w)
	c.SetFailure(rec, 0, rec)
	got, err := c.ExpectedTime(w)
	if err != nil {
		t.Fatal(err)
	}
	// Manual solve: Tw = Ew + (1-pw)·Tr ; Tr = Er + (1-pr)·Tr + pr·Tw
	pw := math.Exp(-lambda * d)
	pr := math.Exp(-lambda * r)
	ew := -math.Expm1(-lambda*d) / lambda
	er := -math.Expm1(-lambda*r) / lambda
	// Tr = (Er + pr·Tw)/pr ... solve the 2x2 by hand:
	// Tw = Ew + (1-pw)·Tr
	// Tr = Er + (1-pr)·Tr + pr·Tw  =>  Tr·pr = Er + pr·Tw  => Tr = Er/pr + Tw
	// Tw = Ew + (1-pw)(Er/pr + Tw) => Tw(1-(1-pw)) = Ew + (1-pw)Er/pr
	want := (ew + (1-pw)*er/pr) / pw
	if math.Abs(got-want)/want > 1e-10 {
		t.Fatalf("E[T] = %v, want %v", got, want)
	}
}

func TestTwoClassesRouteSeparately(t *testing.T) {
	c := New([]float64{0.01, 0.03})
	w := c.AddState("work", 20)
	r1 := c.AddState("r1", 1)
	r2 := c.AddState("r2", 50)
	c.SetSuccess(w, Done)
	c.SetFailure(w, 0, r1)
	c.SetFailure(w, 1, r2)
	c.SetSuccess(r1, w)
	c.SetAllFailures(r1, r2)
	c.SetSuccess(r2, w)
	c.SetAllFailures(r2, r2)
	analytic, err := c.ExpectedTime(w)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := c.Simulate(numeric.NewRNG(1), w, 200000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-mc)/analytic > 0.02 {
		t.Fatalf("analytic %v vs monte carlo %v diverge", analytic, mc)
	}
}

func TestZeroDurationStatePassesThrough(t *testing.T) {
	c := New([]float64{0.5})
	a := c.AddState("a", 0)
	b := c.AddState("b", 1)
	c.SetSuccess(a, b)
	c.SetAllFailures(a, a)
	c.SetSuccess(b, Done)
	c.SetAllFailures(b, b)
	got, err := c.ExpectedTime(a)
	if err != nil {
		t.Fatal(err)
	}
	want := (math.Exp(0.5) - 1) / 0.5
	if math.Abs(got-want) > 1e-10 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestValidationErrors(t *testing.T) {
	c := New([]float64{1})
	s := c.AddState("s", 1)
	if _, err := c.ExpectedTime(s); err == nil {
		t.Fatal("expected error: no success edge")
	}
	c.SetSuccess(s, Done)
	if _, err := c.ExpectedTime(s); err == nil {
		t.Fatal("expected error: missing failure edge")
	}
	c.SetFailure(s, 0, 99)
	if _, err := c.ExpectedTime(s); err == nil {
		t.Fatal("expected error: out-of-range failure edge")
	}
	c.SetFailure(s, 0, s)
	if _, err := c.ExpectedTime(7); err == nil {
		t.Fatal("expected error: bad start state")
	}
	if _, err := c.ExpectedTime(s); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestNonAbsorbingChainDetected(t *testing.T) {
	c := New([]float64{0})
	a := c.AddState("a", 1)
	b := c.AddState("b", 1)
	c.SetSuccess(a, b)
	c.SetSuccess(b, a)
	if _, err := c.ExpectedTime(a); !errors.Is(err, ErrNotAbsorbing) {
		t.Fatalf("err = %v, want ErrNotAbsorbing", err)
	}
}

func TestSimulateMatchesClosedForm(t *testing.T) {
	const lambda, d = 0.05, 15.0
	c := New([]float64{lambda})
	s := c.AddState("work", d)
	c.SetSuccess(s, Done)
	c.SetFailure(s, 0, s)
	want := (math.Exp(lambda*d) - 1) / lambda
	got, err := c.Simulate(numeric.NewRNG(42), s, 300000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("MC %v vs closed form %v", got, want)
	}
}

func TestSimulateStepBound(t *testing.T) {
	// Chain where absorption requires surviving an essentially impossible
	// state: the step bound must fire rather than hanging.
	c := New([]float64{100})
	s := c.AddState("doomed", 1000)
	c.SetSuccess(s, Done)
	c.SetFailure(s, 0, s)
	if _, err := c.Simulate(numeric.NewRNG(1), s, 1, 1000); err == nil {
		t.Fatal("expected step-bound error")
	}
}

// Property: for random small chains that structurally reach Done, the
// analytic expectation matches Monte Carlo within a loose statistical bound.
// This is the central correctness anchor for every model built on markov.
func TestAnalyticMatchesMonteCarloProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical property test")
	}
	rng := numeric.NewRNG(2024)
	f := func(seed uint32) bool {
		r := numeric.NewRNG(uint64(seed))
		nStates := 2 + r.Intn(4)
		rates := []float64{0.002 + 0.01*r.Float64(), 0.002 + 0.01*r.Float64()}
		c := New(rates)
		ids := make([]int, nStates)
		for i := range ids {
			ids[i] = c.AddState("s", 1+20*r.Float64())
		}
		// Chain forward: each success goes to the next state (last to Done);
		// failures go to a random earlier-or-same state, guaranteeing
		// progress structure similar to checkpoint recovery loops.
		for i, id := range ids {
			if i == nStates-1 {
				c.SetSuccess(id, Done)
			} else {
				c.SetSuccess(id, ids[i+1])
			}
			for class := 0; class < 2; class++ {
				c.SetFailure(id, class, ids[r.Intn(i+1)])
			}
		}
		analytic, err := c.ExpectedTime(ids[0])
		if err != nil {
			return false
		}
		mc, err := c.Simulate(rng.Split(), ids[0], 60000, 1<<22)
		if err != nil {
			return false
		}
		return math.Abs(analytic-mc)/analytic < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDOTExport(t *testing.T) {
	c := New([]float64{0.01, 0.02})
	w := c.AddState("work", 10)
	r := c.AddState("recover", 2)
	c.SetSuccess(w, Done)
	c.SetFailure(w, 0, r)
	c.SetFailure(w, 1, r)
	c.SetSuccess(r, w)
	c.SetAllFailures(r, r)
	dot := c.DOT("test-chain")
	for _, want := range []string{"digraph", "work", "recover", "done", "fail", "ok"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Merged failure edges: both classes point to r, so exactly one dashed
	// edge leaves the work state.
	if strings.Count(dot, "s0 -> s1 [style=dashed") != 1 {
		t.Fatalf("failure edges not merged:\n%s", dot)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	c := New([]float64{0.01, 0.02, 0.005})
	s := c.AddState("s", 25)
	c.SetSuccess(s, Done)
	c.SetAllFailures(s, s)
	pSucc, pFail := c.probabilities(s)
	sum := pSucc
	for _, p := range pFail {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Failure shares follow the rate proportions.
	if math.Abs(pFail[1]/pFail[0]-2) > 1e-9 {
		t.Fatalf("class shares: %v", pFail)
	}
}

func TestProbabilitiesZeroRate(t *testing.T) {
	c := New([]float64{0})
	s := c.AddState("s", 5)
	c.SetSuccess(s, Done)
	pSucc, pFail := c.probabilities(s)
	if pSucc != 1 || pFail[0] != 0 {
		t.Fatalf("zero-rate probabilities: %v %v", pSucc, pFail)
	}
}
