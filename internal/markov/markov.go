// Package markov implements the absorbing Markov chain framework used by the
// paper's multi-level concurrent checkpointing models (Section III.C).
//
// A chain is a set of states, each with a planned duration. While a state is
// active, failures of k independent classes arrive as Poisson processes with
// per-class rates λ_j. If no failure arrives within the planned duration the
// chain follows the state's success edge; otherwise it follows the failure
// edge of the class that fired first. The expected time to absorption solves
// a linear system (one equation per state), exactly as in Vaidya's two-level
// recovery analysis which the paper builds on.
package markov

import (
	"errors"
	"fmt"
	"math"

	"aic/internal/numeric"
)

// Done is the absorbing destination: the interval (or period) completed.
const Done = -1

// Chain is a directed state graph under exponential failures. Build it with
// AddState/SetSuccess/SetFailure, then query ExpectedTime or Simulate.
type Chain struct {
	rates     []float64 // per failure class
	totalRate float64
	names     []string
	durations []float64
	succ      []int
	fail      [][]int
}

// New creates a chain whose failure classes have the given arrival rates.
// Rates may be zero (class disabled) but not negative.
func New(classRates []float64) *Chain {
	total := 0.0
	for _, r := range classRates {
		if r < 0 || math.IsNaN(r) {
			panic(fmt.Sprintf("markov: invalid failure rate %v", r))
		}
		total += r
	}
	return &Chain{
		rates:     append([]float64(nil), classRates...),
		totalRate: total,
	}
}

// AddState appends a state with the given planned duration and returns its
// id. Success and failure edges default to unset and must be assigned before
// solving (failure edges only for classes with positive rate).
func (c *Chain) AddState(name string, duration float64) int {
	if duration < 0 || math.IsNaN(duration) {
		panic(fmt.Sprintf("markov: state %q has invalid duration %v", name, duration))
	}
	id := len(c.durations)
	c.names = append(c.names, name)
	c.durations = append(c.durations, duration)
	c.succ = append(c.succ, math.MinInt32)
	fails := make([]int, len(c.rates))
	for i := range fails {
		fails[i] = math.MinInt32
	}
	c.fail = append(c.fail, fails)
	return id
}

// SetSuccess routes the no-failure transition of state id to dest
// (a state id or Done).
func (c *Chain) SetSuccess(id, dest int) { c.succ[id] = dest }

// SetFailure routes class-j failures in state id to dest.
func (c *Chain) SetFailure(id, class, dest int) { c.fail[id][class] = dest }

// SetAllFailures routes every failure class of state id to dest.
func (c *Chain) SetAllFailures(id, dest int) {
	for j := range c.fail[id] {
		c.fail[id][j] = dest
	}
}

func (c *Chain) validate() error {
	for s := range c.durations {
		if c.succ[s] == math.MinInt32 {
			return fmt.Errorf("markov: state %q has no success edge", c.names[s])
		}
		if c.succ[s] != Done && (c.succ[s] < 0 || c.succ[s] >= len(c.durations)) {
			return fmt.Errorf("markov: state %q success edge out of range", c.names[s])
		}
		for j, r := range c.rates {
			if r == 0 {
				continue
			}
			d := c.fail[s][j]
			if d == math.MinInt32 {
				return fmt.Errorf("markov: state %q missing failure edge for class %d", c.names[s], j)
			}
			if d != Done && (d < 0 || d >= len(c.durations)) {
				return fmt.Errorf("markov: state %q class-%d edge out of range", c.names[s], j)
			}
		}
	}
	return nil
}

// survive returns P(no failure within d) = e^{-Λd}.
func (c *Chain) survive(d float64) float64 {
	if c.totalRate == 0 || d == 0 {
		return 1
	}
	return math.Exp(-c.totalRate * d)
}

// expectedDwell returns E[min(X, d)] = (1 - e^{-Λd})/Λ, the expected time
// spent in a state of planned duration d.
func (c *Chain) expectedDwell(d float64) float64 {
	if c.totalRate == 0 {
		return d
	}
	return -math.Expm1(-c.totalRate*d) / c.totalRate
}

// ErrNotAbsorbing indicates the chain cannot reach Done from some state
// involved in the solve (the linear system is singular).
var ErrNotAbsorbing = errors.New("markov: chain does not reach absorption")

// ExpectedTime returns the expected time from state start until absorption,
// solving T_i = E[dwell_i] + Σ_j P(i→j)·T_j with T_Done = 0.
func (c *Chain) ExpectedTime(start int) (float64, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	n := len(c.durations)
	if start < 0 || start >= n {
		return 0, fmt.Errorf("markov: start state %d out of range", start)
	}
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		a[i][i] = 1
		d := c.durations[i]
		b[i] = c.expectedDwell(d)
		pSucc := c.survive(d)
		if dst := c.succ[i]; dst != Done {
			a[i][dst] -= pSucc
		}
		if c.totalRate > 0 {
			pFailTotal := -math.Expm1(-c.totalRate * d)
			for j, r := range c.rates {
				if r == 0 {
					continue
				}
				p := (r / c.totalRate) * pFailTotal
				if dst := c.fail[i][j]; dst != Done {
					a[i][dst] -= p
				}
			}
		}
	}
	x, err := numeric.SolveLinear(a, b)
	if err != nil {
		if errors.Is(err, numeric.ErrSingular) {
			return 0, ErrNotAbsorbing
		}
		return 0, err
	}
	return x[start], nil
}

// Simulate runs the chain trials times by Monte Carlo from start and returns
// the mean time to absorption. It is the cross-validation oracle for
// ExpectedTime. maxSteps bounds a single trial; exceeding it returns an
// error (a chain that cannot absorb).
//
//aiclint:ignore testonly the Monte Carlo oracle the markov and model tests check ExpectedTime against
func (c *Chain) Simulate(rng *numeric.RNG, start, trials, maxSteps int) (float64, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	var total numeric.KahanSum
	for trial := 0; trial < trials; trial++ {
		state := start
		elapsed := 0.0
		steps := 0
		for state != Done {
			if steps++; steps > maxSteps {
				return 0, fmt.Errorf("markov: trial exceeded %d steps without absorbing", maxSteps)
			}
			d := c.durations[state]
			if c.totalRate == 0 {
				elapsed += d
				state = c.succ[state]
				continue
			}
			x := rng.Exp(c.totalRate)
			if x >= d {
				elapsed += d
				state = c.succ[state]
				continue
			}
			elapsed += x
			// Pick the class that fired, proportional to rates.
			u := rng.Float64() * c.totalRate
			class := 0
			acc := 0.0
			for j, r := range c.rates {
				acc += r
				if u < acc {
					class = j
					break
				}
			}
			state = c.fail[state][class]
		}
		total.Add(elapsed)
	}
	return total.Value() / float64(trials), nil
}
