package model

import (
	"fmt"
	"math"

	"aic/internal/numeric"
)

// ConcurrentKind selects which concurrent chain configuration to evaluate.
type ConcurrentKind int

// The three concurrent configurations of Fig. 4 (L3 is always enabled).
const (
	KindL1L3 ConcurrentKind = iota
	KindL2L3
	KindL1L2L3
)

// String names the configuration as the paper does.
func (k ConcurrentKind) String() string {
	switch k {
	case KindL1L3:
		return "L1L3"
	case KindL2L3:
		return "L2L3"
	case KindL1L2L3:
		return "L1L2L3"
	}
	return fmt.Sprintf("ConcurrentKind(%d)", int(k))
}

// Eval evaluates the configuration's interval at work span w.
func (k ConcurrentKind) Eval(w float64, p Params) (Interval, error) {
	switch k {
	case KindL1L3:
		return EvalL1L3(w, p)
	case KindL2L3:
		return EvalL2L3(w, p)
	case KindL1L2L3:
		return EvalL1L2L3(w, p)
	}
	return Interval{}, fmt.Errorf("model: unknown kind %d", int(k))
}

// ConcurrentResult is the outcome of the concurrent-model work-span search.
type ConcurrentResult struct {
	Kind ConcurrentKind
	W    float64 // optimal work span w*
	NET2 float64
}

// logGoldenSection minimizes obj over [lo, hi] in log-space, seeded by a
// coarse grid so locally non-unimodal objectives still land in the right
// basin. It returns the located argmin and value.
func logGoldenSection(obj func(float64) float64, lo, hi float64) (float64, float64) {
	if lo <= 0 {
		lo = 1e-3
	}
	if hi <= lo {
		hi = lo * 10
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	const gridN = 24
	bestX, bestF := lo, obj(lo)
	for i := 0; i <= gridN; i++ {
		x := math.Exp(logLo + (logHi-logLo)*float64(i)/gridN)
		if f := obj(x); f < bestF {
			bestX, bestF = x, f
		}
	}
	// Refine around the best grid cell.
	span := (logHi - logLo) / gridN
	a := math.Exp(math.Max(logLo, math.Log(bestX)-span))
	b := math.Exp(math.Min(logHi, math.Log(bestX)+span))
	x, f := numeric.GoldenSection(func(lw float64) float64 {
		return obj(math.Exp(lw))
	}, math.Log(a), math.Log(b), 1e-6)
	x = math.Exp(x)
	if f < bestF {
		return x, f
	}
	return bestX, bestF
}

// OptimizeConcurrent searches the work span w ∈ [wLo, wHi] minimizing NET²
// for the given configuration, the static analogue of the paper's offline
// search ("this can be done numerically, like in earlier work").
func OptimizeConcurrent(kind ConcurrentKind, p Params, wLo, wHi float64) (ConcurrentResult, error) {
	if err := p.Validate(); err != nil {
		return ConcurrentResult{}, err
	}
	obj := func(w float64) float64 {
		iv, err := kind.Eval(w, p)
		if err != nil {
			return math.Inf(1)
		}
		return iv.NET2()
	}
	w, net2 := logGoldenSection(obj, wLo, wHi)
	if math.IsInf(net2, 1) {
		return ConcurrentResult{}, fmt.Errorf("model: %v search found no feasible point", kind)
	}
	return ConcurrentResult{Kind: kind, W: w, NET2: net2}, nil
}

// WorkSpan is one w*_L search's outcome: w*_L, NET² there, the
// Newton–Raphson iteration count, and the searched objective.
type WorkSpan struct {
	W, NET2 float64
	NRIters int
	NET2At  func(w float64) float64 // NET² of the interval at work span w
}

// OptimalWorkSpanDynamic computes the paper's per-decision local optimum
// w*_L for the non-static L2L3 model (Section III.E): NET² at both search
// boundaries and at the Newton–Raphson stationary point are compared per the
// Extreme Value Theorem; the argmin is returned along with the NR iteration
// count (bounded by 200 in the paper, and observed < 5 in practice). cur
// gives the interval's params at each candidate span w — AIC's predicted
// costs grow with it — and prev the previous interval's, for the grey
// states. It is the one w*_L search every decider runs.
func OptimalWorkSpanDynamic(cur func(w float64) Params, prev Params, wLo, wHi float64) WorkSpan {
	obj := func(w float64) float64 {
		iv, err := EvalL2L3Dynamic(w, cur(w), prev)
		if err != nil {
			return math.Inf(1)
		}
		return iv.NET2()
	}
	w, net2, iters := numeric.MinimizeEVT(obj, wLo, wHi, 200)
	return WorkSpan{W: w, NET2: net2, NRIters: iters, NET2At: obj}
}
