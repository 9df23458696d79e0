package predictor

import (
	"errors"
	"fmt"
	"math"

	"aic/internal/numeric"
)

// Model is a linear predictor over a stepwise-selected subset of the
// candidate features, refreshed online by normalized gradient descent.
type Model struct {
	Selected  []int     // candidate indices in use
	Weights   []float64 // [0] = intercept, then one per selected feature
	LearnRate float64   // normalized GD step size η ∈ (0, 1]
}

// design builds the model's input vector (with leading 1 for the intercept)
// from a full candidate vector.
func (m *Model) design(cands []float64) []float64 {
	x := make([]float64, 1+len(m.Selected))
	x[0] = 1
	for i, idx := range m.Selected {
		x[i+1] = cands[idx]
	}
	return x
}

// Predict evaluates the model at the given metrics.
func (m *Model) Predict(metrics Metrics) float64 {
	x := m.design(metrics.Candidates())
	var sum numeric.KahanSum
	for i, w := range m.Weights {
		sum.Add(w * x[i])
	}
	return sum.Value()
}

// Update applies one normalized gradient-descent step (Cesa-Bianchi et
// al.): w ← w + η·(y − ŷ)·x / ‖x‖², whose worst-case quadratic loss is
// bounded for any input sequence — the property that lets AIC learn online
// without profiling.
func (m *Model) Update(metrics Metrics, y float64) {
	x := m.design(metrics.Candidates())
	var pred, norm numeric.KahanSum
	for i, w := range m.Weights {
		pred.Add(w * x[i])
		norm.Add(x[i] * x[i])
	}
	n := norm.Value()
	if n == 0 {
		return
	}
	step := m.LearnRate * (y - pred.Value()) / n
	if !finite(step) {
		return // a poisoned observation must not contaminate the weights
	}
	for i := range m.Weights {
		m.Weights[i] += step * x[i]
	}
}

// ErrTooFewSamples reports a stepwise fit attempted before the bootstrap
// sample count is reached.
var ErrTooFewSamples = errors.New("predictor: too few samples for stepwise fit")

// ErrNonFinite reports NaN or ±Inf contaminating a fit's inputs or its
// solved coefficients. Measured metrics can go non-finite (a zero-duration
// interval's rate, an overflowed counter); letting them through would poison
// every weight and every later prediction silently.
var ErrNonFinite = errors.New("predictor: non-finite values in fit")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// rss returns the residual sum of squares of a least-squares fit over the
// given candidate subset, along with the fitted weights.
func rss(samples []Metrics, targets []float64, subset []int) (float64, []float64, error) {
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		if !finite(targets[i]) {
			return 0, nil, ErrNonFinite
		}
		c := s.Candidates()
		row := make([]float64, 1+len(subset))
		row[0] = 1
		for j, idx := range subset {
			if !finite(c[idx]) {
				return 0, nil, ErrNonFinite
			}
			row[j+1] = c[idx]
		}
		rows[i] = row
	}
	beta, err := numeric.LeastSquares(rows, targets)
	if err != nil {
		return 0, nil, err
	}
	for _, b := range beta {
		if !finite(b) {
			return 0, nil, ErrNonFinite
		}
	}
	var sum numeric.KahanSum
	for i, row := range rows {
		var pred numeric.KahanSum
		for j, b := range beta {
			pred.Add(b * row[j])
		}
		r := targets[i] - pred.Value()
		sum.Add(r * r)
	}
	return sum.Value(), beta, nil
}

// FitStepwise performs forward stepwise selection over the candidate
// features: starting from an intercept-only model, it greedily adds the
// candidate giving the largest residual-sum-of-squares reduction until
// maxTerms features are selected or no candidate improves the fit by more
// than 0.1%. The paper bootstraps with four samples and up to three terms.
func FitStepwise(samples []Metrics, targets []float64, maxTerms int, learnRate float64) (*Model, error) {
	if len(samples) != len(targets) {
		return nil, fmt.Errorf("predictor: %d samples vs %d targets", len(samples), len(targets))
	}
	if len(samples) < 2 || len(samples) < maxTerms+1 {
		return nil, ErrTooFewSamples
	}
	if learnRate <= 0 || learnRate > 1 {
		learnRate = 0.5
	}
	selected := []int{}
	bestRSS, bestBeta, err := rss(samples, targets, selected)
	if err != nil {
		return nil, err
	}
	used := make([]bool, NumCandidates)
	for len(selected) < maxTerms {
		improveIdx := -1
		improveRSS := bestRSS
		var improveBeta []float64
		for cand := 0; cand < NumCandidates; cand++ {
			if used[cand] {
				continue
			}
			trial := append(append([]int(nil), selected...), cand)
			r, beta, err := rss(samples, targets, trial)
			if err != nil {
				continue
			}
			if r < improveRSS {
				improveRSS, improveIdx, improveBeta = r, cand, beta
			}
		}
		if improveIdx < 0 || improveRSS > bestRSS*0.999 {
			break
		}
		selected = append(selected, improveIdx)
		used[improveIdx] = true
		bestRSS, bestBeta = improveRSS, improveBeta
	}
	return &Model{Selected: selected, Weights: bestBeta, LearnRate: learnRate}, nil
}

// Online wraps the bootstrap-then-learn lifecycle of one target variable
// (c1, dl or ds): it accumulates samples until the bootstrap threshold,
// fits the stepwise model once, then refines it with normalized GD on every
// subsequent observation. Before the model exists it predicts the running
// mean of the observed targets.
type Online struct {
	bootstrap int
	maxTerms  int
	learnRate float64
	samples   []Metrics
	targets   []float64
	model     *Model
	meanSum   numeric.KahanSum
	meanN     int
}

// NewOnline creates an online predictor. bootstrap ≤ 0 selects the paper's
// four samples; maxTerms ≤ 0 selects three.
func NewOnline(bootstrap, maxTerms int, learnRate float64) *Online {
	if bootstrap <= 0 {
		bootstrap = 4
	}
	if maxTerms <= 0 {
		maxTerms = 3
	}
	return &Online{bootstrap: bootstrap, maxTerms: maxTerms, learnRate: learnRate}
}

// Ready reports whether the stepwise model has been established.
func (o *Online) Ready() bool { return o.model != nil }

// Observe feeds a measured (metrics, target) pair back into the predictor.
// Pairs carrying NaN or ±Inf are dropped whole: one bad measurement must
// not poison the bootstrap fit, the running mean, or the online weights.
func (o *Online) Observe(m Metrics, y float64) {
	if !finite(y) {
		return
	}
	for _, c := range m.Candidates() {
		if !finite(c) {
			return
		}
	}
	o.meanSum.Add(y)
	o.meanN++
	if o.model != nil {
		o.model.Update(m, y)
		return
	}
	o.samples = append(o.samples, m)
	o.targets = append(o.targets, y)
	if len(o.samples) >= o.bootstrap {
		model, err := FitStepwise(o.samples, o.targets, o.maxTerms, o.learnRate)
		if err == nil {
			o.model = model
			o.samples, o.targets = nil, nil
		}
	}
}

// Predict estimates the target at the given metrics. Predictions are
// clamped to be non-negative, as every target (latency, size) is.
func (o *Online) Predict(m Metrics) float64 {
	var y float64
	if o.model != nil {
		y = o.model.Predict(m)
	} else if o.meanN > 0 {
		y = o.meanSum.Value() / float64(o.meanN)
	}
	return math.Max(0, y)
}
