package predictor

import (
	"errors"
	"math"
	"testing"
)

func allFinite(ws []float64) bool {
	for _, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return false
		}
	}
	return true
}

// TestFitStepwiseEdgeCases drives the bootstrap fit through the degenerate
// sample sets an online system actually produces: too little data, linearly
// dependent features, constant targets, and measurement garbage (NaN/Inf).
// The contract under test: either a usable model with finite coefficients,
// or a clean error — never NaN weights.
func TestFitStepwiseEdgeCases(t *testing.T) {
	mk := func(dp, tt, jd, di float64) Metrics { return Metrics{DP: dp, T: tt, JD: jd, DI: di} }
	cases := []struct {
		name     string
		samples  []Metrics
		targets  []float64
		maxTerms int
		wantErr  error // nil = fit must succeed
	}{
		{
			name:     "fewer samples than bootstrap",
			samples:  []Metrics{mk(1, 1, 0, 0), mk(2, 1, 0, 0), mk(3, 1, 0, 0)},
			targets:  []float64{1, 2, 3},
			maxTerms: 3,
			wantErr:  ErrTooFewSamples,
		},
		{
			name:     "single sample",
			samples:  []Metrics{mk(1, 1, 0, 0)},
			targets:  []float64{1},
			maxTerms: 1,
			wantErr:  ErrTooFewSamples,
		},
		{
			name: "collinear features",
			// T is exactly 2·DP everywhere, so the candidate matrix is
			// rank-deficient; the ridge-stabilized solver must still return
			// finite coefficients.
			samples:  []Metrics{mk(1, 2, 0, 0), mk(2, 4, 0, 0), mk(3, 6, 0, 0), mk(4, 8, 0, 0), mk(5, 10, 0, 0)},
			targets:  []float64{3, 5, 7, 9, 11},
			maxTerms: 3,
		},
		{
			name:     "identical samples",
			samples:  []Metrics{mk(2, 3, 0.5, 0.5), mk(2, 3, 0.5, 0.5), mk(2, 3, 0.5, 0.5), mk(2, 3, 0.5, 0.5), mk(2, 3, 0.5, 0.5)},
			targets:  []float64{7, 7, 7, 7, 7},
			maxTerms: 3,
		},
		{
			name:     "all-zero targets",
			samples:  []Metrics{mk(1, 1, 0.1, 0.2), mk(2, 3, 0.4, 0.1), mk(5, 2, 0.7, 0.9), mk(3, 4, 0.2, 0.5), mk(4, 1, 0.9, 0.3)},
			targets:  []float64{0, 0, 0, 0, 0},
			maxTerms: 3,
		},
		{
			name: "NaN feature",
			// DP is garbage in every sample; candidates built from it must
			// be skipped, not fitted into NaN weights.
			samples:  []Metrics{mk(math.NaN(), 1, 0.1, 0), mk(math.NaN(), 2, 0.2, 0), mk(math.NaN(), 3, 0.3, 0), mk(math.NaN(), 4, 0.4, 0), mk(math.NaN(), 5, 0.5, 0)},
			targets:  []float64{2, 4, 6, 8, 10},
			maxTerms: 3,
		},
		{
			name:     "Inf feature",
			samples:  []Metrics{mk(math.Inf(1), 1, 0, 0), mk(math.Inf(1), 2, 0, 0), mk(math.Inf(1), 3, 0, 0), mk(math.Inf(1), 4, 0, 0), mk(math.Inf(1), 5, 0, 0)},
			targets:  []float64{2, 4, 6, 8, 10},
			maxTerms: 3,
		},
		{
			name:     "NaN target",
			samples:  []Metrics{mk(1, 1, 0, 0), mk(2, 2, 0, 0), mk(3, 3, 0, 0), mk(4, 4, 0, 0), mk(5, 5, 0, 0)},
			targets:  []float64{2, math.NaN(), 6, 8, 10},
			maxTerms: 3,
			wantErr:  ErrNonFinite,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := FitStepwise(tc.samples, tc.targets, tc.maxTerms, 0.5)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("fit failed: %v", err)
			}
			if !allFinite(m.Weights) {
				t.Fatalf("fit produced non-finite weights %v (selected %v)", m.Weights, m.Selected)
			}
			// The fitted model must also predict finitely at its own inputs.
			for _, s := range tc.samples {
				if y := m.Predict(s); math.IsNaN(y) && tc.name != "NaN feature" && tc.name != "Inf feature" {
					t.Fatalf("prediction at fitted sample is NaN")
				}
			}
		})
	}
}

// TestUpdateRejectsPoisonedObservations pins the online-learning guard: a
// NaN/Inf observation leaves the weights untouched instead of contaminating
// them forever.
func TestUpdateRejectsPoisonedObservations(t *testing.T) {
	m := &Model{Selected: []int{0}, Weights: []float64{1, 2}, LearnRate: 0.5}
	before := append([]float64(nil), m.Weights...)
	m.Update(Metrics{DP: 3}, math.NaN())
	m.Update(Metrics{DP: math.Inf(1)}, 5)
	m.Update(Metrics{DP: math.NaN()}, 5)
	for i := range before {
		if m.Weights[i] != before[i] {
			t.Fatalf("poisoned update changed weights: %v -> %v", before, m.Weights)
		}
	}
	// A healthy update still learns.
	m.Update(Metrics{DP: 3}, 100)
	if m.Weights[0] == before[0] && m.Weights[1] == before[1] {
		t.Fatal("healthy update did not move the weights")
	}
	if !allFinite(m.Weights) {
		t.Fatalf("weights went non-finite: %v", m.Weights)
	}
}

// TestOnlineDropsNonFinitePairs pins the ingestion guard: garbage
// observations neither poison the pre-model running mean nor enter the
// bootstrap sample set.
func TestOnlineDropsNonFinitePairs(t *testing.T) {
	o := NewOnline(4, 3, 0.5)
	o.Observe(Metrics{DP: 1}, math.NaN())
	o.Observe(Metrics{DP: math.Inf(-1)}, 3)
	if y := o.Predict(Metrics{DP: 1}); y != 0 {
		t.Fatalf("mean after only poisoned observations = %v, want 0", y)
	}
	// Four clean observations bootstrap the model despite the garbage.
	o.Observe(Metrics{DP: 1, T: 1}, 2)
	o.Observe(Metrics{DP: 2, T: 1}, 4)
	o.Observe(Metrics{DP: 3, T: 2}, 6)
	o.Observe(Metrics{DP: 4, T: 2}, 8)
	if !o.Ready() {
		t.Fatal("clean observations did not bootstrap the model")
	}
	if !allFinite(o.model.Weights) {
		t.Fatalf("bootstrapped weights non-finite: %v", o.model.Weights)
	}
	if y := o.Predict(Metrics{DP: 5, T: 3}); math.IsNaN(y) || math.IsInf(y, 0) {
		t.Fatalf("prediction non-finite: %v", y)
	}
}
