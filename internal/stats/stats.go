// Package stats provides the summary-statistics helper the experiment
// harness and the AIC predictor share: a compensated mean.
package stats

import "aic/internal/numeric"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var k numeric.KahanSum
	for _, v := range xs {
		k.Add(v)
	}
	return k.Value() / float64(len(xs))
}
