// Package predictor implements AIC's lightweight prediction pipeline
// (Section IV.D): the Jaccard Distance and Divergence Index page metrics,
// the composite candidate feature set Φ-derived {C1^γ·C2^ζ | 1 ≤ γ+ζ ≤ 2},
// forward stepwise regression for model bootstrap, and the normalized
// Gradient Descent online learner that keeps the model current without any
// offline profiling.
package predictor

// JaccardDistance returns JD(P, P') = 1 − m/p, the fraction of byte
// positions whose values differ between a hot page and its previous
// checkpointed version (0 = identical, 1 = totally different). Slices of
// different lengths compare only the common prefix, counting the excess as
// dissimilar.
func JaccardDistance(cur, old []byte) float64 {
	n := len(cur)
	if len(old) > n {
		n = len(old)
	}
	if n == 0 {
		return 0
	}
	common := len(cur)
	if len(old) < common {
		common = len(old)
	}
	m := 0
	for i := 0; i < common; i++ {
		if cur[i] == old[i] {
			m++
		}
	}
	return 1 - float64(m)/float64(n)
}

// DivergenceIndex returns DI(P) = 1 − v/p, where v is the occurrence count
// of the page's most popular byte value — the paper's intra-page
// self-dissimilarity metric (0 = constant page, →1 = high-entropy page).
func DivergenceIndex(p []byte) float64 {
	if len(p) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range p {
		counts[b]++
	}
	v := 0
	for _, c := range counts {
		if c > v {
			v = c
		}
	}
	return 1 - float64(v)/float64(len(p))
}

// Metrics is the lightweight base feature set Φ = {DP, t, JD, DI} gathered
// at a checkpoint decision point: dirty-page count, elapsed time since the
// last local checkpoint, and the mean JD/DI over sampled hot pages.
type Metrics struct {
	DP float64 // number of dirty pages
	T  float64 // elapsed time since the last local checkpoint (s)
	JD float64 // mean Jaccard distance of sampled hot pages
	DI float64 // mean divergence index of sampled hot pages
}

// NumCandidates is the size of the composite candidate feature set:
// 4 singles, 4 squares, and 6 pairwise products ({C1^γ·C2^ζ, 1 ≤ γ+ζ ≤ 2}).
const NumCandidates = 14

// Candidates expands the base metrics into the full candidate vector that
// stepwise regression selects from.
func (m Metrics) Candidates() []float64 {
	return []float64{
		m.DP, m.T, m.JD, m.DI,
		m.DP * m.DP, m.T * m.T, m.JD * m.JD, m.DI * m.DI,
		m.DP * m.T, m.DP * m.JD, m.DP * m.DI, m.T * m.JD, m.T * m.DI, m.JD * m.DI,
	}
}
