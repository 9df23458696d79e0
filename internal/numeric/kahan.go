package numeric

// KahanSum accumulates floating-point values with Neumaier's compensated
// summation, keeping long simulation traces numerically stable.
type KahanSum struct {
	sum float64
	c   float64
}

// Add folds v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if abs(k.sum) >= abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
