package failure

import (
	"fmt"
	"math"

	"aic/internal/numeric"
)

// The paper (like most of the checkpointing literature it cites) assumes
// exponentially distributed failure inter-arrivals. Field studies of HPC
// failure logs often fit Weibull distributions with shape < 1 (infant
// mortality / clustering) better; this extension provides a Weibull
// injector so the sensitivity of the results to the exponential assumption
// can be measured (see the ablation in the sim tests).

// WeibullInjector produces failure events whose inter-arrival times follow
// a Weibull distribution per level, via inverse-transform sampling:
// X = scale · (−ln U)^{1/shape}. Shape 1 reduces exactly to the
// exponential injector.
type WeibullInjector struct {
	rng    *numeric.RNG
	shapes [3]float64
	scales [3]float64
	next   [3]float64 // next pending arrival per level
	primed bool
}

// NewWeibullInjector creates an injector whose level-k inter-arrivals are
// Weibull(shape[k], scale[k]). A zero scale disables the level. Shapes must
// be positive where the level is enabled.
func NewWeibullInjector(rng *numeric.RNG, shapes, scales [3]float64) (*WeibullInjector, error) {
	for i := 0; i < 3; i++ {
		if scales[i] < 0 || math.IsNaN(scales[i]) {
			return nil, fmt.Errorf("failure: invalid scale[%d] = %v", i, scales[i])
		}
		if scales[i] > 0 && (shapes[i] <= 0 || math.IsNaN(shapes[i])) {
			return nil, fmt.Errorf("failure: invalid shape[%d] = %v", i, shapes[i])
		}
	}
	return &WeibullInjector{rng: rng, shapes: shapes, scales: scales}, nil
}

// WeibullMatchingRates returns Weibull scales that give each level the same
// mean inter-arrival time as exponential rates λ would, for the given
// common shape: mean = scale·Γ(1+1/shape) = 1/λ.
func WeibullMatchingRates(rates [3]float64, shape float64) (shapes, scales [3]float64) {
	g := math.Gamma(1 + 1/shape)
	for i, r := range rates {
		if r > 0 {
			shapes[i] = shape
			scales[i] = 1 / (r * g)
		}
	}
	return shapes, scales
}

func (w *WeibullInjector) draw(level int) float64 {
	u := w.rng.Float64()
	for u == 0 {
		u = w.rng.Float64()
	}
	return w.scales[level] * math.Pow(-math.Log(u), 1/w.shapes[level])
}

// Next returns the earliest pending failure strictly after now, or ok=false
// when every level is disabled. Unlike the memoryless exponential process,
// Weibull arrivals are generated as a renewal process per level.
func (w *WeibullInjector) Next(now float64) (Event, bool) {
	any := false
	for i := 0; i < 3; i++ {
		if w.scales[i] <= 0 {
			w.next[i] = math.Inf(1)
			continue
		}
		any = true
		if !w.primed {
			w.next[i] = w.draw(i)
		}
		for w.next[i] <= now {
			w.next[i] += w.draw(i)
		}
	}
	w.primed = true
	if !any {
		return Event{}, false
	}
	best := 0
	for i := 1; i < 3; i++ {
		if w.next[i] < w.next[best] {
			best = i
		}
	}
	ev := Event{Time: w.next[best], Level: Level(best + 1)}
	w.next[best] += w.draw(best)
	return ev, true
}
