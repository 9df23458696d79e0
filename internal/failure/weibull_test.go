package failure

import (
	"math"
	"testing"

	"aic/internal/numeric"
)

func TestWeibullValidation(t *testing.T) {
	rng := numeric.NewRNG(1)
	if _, err := NewWeibullInjector(rng, [3]float64{0, 0, 0}, [3]float64{-1, 0, 0}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := NewWeibullInjector(rng, [3]float64{0, 0, 0}, [3]float64{1, 0, 0}); err == nil {
		t.Fatal("zero shape with positive scale accepted")
	}
}

func TestWeibullAllDisabled(t *testing.T) {
	in, err := NewWeibullInjector(numeric.NewRNG(1), [3]float64{}, [3]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.Next(0); ok {
		t.Fatal("disabled injector fired")
	}
}

func TestWeibullShapeOneMatchesExponentialMean(t *testing.T) {
	// Shape 1 is the exponential distribution: mean inter-arrival = scale.
	const scale = 500.0
	in, err := NewWeibullInjector(numeric.NewRNG(2), [3]float64{1, 0, 0}, [3]float64{scale, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var sum numeric.KahanSum
	now := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		ev, ok := in.Next(now)
		if !ok {
			t.Fatal("stopped")
		}
		if ev.Level != Transient {
			t.Fatalf("level = %v", ev.Level)
		}
		sum.Add(ev.Time - now)
		now = ev.Time
	}
	mean := sum.Value() / n
	if math.Abs(mean-scale)/scale > 0.02 {
		t.Fatalf("mean = %v, want ~%v", mean, scale)
	}
}

func TestWeibullMatchingRates(t *testing.T) {
	rates := [3]float64{1e-3, 2e-3, 0}
	for _, shape := range []float64{0.7, 1.0, 1.5} {
		shapes, scales := WeibullMatchingRates(rates, shape)
		if scales[2] != 0 || shapes[2] != 0 {
			t.Fatal("disabled level must stay disabled")
		}
		in, err := NewWeibullInjector(numeric.NewRNG(3), shapes, scales)
		if err != nil {
			t.Fatal(err)
		}
		// Empirical mean inter-arrival of the combined process should
		// match the exponential superposition's 1/(λ1+λ2).
		var sum numeric.KahanSum
		now := 0.0
		const n = 60000
		for i := 0; i < n; i++ {
			ev, ok := in.Next(now)
			if !ok {
				t.Fatal("stopped")
			}
			sum.Add(ev.Time - now)
			now = ev.Time
		}
		mean := sum.Value() / n
		want := 1 / (rates[0] + rates[1])
		// Superposed renewal processes are not Poisson for shape ≠ 1, but
		// the long-run event rate still matches the per-level means.
		if math.Abs(mean-want)/want > 0.05 {
			t.Fatalf("shape %v: combined mean %v, want ~%v", shape, mean, want)
		}
	}
}

func TestWeibullShapeBelowOneIsBursty(t *testing.T) {
	// Shape < 1 produces a heavier tail and more clustering than the
	// exponential: the coefficient of variation of inter-arrivals exceeds 1.
	shapes, scales := WeibullMatchingRates([3]float64{1e-3, 0, 0}, 0.6)
	in, err := NewWeibullInjector(numeric.NewRNG(4), shapes, scales)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	now := 0.0
	for i := 0; i < 60000; i++ {
		ev, _ := in.Next(now)
		gaps = append(gaps, ev.Time-now)
		now = ev.Time
	}
	var mean, sq numeric.KahanSum
	for _, g := range gaps {
		mean.Add(g)
	}
	m := mean.Value() / float64(len(gaps))
	for _, g := range gaps {
		d := g - m
		sq.Add(d * d)
	}
	cv := math.Sqrt(sq.Value()/float64(len(gaps))) / m
	if cv < 1.2 {
		t.Fatalf("shape 0.6 CV = %v, want clearly above 1", cv)
	}
}

func TestWeibullScheduleOrdered(t *testing.T) {
	shapes, scales := WeibullMatchingRates([3]float64{1e-2, 1e-2, 1e-2}, 0.8)
	in, err := NewWeibullInjector(numeric.NewRNG(5), shapes, scales)
	if err != nil {
		t.Fatal(err)
	}
	evs := schedule(in, 5000)
	if len(evs) < 50 {
		t.Fatalf("only %d events", len(evs))
	}
	last := 0.0
	seen := map[Level]bool{}
	for _, ev := range evs {
		if ev.Time <= last || ev.Time >= 5000 {
			t.Fatalf("event at %v out of order", ev.Time)
		}
		last = ev.Time
		seen[ev.Level] = true
	}
	if len(seen) != 3 {
		t.Fatalf("levels seen: %v", seen)
	}
}
