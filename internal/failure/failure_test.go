package failure

import (
	"math"
	"testing"

	"aic/internal/numeric"
)

func TestLevelString(t *testing.T) {
	if Transient.String() != "transient" || PartialNode.String() != "partial-node" ||
		TotalNode.String() != "total-node" {
		t.Fatal("names")
	}
	if Level(9).String() == "" {
		t.Fatal("unknown level must format")
	}
}

func TestCoastalProportions(t *testing.T) {
	p := CoastalProportions()
	if math.Abs(p[0]+p[1]+p[2]-1) > 1e-12 {
		t.Fatalf("proportions sum to %v", p[0]+p[1]+p[2])
	}
	if math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("level-2 share = %v, want 0.75", p[1])
	}
	if math.Abs(p[0]-2.0/24) > 1e-12 || math.Abs(p[2]-4.0/24) > 1e-12 {
		t.Fatalf("shares = %v", p)
	}
}

func TestSplitRate(t *testing.T) {
	rates := SplitRate(1e-3, CoastalProportions())
	if math.Abs(rates[0]+rates[1]+rates[2]-1e-3) > 1e-15 {
		t.Fatalf("split rates sum to %v", rates[0]+rates[1]+rates[2])
	}
	if zero := SplitRate(0, CoastalProportions()); zero != [3]float64{} {
		t.Fatal("zero total must yield zero rates")
	}
	if zero := SplitRate(1, [3]float64{}); zero != [3]float64{} {
		t.Fatal("zero proportions must yield zero rates")
	}
}

func TestInjectorNeverFiresOnZeroRates(t *testing.T) {
	in := NewInjector(numeric.NewRNG(1), [3]float64{})
	if _, ok := in.Next(0); ok {
		t.Fatal("zero-rate injector fired")
	}
	if evs := schedule(in, 1e9); len(evs) != 0 {
		t.Fatal("zero-rate schedule non-empty")
	}
}

func TestInjectorPanicsOnNegativeRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate accepted")
		}
	}()
	NewInjector(numeric.NewRNG(1), [3]float64{-1, 0, 0})
}

func TestInjectorInterArrivalMean(t *testing.T) {
	rates := [3]float64{1e-3, 2e-3, 1e-3}
	in := NewInjector(numeric.NewRNG(7), rates)
	var sum numeric.KahanSum
	now := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		ev, ok := in.Next(now)
		if !ok {
			t.Fatal("injector stopped")
		}
		if ev.Time <= now {
			t.Fatal("non-monotonic event time")
		}
		sum.Add(ev.Time - now)
		now = ev.Time
	}
	mean := sum.Value() / n
	want := 1 / in.TotalRate()
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("inter-arrival mean %v, want ~%v", mean, want)
	}
}

func TestInjectorLevelProportions(t *testing.T) {
	rates := SplitRate(1e-2, CoastalProportions())
	in := NewInjector(numeric.NewRNG(9), rates)
	counts := map[Level]int{}
	now := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		ev, _ := in.Next(now)
		counts[ev.Level]++
		now = ev.Time
	}
	for i, want := range CoastalProportions() {
		got := float64(counts[Level(i+1)]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("level %d share %v, want %v", i+1, got, want)
		}
	}
}

func TestScheduleHorizonAndOrder(t *testing.T) {
	in := NewInjector(numeric.NewRNG(11), [3]float64{1e-2, 0, 0})
	const horizon = 10000.0
	evs := schedule(in, horizon)
	if len(evs) < 50 {
		t.Fatalf("only %d events in horizon", len(evs))
	}
	last := 0.0
	for _, ev := range evs {
		if ev.Time <= last || ev.Time >= horizon {
			t.Fatalf("event at %v out of order/horizon", ev.Time)
		}
		last = ev.Time
	}
}

func TestInjectorDeterminism(t *testing.T) {
	a := schedule(NewInjector(numeric.NewRNG(5), [3]float64{1e-3, 1e-3, 1e-3}), 1e6)
	b := schedule(NewInjector(numeric.NewRNG(5), [3]float64{1e-3, 1e-3, 1e-3}), 1e6)
	if len(a) != len(b) {
		t.Fatal("schedules differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d", i)
		}
	}
}

// schedule returns all events of src within [0, horizon) in time order.
func schedule(src interface{ Next(float64) (Event, bool) }, horizon float64) []Event {
	var out []Event
	now := 0.0
	for {
		ev, ok := src.Next(now)
		if !ok || ev.Time >= horizon {
			return out
		}
		out = append(out, ev)
		now = ev.Time
	}
}
