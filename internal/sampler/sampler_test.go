package sampler

import (
	"testing"
	"testing/quick"
)

func TestDefaults(t *testing.T) {
	s := New(0, 0)
	if s.capacity != 2048 || s.tg != DefaultTg {
		t.Fatalf("defaults: cap=%d tg=%v", s.capacity, s.tg)
	}
}

func TestGroupingByArrivalTime(t *testing.T) {
	s := New(16, 1.0)
	s.Observe(1, 0.0) // group 1 leader
	s.Observe(2, 0.5) // same group (gap ≤ Tg)
	s.Observe(3, 0.9) // still same group (vs last buffered leader? no —
	// grouping compares against the last buffered sample: 0.9-0.0 ≤ 1)
	s.Observe(4, 1.5) // new group (1.5-0.0 > 1)
	s.Observe(5, 2.0) // same group as 4
	s.Observe(6, 3.0) // new group (3.0-1.5 > 1)
	got := s.entries
	if len(got) != 3 || got[0].Page != 1 || got[1].Page != 4 || got[2].Page != 6 {
		t.Fatalf("samples = %v", got)
	}
}

func TestOverflowDoublesTgAndCompacts(t *testing.T) {
	s := New(4, 1.0)
	for i := 0; i < 4; i++ {
		s.Observe(uint64(i), float64(i)*1.5) // each its own group
	}
	if len(s.entries) != 4 {
		t.Fatalf("len = %d", len(s.entries))
	}
	// Buffer full; next distinct-group observation must double Tg (1→2)
	// and merge the 1.5-spaced groups (gap 1.5 ≤ 2).
	s.Observe(99, 6.0)
	if s.tg != 2.0 {
		t.Fatalf("Tg = %v, want doubled", s.tg)
	}
	if len(s.entries) >= 4 {
		t.Fatalf("compact did not shrink buffer: %d", len(s.entries))
	}
	// Leader arrivals after compaction at Tg=2: 0, 3.0(page 2? arrivals
	// 0,1.5,3,4.5 → keep 0, 3, then 4.5 merges? 4.5-3=1.5 ≤ 2 merge) → {0,3}
	got := s.entries
	if got[0].Arrival != 0 || got[1].Arrival != 3.0 {
		t.Fatalf("compacted = %v", got)
	}
}

func TestAtDecisionHalvesWhenSparse(t *testing.T) {
	s := New(8, 1.0)
	s.Observe(1, 0)
	// 1 < 8/2 → halve.
	s.AtDecision()
	if s.tg != 0.5 {
		t.Fatalf("Tg = %v, want 0.5", s.tg)
	}
	// Tg has a floor.
	for i := 0; i < 100; i++ {
		s.AtDecision()
	}
	if s.tg <= 0 {
		t.Fatal("Tg must stay positive")
	}
}

func TestAtDecisionKeepsTgWhenHealthy(t *testing.T) {
	s := New(4, 1.0)
	s.Observe(1, 0)
	s.Observe(2, 2)
	before := s.tg
	if got := s.AtDecision(); len(got) != 2 {
		t.Fatalf("decision samples = %v", got)
	}
	if s.tg != before {
		t.Fatal("Tg changed despite half-full buffer")
	}
}

func TestResetKeepsTg(t *testing.T) {
	s := New(4, 1.0)
	s.Observe(1, 0)
	s.Observe(2, 5)
	s.AtDecision() // may adjust Tg
	tg := s.tg
	s.Reset()
	if len(s.entries) != 0 {
		t.Fatal("reset did not clear")
	}
	if s.tg != tg {
		t.Fatal("reset must retain learned Tg")
	}
}

func TestDroppedCounting(t *testing.T) {
	s := New(2, 1e-6) // tiny Tg: every observation is a new group
	s.SetAdaptive(false)
	s.Observe(0, 0)
	s.Observe(1, 100)
	// Full and fixed-Tg: the overflow sample must be dropped.
	s.Observe(2, 200)
	if len(s.entries) != 2 || s.entries[1].Page != 1 {
		t.Fatalf("entries = %v, want the overflow sample dropped", s.entries)
	}
}

func TestOverflowDoublesUntilSampleFits(t *testing.T) {
	// One doubling (1e-6 → 2e-6) merges nothing here; the paper's rule
	// keeps doubling while SB is full, so the overflow sample must end up
	// merged (arrival 200 joins the group once Tg spans it) — not dropped.
	s := New(2, 1e-6)
	s.Observe(0, 0)
	s.Observe(1, 100)
	s.Observe(2, 200)
	if last := s.entries[len(s.entries)-1]; 200-last.Arrival > s.tg {
		t.Fatalf("arrival 200 neither buffered nor merged: entries %v, tg %v", s.entries, s.tg)
	}
	if len(s.entries) > 2 {
		t.Fatalf("len = %d exceeds capacity", len(s.entries))
	}
	if s.tg <= 2e-6 {
		t.Fatalf("Tg = %v, want repeated doubling", s.tg)
	}
}

func TestSmallCapacityTgAdapts(t *testing.T) {
	// capacity == 1: integer capacity/2 is 0, which used to disable
	// halving entirely while overflow doubling kept ratcheting Tg upward.
	s := New(1, 1.0)
	s.AtDecision() // empty buffer < half capacity → halve
	if s.tg != 0.5 {
		t.Fatalf("Tg = %v, want 0.5 after halving at capacity 1", s.tg)
	}
	s.Observe(1, 0)
	s.Observe(2, 10) // overflow: doubles until it merges, never panics
	if len(s.entries) != 1 {
		t.Fatalf("len = %d, want 1", len(s.entries))
	}
	if got := s.AtDecision(); len(got) != 1 {
		t.Fatalf("decision samples = %v", got)
	}
	// Buffer full (1 ≥ 1/2): Tg must not halve now.
	if s.tg < 0.5 {
		t.Fatalf("Tg = %v halved despite full buffer", s.tg)
	}
}

// Property: the buffer never exceeds its capacity and arrivals stay sorted.
func TestInvariantsProperty(t *testing.T) {
	f := func(gaps []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		s := New(capacity, 0.5)
		now := 0.0
		for i, g := range gaps {
			now += float64(g) / 16
			s.Observe(uint64(i), now)
			if len(s.entries) > capacity {
				return false
			}
		}
		samples := s.entries
		for i := 1; i < len(samples); i++ {
			if samples[i].Arrival < samples[i-1].Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: consecutive buffered samples are separated by more than the
// final Tg would imply at the time of buffering — i.e., no two samples in
// the same group (checked under a static Tg, no overflow).
func TestGroupSeparationProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		s := New(1<<20, 1.0) // never overflows
		now := 0.0
		for i, g := range gaps {
			now += float64(g) / 64
			s.Observe(uint64(i), now)
		}
		samples := s.entries
		for i := 1; i < len(samples); i++ {
			if samples[i].Arrival-samples[i-1].Arrival <= s.tg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
