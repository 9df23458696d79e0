package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func peersN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:4700", i+1)
	}
	return out
}

// TestPlacementGolden pins exact replica sets so any cross-process or
// cross-version drift in the hash or walk order fails loudly: placement
// is part of the wire-compatibility surface (every client routes its own
// writes).
// primary returns the first peer of key's replica set, or "" on an empty
// ring.
func primary(r *Ring, key string) string {
	if set := r.Place(key, 1); len(set) > 0 {
		return set[0]
	}
	return ""
}

func TestPlacementGolden(t *testing.T) {
	r := New(peersN(5), 64)
	golden := map[string][]string{
		"db":            {"10.0.0.4:4700", "10.0.0.2:4700"},
		"acme@db":       {"10.0.0.4:4700", "10.0.0.5:4700"},
		"acme@web":      {"10.0.0.1:4700", "10.0.0.3:4700"},
		"globex@db":     {"10.0.0.4:4700", "10.0.0.1:4700"},
		"acme@db#s0of2": {"10.0.0.3:4700", "10.0.0.5:4700"},
	}
	for key, want := range golden {
		if got := r.Place(key, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("Place(%q, 2) = %v, want %v", key, got, want)
		}
	}
}

// TestPlacementDeterminism is the satellite requirement: the same peer
// set must yield identical placement regardless of construction order or
// repetition — what two independent processes rely on to agree.
func TestPlacementDeterminism(t *testing.T) {
	peers := peersN(9)
	base := New(peers, 0)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]string(nil), peers...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := New(shuffled, 0)
		for k := 0; k < 50; k++ {
			key := fmt.Sprintf("tenant%d@proc%d", k%7, k)
			if got, want := r.Place(key, 3), base.Place(key, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Place(%q) = %v, want %v", trial, key, got, want)
			}
		}
	}
}

func TestPlaceProperties(t *testing.T) {
	r := New(peersN(5), 0)
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("t%d@p%d", k%11, k)
		set := r.Place(key, 3)
		if len(set) != 3 {
			t.Fatalf("Place(%q) = %v, want 3 distinct peers", key, set)
		}
		seen := map[string]bool{}
		for _, p := range set {
			if seen[p] {
				t.Fatalf("Place(%q) repeats %s", key, p)
			}
			seen[p] = true
		}
	}
	// Asking for more replicas than peers returns every peer once.
	if set := r.Place("k", 99); len(set) != 5 {
		t.Fatalf("Place over-replicated = %v", set)
	}
	// Degenerate rings.
	if set := New(nil, 0).Place("k", 2); set != nil {
		t.Fatalf("empty ring Place = %v", set)
	}
	if p := primary(New([]string{"solo"}, 0), "k"); p != "solo" {
		t.Fatalf("single-peer primary = %q", p)
	}
}

// TestIncrementalMoves checks the consistent-hash contract: one peer
// joining a 10-peer ring should strand well under a quarter of
// single-replica placements (ideal is 1/11 ≈ 9%).
func TestIncrementalMoves(t *testing.T) {
	old := New(peersN(10), 0)
	next := old.Add("10.0.0.99:4700")
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant%d@proc%d", i%17, i)
	}
	moved := 0
	for _, k := range keys {
		if primary(old, k) != primary(next, k) {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(keys)); frac > 0.25 {
		t.Fatalf("join moved %.0f%% of primaries; consistent hashing should move ~9%%", frac*100)
	}
}

func TestBalance(t *testing.T) {
	r := New(peersN(8), 0)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[primary(r, fmt.Sprintf("t%d@p%d", i%13, i))]++
	}
	want := float64(n) / 8
	for _, p := range r.Peers() {
		if c := float64(counts[p]); c < want*0.5 || c > want*1.6 {
			t.Fatalf("peer %s owns %v keys (mean %v): ring is unbalanced: %v", p, c, want, counts)
		}
	}
}

func TestDiff(t *testing.T) {
	old := New(peersN(4), 0)
	next := old.Remove("10.0.0.2:4700")
	keys := []string{"a", "b", "acme@db", "globex@web", "t@p#s0of2"}
	moves := Diff(old, next, keys, 2)
	for _, m := range moves {
		was := old.Place(m.Key, 2)
		now := next.Place(m.Key, 2)
		for _, g := range m.Gained {
			if !contains(now, g) || contains(was, g) {
				t.Fatalf("move %+v: bad gained peer (was %v now %v)", m, was, now)
			}
		}
		for _, l := range m.Lost {
			if contains(now, l) || !contains(was, l) {
				t.Fatalf("move %+v: bad lost peer (was %v now %v)", m, was, now)
			}
		}
	}
	// Identical rings need no moves.
	if moves := Diff(old, New(peersN(4), 0), keys, 2); len(moves) != 0 {
		t.Fatalf("Diff(same, same) = %v", moves)
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
