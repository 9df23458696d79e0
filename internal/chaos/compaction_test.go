package chaos

import (
	"context"
	"strings"
	"testing"
)

// TestCompactionChaos runs the compactor-racing-faults scenario across 20
// seeds: writers, the online compactor, peer death, bit flips, and
// concurrent Scrub/RestoreLatestGood/Truncate, with every restore checked
// byte-for-byte against the writers' commit ledgers.
func TestCompactionChaos(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	ctx := context.Background()
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(strings.Join([]string{"seed", string(rune('A' + seed))}, "-"), func(t *testing.T) {
			t.Parallel()
			res, err := RunCompactionChaos(ctx, CompactionChaosConfig{Seed: uint64(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("%s\ntranscript:\n  %s", res.FailureReport(), strings.Join(res.Transcript, "\n  "))
			}
			if res.Appends == 0 {
				t.Fatal("no appends committed; scenario did not run")
			}
			if res.Restores == 0 {
				t.Fatal("no restore probes ran concurrently")
			}
		})
	}
}

// TestCompactionChaosExercisesCompactor pins that the scenario actually
// reaches its namesake: across a handful of seeds the compactor must fold
// at least one chain (a scenario that never compacts proves nothing).
func TestCompactionChaosExercisesCompactor(t *testing.T) {
	ctx := context.Background()
	total := 0
	for seed := uint64(100); seed < 103; seed++ {
		res, err := RunCompactionChaos(ctx, CompactionChaosConfig{Seed: seed, Steps: 80})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatalf("seed %d: %s", seed, res.FailureReport())
		}
		total += res.Compactions + res.ElemsDropped
	}
	if total == 0 {
		t.Fatal("compactor never folded a chain in any run")
	}
}
