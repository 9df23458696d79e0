package chaos

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func shortConfig(seed uint64, t *testing.T) Config {
	return Config{
		Seed:            seed,
		Steps:           60,
		CheckpointEvery: 3,
		FullEvery:       4,
		Pages:           32,
		Events:          7,
		Dir:             t.TempDir(),
	}
}

// TestChaosShort is the seconds-scale determinism gate: the same seed must
// produce the identical schedule and the identical invariant-check
// transcript twice in a row, and a defended-fault-model run must finish with
// zero violations.
func TestChaosShort(t *testing.T) {
	cfg := shortConfig(42, t)
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if s1, s2 := r1.Schedule.String(), r2.Schedule.String(); s1 != s2 {
		t.Fatalf("same seed generated different schedules:\n--- run 1:\n%s--- run 2:\n%s", s1, s2)
	}
	if len(r1.Transcript) != len(r2.Transcript) {
		t.Fatalf("transcript lengths differ: %d vs %d\n--- run 1:\n%s\n--- run 2:\n%s",
			len(r1.Transcript), len(r2.Transcript),
			strings.Join(r1.Transcript, "\n"), strings.Join(r2.Transcript, "\n"))
	}
	for i := range r1.Transcript {
		if r1.Transcript[i] != r2.Transcript[i] {
			t.Fatalf("transcripts diverge at line %d:\n  run 1: %s\n  run 2: %s", i, r1.Transcript[i], r2.Transcript[i])
		}
	}
	if r1.Failed() {
		t.Fatalf("defended fault schedule violated invariants:\n%s\ntranscript:\n%s",
			r1.FailureReport(), strings.Join(r1.Transcript, "\n"))
	}
	if r1.Recoveries < 1 {
		t.Fatalf("run performed no recoveries (final audit missing?): %+v", r1)
	}
	if r1.Checkpoints < 5 {
		t.Fatalf("run took only %d checkpoints; the soak is not exercising the stack", r1.Checkpoints)
	}
	if len(r1.Schedule) == 0 {
		t.Fatal("generated schedule is empty; the soak injected no faults")
	}
}

// TestChaosKnownBad proves the invariant checker catches real regressions:
// the documented known-bad schedule corrupts the newest quorum-committed
// checkpoint on every replica at once, and the checker must flag the
// sequence regression and report the failing seed.
func TestChaosKnownBad(t *testing.T) {
	cfg, sched := knownBad()
	cfg.Dir = t.TempDir()
	r, err := RunSchedule(context.Background(), cfg, sched)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !r.Failed() {
		t.Fatalf("known-bad schedule produced no violations:\ntranscript:\n%s", strings.Join(r.Transcript, "\n"))
	}
	found := false
	for _, v := range r.Violations {
		if v.Invariant == "seq-regress" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a seq-regress violation, got:\n%s", r.FailureReport())
	}
	report := r.FailureReport()
	if !strings.Contains(report, "seed=") {
		t.Fatalf("failure report does not name the failing seed:\n%s", report)
	}
	if !strings.Contains(report, string(KindFlipAll)) {
		t.Fatalf("failure report does not carry the replayable schedule:\n%s", report)
	}
}

// TestChaosKnownBadReplay pins the replay path -schedule rides on: parsing
// the printed schedule back and re-running it reproduces the violation.
func TestChaosKnownBadReplay(t *testing.T) {
	cfg, sched := knownBad()
	cfg.Dir = t.TempDir()
	parsed, err := ParseSchedule(sched.String())
	if err != nil {
		t.Fatalf("parse printed schedule: %v", err)
	}
	if parsed.String() != sched.String() {
		t.Fatalf("schedule round-trip changed the plan:\n--- original:\n%s--- parsed:\n%s", sched, parsed)
	}
	r, err := RunSchedule(context.Background(), cfg, parsed)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !r.Failed() {
		t.Fatal("replayed known-bad schedule produced no violations")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1234567} {
		s := Generate(seed, GenConfig{Steps: 100, Peers: 3, Events: 9})
		if len(s) == 0 {
			t.Fatalf("seed %d generated an empty schedule", seed)
		}
		parsed, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if parsed.String() != s.String() {
			t.Fatalf("seed %d: round trip diverged:\n--- generated:\n%s--- parsed:\n%s", seed, s, parsed)
		}
	}
}

func TestScheduleParseErrors(t *testing.T) {
	for _, bad := range []string{
		"kind=crash",                 // missing step
		"step=3",                     // missing kind
		"step=x kind=crash",          // non-numeric
		"step=3 kind=crash step=4",   // duplicate field
		"step=3 kind=crash bogus=1",  // unknown field
		"step=3 kind=crash peer-one", // not key=value
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted a malformed schedule", bad)
		}
	}
	// Comments and blank lines are fine.
	s, err := ParseSchedule("# a comment\n\nstep=3 kind=crash\n")
	if err != nil || len(s) != 1 {
		t.Fatalf("ParseSchedule with comments: %v, %d events", err, len(s))
	}
}

// transcriptDigest is the SHA-256 of a transcript's lines joined by
// newlines: the golden tests pin a whole run's behaviour in one value.
func transcriptDigest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestChaosSmokeSeeds is the CI chaos smoke: several generated seeds soaked
// back to back, each required to be violation-free and to reproduce its
// golden transcript byte for byte. A digest changes only when the soak's
// behaviour does; a deliberate change re-pins it and says why.
func TestChaosSmokeSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed smoke skipped in -short (TestChaosShort covers one seed)")
	}
	golden := map[uint64]string{
		1: "090288ce42ed1cd0492b29bba3cc65e2ce0351128c58862c5c3547c4b78176f4",
		2: "43119b0f4b75d310fc123f4e57f12079b4de113bc431b478eb92daf4afafc638",
		3: "f617ba13f16f48ba49fcf325a94f1d15e9c5ef61dda1313f8d09e54fb3f07ce6",
	}
	for _, seed := range []uint64{1, 2, 3} {
		cfg := shortConfig(seed, t)
		r, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Fatalf("seed %d violated invariants:\n%s\ntranscript:\n%s",
				seed, r.FailureReport(), strings.Join(r.Transcript, "\n"))
		}
		if got := transcriptDigest(r.Transcript); got != golden[seed] {
			t.Errorf("seed %d transcript digest %s, golden %s\ntranscript:\n%s",
				seed, got, golden[seed], strings.Join(r.Transcript, "\n"))
		}
	}
}

// TestMinimizeKnownBad exercises the schedule minimizer the soak binary
// uses: the known-bad plan must stay failing after minimization and never
// grow.
func TestMinimizeKnownBad(t *testing.T) {
	cfg, sched := knownBad()
	cfg.Dir = t.TempDir()
	minimal := Minimize(context.Background(), cfg, sched)
	if len(minimal) == 0 || len(minimal) > len(sched) {
		t.Fatalf("minimized schedule has %d events (original %d)", len(minimal), len(sched))
	}
	r, err := RunSchedule(context.Background(), cfg, minimal)
	if err != nil {
		t.Fatalf("minimized run: %v", err)
	}
	if !r.Failed() {
		t.Fatalf("minimized schedule no longer fails:\n%s", minimal)
	}
}
