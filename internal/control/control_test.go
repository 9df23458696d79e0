package control

import (
	"slices"
	"testing"

	"aic/internal/metrics"
)

// cfg used across the tests: escalate after 2 saturated samples, recover
// after 3 healthy ones, healthy band below half the threshold.
func testCfg() Config {
	return Config{
		FsyncP99Threshold: 0.1,
		SaturateAfter:     2,
		RecoverAfter:      3,
	}
}

var (
	hot  = Signals{FsyncP99: 0.5}  // saturated
	mid  = Signals{FsyncP99: 0.07} // dead band: ≥ recover, < saturate
	cool = Signals{FsyncP99: 0.01} // healthy
)

// TestHysteresisLadder drives the saturate→shed→recover arc through a
// scripted sample sequence and checks the ladder position, and the
// controller's own level gauge, after every step.
func TestHysteresisLadder(t *testing.T) {
	steps := []struct {
		sig     Signals
		want    Level
		changed bool
	}{
		{cool, LevelNormal, false}, // healthy at floor: no-op
		{hot, LevelNormal, false},  // saturated ×1 — below SaturateAfter
		{hot, LevelLocalOnly, true},
		{hot, LevelLocalOnly, false}, // top rung: the ladder is pegged
		{hot, LevelLocalOnly, false},
		{cool, LevelLocalOnly, false}, // healthy ×1
		{cool, LevelLocalOnly, false}, // healthy ×2
		{cool, LevelNormal, true},
		{cool, LevelNormal, false}, // at floor: healthy steps no-op
		{hot, LevelNormal, false},  // the streak restarts after a restore
		{hot, LevelLocalOnly, true},
		{cool, LevelLocalOnly, false},
		{cool, LevelLocalOnly, false},
		{cool, LevelNormal, true},
	}
	sigs := make([]Signals, len(steps))
	for i, s := range steps {
		sigs[i] = s.sig
	}
	reg := metrics.NewRegistry()
	c := New(testCfg(), newStaticCollector(sigs...), reg)
	if c.Level() != LevelNormal {
		t.Fatalf("new controller at %v, want normal", c.Level())
	}
	for i, s := range steps {
		d := c.Step()
		if d.Level != s.want || d.Changed != s.changed {
			t.Fatalf("step %d (%+v): level=%v changed=%v, want level=%v changed=%v",
				i, s.sig, d.Level, d.Changed, s.want, s.changed)
		}
		if v, _ := reg.Value("aic_control_shed_level"); v != float64(s.want) {
			t.Fatalf("step %d at %v: shed_level gauge %v", i, s.want, v)
		}
	}
	// The arc is visible in the controller's own metrics.
	if v, _ := reg.Value("aic_control_sheds_total"); v != 2 {
		t.Fatalf("sheds_total = %v, want 2", v)
	}
	if v, _ := reg.Value("aic_control_restores_total"); v != 2 {
		t.Fatalf("restores_total = %v, want 2", v)
	}
}

// TestDeadBandPreventsOscillation pins the hysteresis property: samples in
// the band between the recover and saturate thresholds reset both streaks,
// so alternating hot/mid or cool/mid sequences never move the ladder.
func TestDeadBandPreventsOscillation(t *testing.T) {
	col := newStaticCollector(mid)
	c := New(testCfg(), col, nil)

	// hot,mid,hot,mid,... never accumulates SaturateAfter=2 in a row.
	for i := 0; i < 10; i++ {
		col.Push(hot, mid)
	}
	for i := 0; i < 20; i++ {
		if d := c.Step(); d.Changed {
			t.Fatalf("step %d escalated on an alternating hot/mid sequence", i)
		}
	}
	if c.Level() != LevelNormal {
		t.Fatalf("level = %v, want normal", c.Level())
	}

	// Force the ladder up, then show cool,mid,cool,mid,... never recovers
	// (and never oscillates): the level holds.
	col.Push(hot, hot, hot)
	for i := 0; i < 3; i++ {
		c.Step()
	}
	if c.Level() != LevelLocalOnly {
		t.Fatalf("setup failed: level = %v, want local-only", c.Level())
	}
	for i := 0; i < 10; i++ {
		col.Push(cool, mid)
	}
	for i := 0; i < 20; i++ {
		if d := c.Step(); d.Changed {
			t.Fatalf("step %d moved the ladder on an alternating cool/mid sequence", i)
		}
	}
	if c.Level() != LevelLocalOnly {
		t.Fatalf("level = %v, want local-only (held)", c.Level())
	}
}

// Samples for the default config (threshold 50ms, healthy below 25ms).
var (
	defHot  = Signals{FsyncP99: 0.06} // saturated
	defBand = Signals{FsyncP99: 0.03} // dead band
	defCool = Signals{FsyncP99: 0.01} // healthy
)

// run is n consecutive copies of sig.
func run(sig Signals, n int) []Signals {
	out := make([]Signals, n)
	for i := range out {
		out[i] = sig
	}
	return out
}

// shedFlips steps a default-config controller through samples and returns
// the 1-based samples after which Level() == LevelLocalOnly changed.
func shedFlips(samples []Signals) []int {
	c := New(Config{}, newStaticCollector(samples...), nil)
	var flips []int
	shed := false
	for i := range samples {
		c.Step()
		if now := c.Level() == LevelLocalOnly; now != shed {
			flips = append(flips, i+1)
			shed = now
		}
	}
	return flips
}

// TestShedTimingAtDefaults pins when replication sheds and comes back at
// the default config, read only through Level() == LevelLocalOnly: a
// steady saturated signal sheds at sample 9, a steady healthy one then
// restores 6 samples later, and a dead-band sample restarts either count —
// so saturated runs shorter than SaturateAfter never shed when dead-band
// samples split them (DESIGN.md §14).
func TestShedTimingAtDefaults(t *testing.T) {
	split := slices.Concat(run(defHot, 3), run(defBand, 1))
	for _, tc := range []struct {
		name    string
		samples []Signals
		flips   []int
	}{
		{"steady-saturated", run(defHot, 12), []int{9}},
		{"steady-healthy-restores", slices.Concat(run(defHot, 9), run(defCool, 8)), []int{9, 15}},
		{"broken-healthy-holds", slices.Concat(run(defHot, 9), run(defCool, 5), run(defBand, 1), run(defCool, 5)), []int{9}},
		{"split-saturated-holds", slices.Concat(split, split, split, run(defBand, 3)), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := shedFlips(tc.samples); !slices.Equal(got, tc.flips) {
				t.Fatalf("local-only flips at samples %v, want %v", got, tc.flips)
			}
		})
	}
}

// TestRegistryCollectorWindows verifies the collector computes the p99
// over the window between Collect calls, not cumulatively.
func TestRegistryCollectorWindows(t *testing.T) {
	reg := metrics.NewRegistry()
	col := NewRegistryCollector(reg)

	// Before instrumentation exists, everything reads zero.
	if sig := col.Collect(); sig != (Signals{}) {
		t.Fatalf("empty registry sample = %+v, want zeros", sig)
	}

	h := reg.Histogram(fsyncHistName, "fsync latency", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.0005) // fast era
	}
	sig := col.Collect()
	if sig.FsyncP99 != 0.001 {
		t.Fatalf("fast-era sample = %+v, want p99=0.001", sig)
	}

	for i := 0; i < 100; i++ {
		h.Observe(0.5) // slow era
	}
	sig = col.Collect()
	if sig.FsyncP99 != 1 {
		t.Fatalf("slow-era sample = %+v, want p99=1 (window must exclude the fast era)", sig)
	}

	// Idle window: no new observations → p99 reads 0, not the last value.
	sig = col.Collect()
	if sig.FsyncP99 != 0 {
		t.Fatalf("idle sample = %+v, want zero", sig)
	}
}

// staticCollector replays a fixed sequence of samples, then repeats the
// last one.
type staticCollector struct {
	samples []Signals
	i       int
}

// newStaticCollector builds a collector over the given samples.
func newStaticCollector(samples ...Signals) *staticCollector {
	return &staticCollector{samples: samples}
}

// Push appends further samples.
func (c *staticCollector) Push(samples ...Signals) {
	c.samples = append(c.samples, samples...)
}

// Collect returns the next sample, repeating the final one once exhausted.
func (c *staticCollector) Collect() Signals {
	if len(c.samples) == 0 {
		return Signals{}
	}
	s := c.samples[c.i]
	if c.i < len(c.samples)-1 {
		c.i++
	}
	return s
}
