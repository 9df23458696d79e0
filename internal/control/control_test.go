package control

import (
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

// TestHysteresisLadder drives the full saturate→shed→recover arc through
// a scripted sample sequence and checks the ladder position after every
// step — the satellite's table test.
func TestHysteresisLadder(t *testing.T) {
	steps := []struct {
		sig     Signals
		want    Level
		changed bool
	}{
		{cool, LevelNormal, false}, // healthy at floor: no-op
		{hot, LevelNormal, false},  // saturated ×1 — below SaturateAfter
		{hot, LevelWideInterval, true},
		{hot, LevelWideInterval, false}, // streak restarts after a shed
		{hot, LevelSerialEncode, true},
		{hot, LevelSerialEncode, false},
		{hot, LevelLocalOnly, true},
		{hot, LevelLocalOnly, false}, // MaxLevel: ladder pegged
		{hot, LevelLocalOnly, false},
		{cool, LevelLocalOnly, false}, // healthy ×1
		{cool, LevelLocalOnly, false}, // healthy ×2
		{cool, LevelSerialEncode, true},
		{cool, LevelSerialEncode, false},
		{cool, LevelSerialEncode, false},
		{cool, LevelWideInterval, true},
		{cool, LevelWideInterval, false},
		{cool, LevelWideInterval, false},
		{cool, LevelNormal, true},
		{cool, LevelNormal, false}, // at floor: healthy steps no-op
	}
	sigs := make([]Signals, len(steps))
	for i, s := range steps {
		sigs[i] = s.sig
	}
	col := newStaticCollector(sigs...)
	reg := metrics.NewRegistry()
	c := New(testCfg(), col, reg)

	// The settings each rung implies: every rung keeps the sheds below it.
	want := map[Level]Settings{
		LevelNormal:       {IntervalScale: 1, Parallelism: 0, Replication: true},
		LevelWideInterval: {IntervalScale: 2, Parallelism: 0, Replication: true},
		LevelSerialEncode: {IntervalScale: 2, Parallelism: 1, Replication: true},
		LevelLocalOnly:    {IntervalScale: 2, Parallelism: 1, Replication: false},
	}
	if got := c.Level().Settings(); c.Level() != LevelNormal || got != want[LevelNormal] {
		t.Fatalf("new controller at %v with %+v, want normal with %+v", c.Level(), got, want[LevelNormal])
	}
	for i, s := range steps {
		d := c.Step()
		if d.Level != s.want || d.Changed != s.changed {
			t.Fatalf("step %d (%+v): level=%v changed=%v, want level=%v changed=%v",
				i, s.sig, d.Level, d.Changed, s.want, s.changed)
		}
		if got := c.Level().Settings(); got != want[s.want] {
			t.Fatalf("step %d at %v: settings %+v, want %+v", i, s.want, got, want[s.want])
		}
		if v, _ := reg.Value("aic_control_interval_scale"); v != want[s.want].IntervalScale {
			t.Fatalf("step %d at %v: interval_scale gauge %v, want %v", i, s.want, v, want[s.want].IntervalScale)
		}
	}
	// The arc is visible in the controller's own metrics.
	if v, _ := reg.Value("aic_control_sheds_total"); v != 3 {
		t.Fatalf("sheds_total = %v, want 3", v)
	}
	if v, _ := reg.Value("aic_control_restores_total"); v != 3 {
		t.Fatalf("restores_total = %v, want 3", v)
	}
	if v, _ := reg.Value("aic_control_shed_level"); v != 0 {
		t.Fatalf("shed_level = %v, want 0", v)
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
	if c.Level() != LevelWideInterval {
		t.Fatalf("setup failed: level = %v, want wide-interval", c.Level())
	}
	for i := 0; i < 10; i++ {
		col.Push(cool, mid)
	}
	for i := 0; i < 20; i++ {
		if d := c.Step(); d.Changed {
			t.Fatalf("step %d moved the ladder on an alternating cool/mid sequence", i)
		}
	}
	if c.Level() != LevelWideInterval {
		t.Fatalf("level = %v, want wide-interval (held)", c.Level())
	}
}

// TestMaxLevelCap verifies a capped ladder never sheds replication.
func TestMaxLevelCap(t *testing.T) {
	cfg := testCfg()
	cfg.MaxLevel = LevelSerialEncode
	col := newStaticCollector(hot)
	c := New(cfg, col, nil)
	for i := 0; i < 30; i++ {
		c.Step()
		if !c.Level().Settings().Replication {
			t.Fatalf("step %d: capped ladder at %v disabled replication", i, c.Level())
		}
	}
	if c.Level() != LevelSerialEncode {
		t.Fatalf("level = %v, want serial-encode cap", c.Level())
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
