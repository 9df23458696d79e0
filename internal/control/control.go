// Package control closes the observe→decide loop over the metrics
// the storage stack exports. The paper's per-process interval decider
// (core.Decider) adapts one process to its own dirty-page rate; this
// package adapts the fleet to the storage tier as a whole: when fsync
// latency saturates for long enough, the controller sheds the replication
// fan-out, and restores it with hysteresis once headroom returns.
//
// The pipeline is two pieces, each testable alone:
//
//	Collector  — samples Signals (fsync p99) from a metrics.Registry
//	             using windowed histogram deltas
//	Controller — the saturation analyzer: classifies each sample into
//	             saturated / healthy / neutral bands and runs the
//	             shed-ladder state machine with streak-based hysteresis
//
// The controller's Level is the ladder's only state. Nothing is pushed
// anywhere: whoever acts on the ladder (the aic facade's CheckpointDir)
// reads the Level, and replicates only at LevelNormal.
//
// The Controller core is Step(), a pure state transition on one sample —
// deterministic by construction, so the chaos harness and the table tests
// drive it tick by tick with no wall clock. Run() wraps Step in a ticker
// for daemon use (cmd/aicd).
package control

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"aic/internal/metrics"
)

// Signals is one sample of the saturation inputs.
type Signals struct {
	// FsyncP99 is the windowed 99th-percentile fsync latency in seconds
	// (bucket upper-bound estimate) since the previous sample.
	FsyncP99 float64 `json:"fsync_p99_seconds"`
}

// Collector produces one Signals sample per call.
type Collector interface {
	Collect() Signals
}

// Level is a rung on the shed ladder.
type Level int

// The shed ladder has one rung above normal: dropping the replication
// fan-out, which spends durability to take the peers' fsyncs off a
// saturated tier. The checkpoint interval belongs to the decider
// (core.Decider) and encode parallelism to the checkpointing core's fixed
// share (aic.WithParallelism); the ladder owns neither.
const (
	LevelNormal    Level = iota // replication fans out to the peers
	LevelLocalOnly              // replication fan-out shed
)

func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelLocalOnly:
		return "local-only"
	}
	return "unknown"
}

// recoverFactor defines the healthy band: a sample is healthy only when
// the fsync p99 is strictly below recoverFactor×the threshold. Samples
// between the bands hold the current level and reset both streaks, which
// is what prevents oscillation.
const recoverFactor = 0.5

// Config tunes the saturation analyzer. The zero value selects the
// documented defaults (DESIGN.md §14).
type Config struct {
	// FsyncP99Threshold saturates the fsync signal at or above this many
	// seconds. Default 0.05 (50ms — an order above a healthy local disk).
	FsyncP99Threshold float64 `json:"fsync_p99_threshold_seconds"`
	// SaturateAfter sheds replication after this many consecutive
	// saturated samples. Default 9 — shedding spends durability, so it
	// asks for more evidence than restoring does.
	SaturateAfter int `json:"saturate_after"`
	// RecoverAfter restores replication after this many consecutive
	// healthy samples. Default 6.
	RecoverAfter int `json:"recover_after"`
}

func (c Config) withDefaults() Config {
	if c.FsyncP99Threshold <= 0 {
		c.FsyncP99Threshold = 0.05
	}
	if c.SaturateAfter <= 0 {
		c.SaturateAfter = 9
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 6
	}
	return c
}

// Decision reports what one Step concluded.
type Decision struct {
	Signals   Signals `json:"signals"`
	Saturated bool    `json:"saturated"` // sample was in the saturated band
	Healthy   bool    `json:"healthy"`   // sample was in the healthy band
	Level     Level   `json:"level"`     // ladder position after the step
	Changed   bool    `json:"changed"`   // this step moved the ladder
}

// Controller is the saturation analyzer and ladder state machine. Create
// with New; drive with Step (deterministic) or Run (ticker).
type Controller struct {
	cfg Config
	col Collector

	mu        sync.Mutex
	level     Level
	satStreak int
	okStreak  int
	last      Decision

	gLevel    *metrics.Gauge
	gSat      *metrics.Gauge
	cSheds    *metrics.Counter
	cRestores *metrics.Counter
}

// New builds a controller at LevelNormal. reg may be nil (the controller
// then exports no metrics about itself); col must be non-nil.
func New(cfg Config, col Collector, reg *metrics.Registry) *Controller {
	c := &Controller{
		cfg:       cfg.withDefaults(),
		col:       col,
		gLevel:    reg.Gauge("aic_control_shed_level", "Current shed-ladder level (0=normal, 1=local-only)."),
		gSat:      reg.Gauge("aic_control_saturated_state", "1 while the last sample was in the saturated band, else 0."),
		cSheds:    reg.Counter("aic_control_sheds_total", "Shed-ladder escalations."),
		cRestores: reg.Counter("aic_control_restores_total", "Shed-ladder de-escalations."),
	}
	c.gLevel.Set(float64(LevelNormal))
	return c
}

// Step takes one sample, classifies it and moves the ladder at most one
// rung. It is the deterministic core: same prior state + same sample →
// same decision.
func (c *Controller) Step() Decision {
	sig := c.col.Collect()

	c.mu.Lock()
	defer c.mu.Unlock()

	saturated := sig.FsyncP99 >= c.cfg.FsyncP99Threshold
	healthy := sig.FsyncP99 < recoverFactor*c.cfg.FsyncP99Threshold

	d := Decision{Signals: sig, Saturated: saturated, Healthy: healthy}
	switch {
	case saturated:
		c.okStreak = 0
		c.satStreak++
		if c.satStreak >= c.cfg.SaturateAfter && c.level == LevelNormal {
			c.level = LevelLocalOnly
			c.satStreak = 0
			c.cSheds.Inc()
			c.gLevel.Set(float64(c.level))
			d.Changed = true
		}
	case healthy:
		c.satStreak = 0
		c.okStreak++
		if c.okStreak >= c.cfg.RecoverAfter && c.level == LevelLocalOnly {
			c.level = LevelNormal
			c.okStreak = 0
			c.cRestores.Inc()
			c.gLevel.Set(float64(c.level))
			d.Changed = true
		}
	default:
		// The dead band between healthy and saturated: hold position and
		// require fresh consecutive evidence in either direction.
		c.satStreak = 0
		c.okStreak = 0
	}
	d.Level = c.level
	if saturated {
		c.gSat.Set(1)
	} else {
		c.gSat.Set(0)
	}
	c.last = d
	return d
}

// Level returns the current ladder position.
func (c *Controller) Level() Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// State is the JSON shape the /control endpoint serves.
type State struct {
	Level     Level    `json:"level"`
	LevelName string   `json:"level_name"`
	Last      Decision `json:"last_decision"`
	Config    Config   `json:"config"`
}

// State snapshots the controller for inspection endpoints.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return State{Level: c.level, LevelName: c.level.String(), Last: c.last, Config: c.cfg}
}

// Handler serves the controller state as JSON — the body cmd/aicd mounts
// at /control.
func (c *Controller) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.State())
	})
}

// Run steps the controller every interval until ctx is cancelled
// (interval ≤ 0 selects 1s). Daemon use only; tests and the chaos harness
// call Step directly to stay deterministic.
func (c *Controller) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Step()
		}
	}
}
