package aic

import (
	"aic/internal/control"
	"aic/internal/metrics"
)

// MetricsRegistry is the facade's metric registry type: a dependency-free
// counter/gauge/histogram registry with deterministic Prometheus text
// exposition. Pass one to OpenCheckpointDir via WithMetrics and mount
// Registry.Handler() (or serve Text()) at /metrics.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry creates an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// AdaptiveControlConfig tunes the saturation controller WithAdaptiveControl
// installs; the zero value selects the documented defaults (DESIGN.md §14).
type AdaptiveControlConfig = control.Config

// AdaptiveController is the saturation analyzer driving the shed ladder.
// Step() advances it one deterministic tick; State()/Handler() expose it
// for inspection endpoints. Obtain one from CheckpointDir.Controller.
type AdaptiveController = control.Controller

// ControlState is the JSON-shaped controller snapshot State() returns.
type ControlState = control.State

// Shed-ladder levels, re-exported for callers inspecting Controller state.
const (
	ControlNormal    = control.LevelNormal
	ControlLocalOnly = control.LevelLocalOnly
)

// dirMetrics is the CheckpointDir's instrument set; nil (metrics not
// enabled) makes every observation a no-op branch.
type dirMetrics struct {
	appends  *metrics.Counter // aic_ckptdir_append_total
	degraded *metrics.Counter // aic_ckptdir_append_degraded_total
	shed     *metrics.Counter // aic_ckptdir_append_shed_total
}

func newDirMetrics(reg *metrics.Registry) *dirMetrics {
	if reg == nil {
		return nil
	}
	return &dirMetrics{
		appends: reg.Counter("aic_ckptdir_append_total",
			"Checkpoints appended through the facade."),
		degraded: reg.Counter("aic_ckptdir_append_degraded_total",
			"Appends durable locally but short of the replication quorum."),
		shed: reg.Counter("aic_ckptdir_append_shed_total",
			"Appends that skipped the peer fan-out because the controller shed replication."),
	}
}

func (m *dirMetrics) observeAppend(degraded, shed bool) {
	if m == nil {
		return
	}
	m.appends.Inc()
	if degraded {
		m.degraded.Inc()
	}
	if shed {
		m.shed.Inc()
	}
}

// ReplicationEnabled reports whether Appends currently fan out to the
// peer group: true except while the controller is at ControlLocalOnly. A
// directory opened without WithAdaptiveControl reads level normal.
func (d *CheckpointDir) ReplicationEnabled() bool {
	return d.ctrl == nil || d.ctrl.Level() == control.LevelNormal
}

// Metrics returns the registry the directory was opened with (nil without
// WithMetrics/WithAdaptiveControl). Mount Metrics().Handler() at /metrics.
func (d *CheckpointDir) Metrics() *MetricsRegistry { return d.reg }

// Controller returns the adaptive controller WithAdaptiveControl installed
// (nil otherwise). Drive it with Step from the application's pacing loop,
// or Run for a wall-clock ticker; mount Controller().Handler() at /control.
func (d *CheckpointDir) Controller() *AdaptiveController { return d.ctrl }
