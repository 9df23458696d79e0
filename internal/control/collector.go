package control

import (
	"sync"

	"aic/internal/metrics"
)

// fsyncHistName is the canonical series the registry collector samples. It
// is part of the stable metric surface (DESIGN.md §14); the storage layer
// registers it when instrumented with a registry.
const fsyncHistName = "aic_fsstore_sync_duration_seconds"

// RegistryCollector samples Signals from a metrics.Registry: the fsync p99
// comes from the windowed delta of the fsync-duration histogram between
// consecutive Collect calls. A series that does not exist yet (store not
// instrumented, no traffic) reads as zero — below the threshold.
type RegistryCollector struct {
	reg *metrics.Registry

	mu   sync.Mutex
	prev metrics.HistogramSnapshot
}

// NewRegistryCollector builds a collector over reg.
func NewRegistryCollector(reg *metrics.Registry) *RegistryCollector {
	return &RegistryCollector{reg: reg}
}

// Collect returns one sample. An empty window (no fsyncs since the last
// sample) reports FsyncP99 0: an idle tier is not a saturated tier.
func (c *RegistryCollector) Collect() Signals {
	var sig Signals
	cur, ok := c.reg.HistogramSnapshot(fsyncHistName)
	if !ok {
		return sig
	}
	c.mu.Lock()
	win := cur.Sub(c.prev)
	c.prev = cur
	c.mu.Unlock()
	if win.Count > 0 {
		sig.FsyncP99 = win.Quantile(0.99)
	}
	return sig
}
