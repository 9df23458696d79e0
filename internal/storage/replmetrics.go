package storage

import (
	"aic/internal/metrics"
)

// replMetrics is the fan-out's instrument set; nil (metrics not enabled)
// makes every observation a no-op branch.
type replMetrics struct {
	fanouts      *metrics.CounterVec // aic_replicated_fanout_total{op}
	quorumMisses *metrics.CounterVec // aic_replicated_quorum_miss_total{op}
	partialAcks  *metrics.CounterVec // aic_replicated_partial_ack_total{op}
	readBytes    *metrics.CounterVec // aic_replicated_read_bytes_total{op}
}

// SetMetrics instruments the fan-out against reg (DESIGN.md §14 documents
// the surface); a nil reg leaves it silent. Call before sharing the fan-out
// across goroutines.
func (f *FanOut) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	f.met = &replMetrics{
		fanouts: reg.CounterVec("aic_replicated_fanout_total",
			"Operations fanned out to the peer group.", "op"),
		quorumMisses: reg.CounterVec("aic_replicated_quorum_miss_total",
			"Fan-outs acknowledged by fewer than quorum peers.", "op"),
		partialAcks: reg.CounterVec("aic_replicated_partial_ack_total",
			"Fan-outs that met quorum but lost at least one peer.", "op"),
		readBytes: reg.CounterVec("aic_replicated_read_bytes_total",
			"Element body bytes replica-set reads downloaded.", "op"),
	}
}

// observeFanOut records one completed fan-out: how many peers acked out of
// total, against the quorum threshold.
func (m *replMetrics) observeFanOut(op string, acked, total, quorum int) {
	if m == nil {
		return
	}
	m.fanouts.With(op).Inc()
	if acked < quorum {
		m.quorumMisses.With(op).Inc()
	} else if acked < total {
		m.partialAcks.With(op).Inc()
	}
}

// observeReadBytes records n element body bytes a replica-set read
// downloaded.
func (m *replMetrics) observeReadBytes(op string, n int) {
	if m == nil {
		return
	}
	m.readBytes.With(op).Add(float64(n))
}
