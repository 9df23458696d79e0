package remote

import (
	"aic/internal/metrics"
)

// serverMetrics is the replication server's instrument set; nil (metrics
// not enabled) makes every observation a no-op branch.
type serverMetrics struct {
	stagingBytes *metrics.Gauge   // aic_remote_server_staging_bytes
	commits      *metrics.Counter // aic_remote_server_commits_total
}

// observeStaging shifts the staged-bytes gauge by delta (negative when a
// transfer commits, poisons or is forgotten).
func (m *serverMetrics) observeStaging(delta int) {
	if m == nil {
		return
	}
	m.stagingBytes.Add(float64(delta))
}

// observeCommit counts one durably committed object.
func (m *serverMetrics) observeCommit() {
	if m == nil {
		return
	}
	m.commits.Inc()
}

// SetMetrics instruments the server against reg (DESIGN.md §14 documents
// the surface). Call before Serve.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.met = &serverMetrics{
		stagingBytes: reg.Gauge("aic_remote_server_staging_bytes",
			"Bytes held in partial (resumable) transfers."),
		commits: reg.Counter("aic_remote_server_commits_total",
			"Checkpoint objects committed to the backing store."),
	}
}

// clientMetrics is one RemoteStore's instrument set, labelled by peer
// address. nil (metrics not enabled) makes every observation a no-op.
type clientMetrics struct {
	opDur     *metrics.HistogramVec // aic_remote_op_duration_seconds{peer,op}
	commitRTT *metrics.Histogram    // aic_remote_put_rtt_seconds{peer}
	retries   *metrics.Counter      // aic_remote_retries_total{peer}
}

func newClientMetrics(reg *metrics.Registry, peer string) *clientMetrics {
	if reg == nil {
		return nil
	}
	return &clientMetrics{
		opDur: reg.HistogramVec("aic_remote_op_duration_seconds",
			"Wall time of one client operation including retries.", nil, "peer", "op"),
		commitRTT: reg.HistogramVec("aic_remote_put_rtt_seconds",
			"Round trip from Put commit frame to the peer's durable ack, including the peer draining data frames still in the socket.", nil, "peer").With(peer),
		retries: reg.CounterVec("aic_remote_retries_total",
			"Operation attempts after the first (transport-failure retries).", "peer").With(peer),
	}
}

func (m *clientMetrics) observeOp(peer, op string, seconds float64) {
	if m == nil {
		return
	}
	m.opDur.With(peer, op).Observe(seconds)
}
