package storage

import (
	"sync/atomic"
	"time"

	"aic/internal/metrics"
)

// fsMetrics is FSStore's instrument set. A nil *fsMetrics (metrics not
// enabled) makes every observation a single nil-check branch, keeping the
// uninstrumented hot path at its benchmarked cost.
type fsMetrics struct {
	putDur      *metrics.Histogram // aic_fsstore_put_duration_seconds
	stagedBytes *metrics.Counter   // aic_fsstore_staged_bytes_total
	fsyncTotal  *metrics.Counter   // aic_fsstore_fsync_total
	syncDur     *metrics.Histogram // aic_fsstore_sync_duration_seconds

	dedupLogical   *metrics.Gauge   // aic_dedup_logical_bytes
	dedupPhysical  *metrics.Gauge   // aic_dedup_physical_bytes
	dedupRatio     *metrics.Gauge   // aic_dedup_ratio
	dedupReclaimed *metrics.Counter // aic_dedup_chunks_reclaimed_total
}

func newFSMetrics(reg *metrics.Registry) *fsMetrics {
	return &fsMetrics{
		putDur: reg.Histogram("aic_fsstore_put_duration_seconds",
			"Wall time of FSStore.Put, call to acknowledged commit.", nil),
		stagedBytes: reg.Counter("aic_fsstore_staged_bytes_total",
			"Checkpoint bytes staged for commit."),
		fsyncTotal: reg.Counter("aic_fsstore_fsync_total",
			"File and directory fsyncs issued."),
		syncDur: reg.Histogram("aic_fsstore_sync_duration_seconds",
			"Latency of individual file/directory fsyncs.", nil),
		dedupLogical: reg.Gauge("aic_dedup_logical_bytes",
			"Payload bytes of live recipes — what the store would hold without dedup."),
		dedupPhysical: reg.Gauge("aic_dedup_physical_bytes",
			"Chunk bytes actually on disk in the content-addressed chunk store."),
		dedupRatio: reg.Gauge("aic_dedup_ratio",
			"Dedup ratio: logical bytes over physical chunk bytes."),
		dedupReclaimed: reg.Counter("aic_dedup_chunks_reclaimed_total",
			"Unreferenced chunk files removed by GCChunks."),
	}
}

// meteredFS wraps FSStore's FS shim to count fsyncs and observe their
// latency — the saturation signal internal/control watches. Only the sync
// calls are intercepted; everything else passes through untouched.
type meteredFS struct {
	FS
	met *fsMetrics
}

func (m meteredFS) SyncFile(name string) error {
	t0 := time.Now()
	err := m.FS.SyncFile(name)
	m.met.fsyncTotal.Inc()
	m.met.syncDur.Observe(time.Since(t0).Seconds())
	return err
}

func (m meteredFS) SyncDir(name string) error {
	t0 := time.Now()
	err := m.FS.SyncDir(name)
	m.met.fsyncTotal.Inc()
	m.met.syncDur.Observe(time.Since(t0).Seconds())
	return err
}

// SetMetrics instruments the store against reg (see DESIGN.md §14 for the
// metric surface). Call it right after construction, before the store is
// shared: it swaps the FS shim for a metered wrapper and is not
// synchronized against in-flight operations.
func (fs *FSStore) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	fs.met = newFSMetrics(reg)
	fs.fsys = meteredFS{FS: fs.fsys, met: fs.met}
}

// DelayFS wraps an FS and stalls every SyncFile/SyncDir by a configurable
// delay — the fsync-latency saturation injector the control-loop chaos
// scenario arms and clears at runtime. Safe for concurrent use.
type DelayFS struct {
	FS
	syncDelay atomic.Int64 // nanoseconds added to every sync
}

// NewDelayFS wraps fsys (nil selects OSFS) with no delay armed.
func NewDelayFS(fsys FS) *DelayFS {
	if fsys == nil {
		fsys = OSFS{}
	}
	return &DelayFS{FS: fsys}
}

// SetSyncDelay arms (or, with 0, clears) the per-sync stall.
func (d *DelayFS) SetSyncDelay(delay time.Duration) {
	d.syncDelay.Store(int64(delay))
}

func (d *DelayFS) stall() {
	if ns := d.syncDelay.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
}

// SyncFile stalls by the armed delay, then syncs.
func (d *DelayFS) SyncFile(name string) error {
	d.stall()
	return d.FS.SyncFile(name)
}

// SyncDir stalls by the armed delay, then syncs.
func (d *DelayFS) SyncDir(name string) error {
	d.stall()
	return d.FS.SyncDir(name)
}
