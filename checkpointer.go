package aic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"aic/internal/ckpt"
	"aic/internal/compact"
	"aic/internal/control"
	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/metrics"
	"aic/internal/recovery"
	"aic/internal/storage"
)

// Process is a directly-driven process image for library users who want the
// checkpoint/restore machinery without the workload simulator: write pages,
// take full/delta checkpoints, ship the encoded bytes anywhere, and restore
// them with RestoreImage.
type Process struct {
	as      *memsim.AddressSpace
	builder *ckpt.Builder
}

// CompressionStats summarizes one delta checkpoint.
type CompressionStats struct {
	InputBytes  int // raw dirty bytes considered
	OutputBytes int // compressed payload size
	HotPages    int // pages delta-compressed against previous versions
	RawPages    int // pages stored verbatim
}

// Ratio returns OutputBytes/InputBytes (lower is better); 0 when empty.
func (s CompressionStats) Ratio() float64 { return delta.Stats(s).Ratio() }

// NewProcess creates an empty process image. pageSize ≤ 0 selects 4096.
// Options tune the checkpoint machinery (WithParallelism, notably).
func NewProcess(pageSize int, opts ...Option) *Process {
	as := memsim.New(pageSize)
	p := &Process{
		as:      as,
		builder: ckpt.NewBuilder(as.PageSize(), 0, 0),
	}
	applyProcessOptions(p, opts)
	return p
}

// PageSize returns the image's page size.
func (p *Process) PageSize() int { return p.as.PageSize() }

// Write stores data into the page at index starting at offset, allocating
// on demand. Writes must stay within one page.
func (p *Process) Write(page uint64, offset int, data []byte) {
	p.as.Write(page, offset, data, 0)
}

// Free unmaps a page; it disappears from subsequent checkpoints.
func (p *Process) Free(page uint64) { p.as.Free(page) }

// Pages returns the number of mapped pages.
func (p *Process) Pages() int { return p.as.NumPages() }

// DirtyPages returns the number of pages written since the last checkpoint.
func (p *Process) DirtyPages() int { return p.as.DirtyCount() }

// FullCheckpoint captures every mapped page and returns the encoded
// checkpoint. The first checkpoint of a chain must be full.
func (p *Process) FullCheckpoint() []byte {
	return p.builder.FullCheckpoint(p.as).Encode()
}

// DeltaCheckpoint captures the dirty pages with page-aligned delta
// compression (Xdelta3-PA) and returns the encoded checkpoint plus
// compression statistics.
func (p *Process) DeltaCheckpoint() ([]byte, CompressionStats) {
	c, st := p.builder.DeltaCheckpoint(p.as)
	return c.Encode(), CompressionStats(st)
}

// IncrementalCheckpoint captures the dirty pages uncompressed.
func (p *Process) IncrementalCheckpoint() []byte {
	return p.builder.IncrementalCheckpoint(p.as).Encode()
}

// Image is a restored process image.
type Image struct {
	as *memsim.AddressSpace
}

// RestoreImage replays an encoded checkpoint chain — one full checkpoint
// followed by its incrementals in order — and returns the reconstructed
// image.
func RestoreImage(chain [][]byte) (*Image, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("aic: empty restore chain")
	}
	decoded := make([]*ckpt.Checkpoint, len(chain))
	for i, data := range chain {
		c, err := ckpt.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("aic: chain element %d: %w", i, err)
		}
		decoded[i] = c
	}
	as, err := ckpt.Restore(decoded)
	if err != nil {
		return nil, err
	}
	return &Image{as: as}, nil
}

// RestoreReport describes what RestoreLatestGood kept and discarded. For
// the chain-slice form the values are chain positions; for
// CheckpointDir.RestoreLatestGood they are stored sequence numbers.
type RestoreReport struct {
	AnchorSeq int   // where the restored prefix is anchored (a full checkpoint)
	LastSeq   int   // the newest element actually replayed
	Restored  []int // elements replayed, in order
	Discarded []int // elements present but not replayed
	Corrupt   []int // subset of Discarded that failed integrity checks
	// Replica is the one replica every replayed element was read from
	// (RestoreBestReplica: 0 = local, then peers in configuration order;
	// Namespace.Restore: an index into the chain's ring placement); -1 when
	// the replay drew on several replicas, and for single-chain restores.
	Replica int
	// CPUState is the replayed prefix's final execution state — the blob a
	// resumed process loads to continue from the restored image exactly.
	CPUState []byte
}

func goodReportToRestore(rep *recovery.GoodReport) *RestoreReport {
	return &RestoreReport{
		AnchorSeq: rep.AnchorSeq,
		LastSeq:   rep.LastSeq,
		Restored:  rep.Restored,
		Discarded: rep.Discarded,
		Corrupt:   rep.Corrupt,
		Replica:   rep.Replica,
		CPUState:  rep.CPUState,
	}
}

// RestoreLatestGood replays the newest intact full-checkpoint-anchored
// prefix of a possibly-damaged chain. Unlike RestoreImage, which fails hard
// on the first corrupt element, it walks backward past corrupt or truncated
// tails, anchors at the newest intact full checkpoint, and reports what it
// had to discard. It fails only when no full checkpoint survives.
func RestoreLatestGood(chain [][]byte) (*Image, *RestoreReport, error) {
	if len(chain) == 0 {
		return nil, nil, fmt.Errorf("aic: empty restore chain")
	}
	stored := make([]storage.Stored, len(chain))
	for i, data := range chain {
		stored[i] = storage.Stored{Seq: i, Data: data}
	}
	as, rep, err := recovery.RestoreLatestGood(stored)
	if err != nil {
		return nil, nil, fmt.Errorf("aic: %w", err)
	}
	return &Image{as: as}, goodReportToRestore(rep), nil
}

// Page returns a copy of the page at index, or nil when unmapped.
func (im *Image) Page(index uint64) []byte { return im.as.PageCopy(index) }

// Pages returns the number of mapped pages.
func (im *Image) Pages() int { return im.as.NumPages() }

// PageIndexes returns the mapped page indexes in ascending order — with
// Page, enough to walk the whole restored image (the chaos harness rebuilds
// a live address space from it to resume execution).
func (im *Image) PageIndexes() []uint64 { return im.as.MappedPages() }

// PageSize returns the image's page size in bytes.
func (im *Image) PageSize() int { return im.as.PageSize() }

// Matches reports whether the image is byte-identical to the live process.
func (im *Image) Matches(p *Process) bool { return im.as.Equal(p.as) }

// DeltaEncode exposes the rsync-style codec directly: it returns a delta
// stream reconstructing target from source (blockSize ≤ 0 selects the
// default granularity).
func DeltaEncode(source, target []byte, blockSize int) []byte {
	return delta.Encode(source, target, blockSize)
}

// DeltaDecode reverses DeltaEncode.
func DeltaDecode(source, stream []byte) ([]byte, error) {
	return delta.Decode(source, stream)
}

// Seq returns the sequence number the process's next checkpoint will carry.
func (p *Process) Seq() int { return p.builder.Seq() }

// CheckpointDir is a durable checkpoint store for the Process facade. By
// default it is directory-backed — each checkpoint becomes one file in its
// process's directory, and those file names are the chain, so chains
// survive the writing process and can be restored later (or by another
// program) — but it programs only against the storage.Store contract, so
// WithStore can swap in any backend and WithReplication adds remote peers.
//
// The local store and the peers are one replica set, in that order.
// Mutations (Append, Truncate, Remove) run on every replica at once and
// return when the slowest has answered; reads (Chain, Procs, Scrub,
// RestoreLatestGood) consult only the local replica — RestoreBestReplica
// is the path that reads the whole set.
type CheckpointDir struct {
	// The placement, fixed at open: stores[0] is the local store, the
	// write core's must-ack member and the one replica the local reads
	// consult; stores[1:] are the peers. names labels them "local", "0",
	// "1", ….
	names  []string
	stores []storage.Store
	set    *replicaSet // the write core Client shares; owns the dialed peers

	reg  *metrics.Registry   // nil unless opened WithMetrics/WithAdaptiveControl
	met  *dirMetrics         // nil unless instrumented
	ctrl *control.Controller // nil unless opened WithAdaptiveControl

	comp *compact.Compactor // nil unless opened WithCompaction
}

// Append stores an encoded checkpoint under the process name. Sequence
// numbers must be strictly increasing; use Process.Seq before taking the
// checkpoint to label it (equivalently, Process.Seq-1 after). When the
// payload is a checkpoint frame, Append rejects a label that disagrees
// with the frame's own sequence number — a mislabelled frame restores
// today but is condemned by every future Scrub, the worst kind of rot.
//
// With replication configured, Append writes the local store and every peer
// at once and returns when the slowest has answered. A local failure fails
// the append; a local success with a missed peer quorum returns an error
// wrapping ErrDegraded — the checkpoint is safe locally and callers may
// continue in degraded local-only mode or treat the loss of redundancy as
// fatal. A replica that already holds these very bytes at seq (a retry
// after a lost ack) acks. While the adaptive controller is at
// ControlLocalOnly (ReplicationEnabled reports false), the replica set
// shrinks to the local store deliberately and Append succeeds local-only
// without an error; the skip is counted in aic_ckptdir_append_shed_total.
func (d *CheckpointDir) Append(ctx context.Context, proc string, seq int, encoded []byte) error {
	if emb, err := ckpt.PeekSeq(encoded); err == nil && emb != seq {
		return fmt.Errorf("aic: append %s: label seq %d but the checkpoint itself is seq %d (label with Process.Seq before the checkpoint, or Seq-1 after)", proc, seq, emb)
	}
	n := len(d.stores)
	shed := n > 1 && !d.ReplicationEnabled()
	if shed {
		n = 1
	}
	err := d.set.apply(ctx, "append", "put", []write{{key: proc, seq: seq, names: d.names[:n], stores: d.stores[:n],
		do: func(ctx context.Context, s storage.Store) error {
			return storage.PutVerified(ctx, s, proc, seq, encoded)
		},
	}})[0]
	if err == nil || errors.Is(err, ErrDegraded) {
		d.met.observeAppend(err != nil, shed)
	}
	return err
}

// local is the replica set's first member, the node's own store.
func (d *CheckpointDir) local() storage.Store { return d.stores[0] }

// Chain returns the locally stored chain for proc in sequence order, ready
// for RestoreImage. It fails when elements of the chain are unreadable; use
// RestoreLatestGood to salvage a damaged chain (or RestoreBestReplica to
// consult the replication peers too).
//
// Chain and RestoreLatestGood read the local store, not the replica set's
// verified read: a CheckpointDir stores opaque payloads too, which
// recovery.ReplicaSet's frame verification would reject.
func (d *CheckpointDir) Chain(ctx context.Context, proc string) ([][]byte, error) {
	stored, missing, err := d.local().Get(ctx, proc)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("aic: chain for %s is damaged: seqs %v unreadable", proc, missing)
	}
	out := make([][]byte, len(stored))
	for i, s := range stored {
		out[i] = s.Data
	}
	return out, nil
}

// Truncate drops checkpoints before fullSeq (housekeeping after a periodic
// full checkpoint). Like Append, it runs on the local store and every
// replication peer at once, so peer chains stay bounded along with the
// local one; a missed peer quorum returns a DegradedError after the local
// truncate succeeded.
func (d *CheckpointDir) Truncate(ctx context.Context, proc string, fullSeq int) error {
	return d.set.apply(ctx, "truncate", "truncate", []write{{key: proc, names: d.names, stores: d.stores,
		do: func(ctx context.Context, s storage.Store) error { return s.Truncate(ctx, proc, fullSeq) },
	}})[0]
}

// Remove deletes a process's chain — locally and, with replication
// configured, on the peers at the same time; a missed peer quorum returns
// a DegradedError after the local delete succeeded.
func (d *CheckpointDir) Remove(ctx context.Context, proc string) error {
	return d.set.apply(ctx, "remove", "delete", []write{{key: proc, names: d.names, stores: d.stores,
		do: func(ctx context.Context, s storage.Store) error { return s.Delete(ctx, proc) },
	}})[0]
}

// Procs lists the process names with chains in the local store.
func (d *CheckpointDir) Procs(ctx context.Context) ([]string, error) {
	return d.local().List(ctx)
}

// Compact runs one compaction pass over every local chain: chains longer
// than the configured MaxChain are folded into a fresh full anchor plus
// the Keep newest elements, then (on a dedup-enabled directory) the chunk
// store is garbage-collected. Writers are never paused — a flip that loses
// to a concurrent append or truncate is reported in the Raced list and
// retried next pass. Requires WithCompaction at open.
//
// Compact folds local chains only. Replication peers compact under their
// own policy (aicd -compact-interval); no wire operation replaces a peer's
// anchor (DESIGN.md §16).
func (d *CheckpointDir) Compact(ctx context.Context) (*CompactionReport, error) {
	if d.comp == nil {
		return nil, fmt.Errorf("aic: compaction not configured; open WithCompaction")
	}
	return d.comp.RunOnce(ctx)
}

// RunCompaction drives Compact on a timer until ctx is cancelled,
// returning ctx.Err(). A non-positive interval selects one minute. Pass
// errors are absorbed; the next tick retries. Requires WithCompaction at
// open.
func (d *CheckpointDir) RunCompaction(ctx context.Context, interval time.Duration) error {
	if d.comp == nil {
		return fmt.Errorf("aic: compaction not configured; open WithCompaction")
	}
	return d.comp.Run(ctx, interval)
}

// DedupStats reports the chunk store behind a WithDedup directory: live
// chunks, logical bytes referenced, physical bytes on disk. On a directory
// opened without WithDedup the snapshot's Enabled field is false.
func (d *CheckpointDir) DedupStats(ctx context.Context) (DedupStats, error) {
	if fs, ok := d.local().(*storage.FSStore); ok {
		return fs.DedupStats(ctx)
	}
	return DedupStats{}, nil
}

// Close releases resources held by the backing store (network connections to
// replication peers, in particular). The zero-configuration directory-backed
// CheckpointDir holds none; Close is then a no-op.
func (d *CheckpointDir) Close() error { return d.set.close() }

// ScrubReport summarizes a CheckpointDir.Scrub pass; see the field comments
// on the identically-shaped storage report for classification semantics.
type ScrubReport struct {
	Proc         string
	Missing      []int    // committed seqs whose files are gone
	Corrupt      []int    // files failing per-frame CRC/decode checks
	Orphaned     []int    // files in the directory this handle never committed
	StrayRemoved []string // leftover temp files (and old manifest files) cleared
	Repaired     bool
}

// Clean reports whether the committed chain and directory agreed exactly.
func (r *ScrubReport) Clean() bool {
	return len(r.Missing) == 0 && len(r.Corrupt) == 0 && len(r.Orphaned) == 0 &&
		len(r.StrayRemoved) == 0
}

// Scrub cross-checks proc's committed chain against its on-disk files and
// their per-frame CRCs, classifying missing, orphaned and corrupt entries.
// With repair set it restores chain/directory agreement: dead entries are
// dropped, and corrupt files, orphans and stray temp files deleted.
func (d *CheckpointDir) Scrub(ctx context.Context, proc string, repair bool) (*ScrubReport, error) {
	rep, err := d.local().Scrub(ctx, proc, repair)
	if err != nil {
		return nil, err
	}
	return scrubReportFromStore(rep), nil
}

// scrubReportFromStore is the one storage → facade report conversion.
func scrubReportFromStore(rep *storage.ScrubReport) *ScrubReport {
	return &ScrubReport{
		Proc:         rep.Proc,
		Missing:      rep.Missing,
		Corrupt:      rep.Corrupt,
		Orphaned:     rep.Orphaned,
		StrayRemoved: rep.StrayRemoved,
		Repaired:     rep.Repaired,
	}
}

// RestoreLatestGood restores proc from the newest intact
// full-checkpoint-anchored prefix of its stored chain, tolerating missing,
// truncated and corrupt elements. The report's values are stored sequence
// numbers; missing files appear under Discarded.
func (d *CheckpointDir) RestoreLatestGood(ctx context.Context, proc string) (*Image, *RestoreReport, error) {
	chain, missing, err := d.local().Get(ctx, proc)
	if err != nil {
		return nil, nil, err
	}
	if len(chain) == 0 {
		return nil, nil, fmt.Errorf("aic: no readable checkpoints for %s", proc)
	}
	as, rep, err := recovery.RestoreLatestGood(chain)
	if err != nil {
		return nil, nil, fmt.Errorf("aic: %w", err)
	}
	out := goodReportToRestore(rep)
	out.Discarded = append(out.Discarded, missing...)
	sort.Ints(out.Discarded)
	return &Image{as: as}, out, nil
}

// RestoreBestReplica restores proc from the replica set local store + every
// replication peer, in that order (DESIGN.md §15): the newest intact full
// checkpoint any replica holds, then the longest contiguous verifiable run
// of deltas, each seq from the first replica whose copy verifies. This is
// the disaster path — it succeeds as long as the replicas between them
// still hold a restorable prefix.
func (d *CheckpointDir) RestoreBestReplica(ctx context.Context, proc string) (*Image, *RestoreReport, error) {
	return d.set.restore(ctx, proc, func(string) ([]string, []storage.Store, error) { return d.names, d.stores, nil })
}
