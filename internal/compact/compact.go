// Package compact is the online delta-chain compactor: a background
// worker that rewrites long chains into fresh full anchors without
// pausing writers, enforcing a keep-k retention policy that bounds
// worst-case restore (rewind) cost, and garbage-collecting the chunk
// store behind dedup-enabled FSStores.
//
// The protocol is copy-then-flip. The copy phase runs with no locks held:
// read the chain, replay its prefix with recovery.RestoreLatestGood, and
// synthesize an equivalent full checkpoint (ckpt.FullFromImage) at the
// prefix's last element. The flip phase is the store's ReplaceAnchor —
// one brief critical section under the same per-chain token writers use,
// which re-verifies the prefix is unchanged and either installs the
// anchor or reports storage.ErrCompactRaced, in which case the compactor
// simply moves on (the next pass sees the fresh chain). Appends landing
// during the copy phase are untouched: they sit above the anchor seq.
//
// A compaction never changes what any committed seq restores to: the
// synthesized anchor restores to exactly the prefix's replayed state, and
// a chain whose prefix does not replay cleanly (corrupt, gapped or
// missing elements) is skipped — folding damage into an anchor would
// launder it into "good" state.
package compact

import (
	"context"
	"errors"
	"sort"
	"time"

	"aic/internal/ckpt"
	"aic/internal/metrics"
	"aic/internal/recovery"
	"aic/internal/storage"
)

// Store is what the compactor needs from a checkpoint store: the base
// contract, the anchor flip, and the chunk GC that runs after each pass (a
// no-op on a store without dedup). *storage.FSStore, on disk or in memory,
// qualifies.
type Store interface {
	storage.Store
	storage.AnchorReplacer
	GCChunks(ctx context.Context) (removed int, reclaimed int64, err error)
}

// Config tunes the compactor. The zero value compacts chains longer than
// DefaultMaxChain down to DefaultKeep elements and garbage-collects
// unreferenced chunks after each pass.
type Config struct {
	// MaxChain is the chain length that triggers compaction; chains at or
	// below it are left alone. Default 32.
	MaxChain int
	// Keep is how many newest elements survive a compaction (the keep-k
	// retention policy): the chain becomes a fresh full anchor plus the
	// Keep-1 elements above it, so a restore rewinds at most Keep-1
	// deltas. Default 8; clamped to [1, MaxChain].
	Keep int
	// Metrics instruments the compactor when non-nil.
	Metrics *metrics.Registry
}

// Compactor defaults.
const (
	DefaultMaxChain = 32
	DefaultKeep     = 8
)

func (c Config) withDefaults() Config {
	if c.MaxChain <= 0 {
		c.MaxChain = DefaultMaxChain
	}
	if c.Keep <= 0 {
		c.Keep = DefaultKeep
	}
	if c.Keep > c.MaxChain {
		c.Keep = c.MaxChain
	}
	return c
}

// Report summarizes one compaction pass.
type Report struct {
	// Procs is how many chains the pass examined.
	Procs int
	// Compacted lists the procs whose chains were rewritten.
	Compacted []string
	// Raced lists the procs whose flip lost to a concurrent mutation
	// (benign; retried next pass).
	Raced []string
	// Skipped lists procs whose prefix did not replay cleanly and were
	// left for Scrub/restore tooling.
	Skipped []string
	// ElemsDropped counts chain elements folded away.
	ElemsDropped int
	// ChunksReclaimed / BytesReclaimed report the chunk GC that ran after
	// the pass (zero when GC is disabled or the store has no chunk store).
	ChunksReclaimed int
	BytesReclaimed  int64
}

// Compactor drives chain compaction over one store. Safe for concurrent
// use with writers; run one Compactor per store.
type Compactor struct {
	store Store
	cfg   Config
	met   *compactMetrics
}

type compactMetrics struct {
	runs      *metrics.Counter   // aic_compact_runs_total
	rewritten *metrics.Counter   // aic_compact_chains_rewritten_total
	raced     *metrics.Counter   // aic_compact_raced_total
	dropped   *metrics.Counter   // aic_compact_elems_dropped_total
	dur       *metrics.Histogram // aic_compact_pass_duration_seconds
}

func newCompactMetrics(reg *metrics.Registry) *compactMetrics {
	if reg == nil {
		return nil
	}
	return &compactMetrics{
		runs: reg.Counter("aic_compact_runs_total",
			"Compaction passes started."),
		rewritten: reg.Counter("aic_compact_chains_rewritten_total",
			"Chains folded into a fresh full anchor."),
		raced: reg.Counter("aic_compact_raced_total",
			"Anchor flips abandoned because a writer mutated the chain first."),
		dropped: reg.Counter("aic_compact_elems_dropped_total",
			"Chain elements folded away by compaction."),
		dur: reg.Histogram("aic_compact_pass_duration_seconds",
			"Wall time of one full compaction pass.", nil),
	}
}

// New builds a compactor over store.
func New(store Store, cfg Config) *Compactor {
	cfg = cfg.withDefaults()
	return &Compactor{store: store, cfg: cfg, met: newCompactMetrics(cfg.Metrics)}
}

// RunOnce executes one compaction pass over every chain in the store,
// then (unless disabled) garbage-collects unreferenced chunks.
func (c *Compactor) RunOnce(ctx context.Context) (*Report, error) {
	t0 := time.Now()
	if c.met != nil {
		c.met.runs.Inc()
	}
	rep := &Report{}
	procs, err := c.store.List(ctx)
	if err != nil {
		return rep, err
	}
	for _, proc := range procs {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Procs++
		dropped, err := c.CompactProc(ctx, proc)
		switch {
		case errors.Is(err, storage.ErrCompactRaced):
			rep.Raced = append(rep.Raced, proc)
			if c.met != nil {
				c.met.raced.Inc()
			}
		case err != nil:
			rep.Skipped = append(rep.Skipped, proc)
		case dropped > 0:
			rep.Compacted = append(rep.Compacted, proc)
			rep.ElemsDropped += dropped
			if c.met != nil {
				c.met.rewritten.Inc()
				c.met.dropped.Add(float64(dropped))
			}
		}
	}
	n, b, err := c.store.GCChunks(ctx)
	if err != nil {
		return rep, err
	}
	rep.ChunksReclaimed, rep.BytesReclaimed = n, b
	if c.met != nil {
		c.met.dur.Observe(time.Since(t0).Seconds())
	}
	return rep, nil
}

// errSkip marks chains whose prefix cannot be folded safely this pass.
var errSkip = errors.New("compact: chain prefix does not replay cleanly; skipped")

// CompactProc compacts one chain if it exceeds MaxChain, returning how
// many elements were folded away (0 = nothing to do). A flip lost to a
// concurrent writer returns storage.ErrCompactRaced; a prefix that does
// not replay cleanly returns an error and leaves the chain for Scrub.
func (c *Compactor) CompactProc(ctx context.Context, proc string) (int, error) {
	chain, missing, err := c.store.Get(ctx, proc)
	if err != nil {
		return 0, err
	}
	if len(chain) <= c.cfg.MaxChain {
		return 0, nil
	}
	sort.SliceStable(chain, func(i, j int) bool { return chain[i].Seq < chain[j].Seq })
	cut := len(chain) - c.cfg.Keep // index of the new anchor element
	if cut < 1 {
		return 0, nil
	}
	anchor := chain[cut]
	for _, seq := range missing {
		if seq <= anchor.Seq {
			return 0, errSkip
		}
	}
	prefix := chain[:cut+1]
	drop := make([]int, cut)
	for i, s := range prefix[:cut] {
		drop[i] = s.Seq
	}

	// Copy phase, no locks: replay the prefix and demand it reaches the
	// cut intact. Elements RestoreLatestGood discards as stale (superseded
	// by a newer full inside the prefix) fold away harmlessly — they do
	// not contribute to any restore today — but a corrupt element or a
	// replay stopping short of the cut means the synthesized anchor would
	// restore differently than the chain does, which compaction must
	// never cause; such chains are left for Scrub.
	as, rep, err := recovery.RestoreLatestGood(prefix)
	if err != nil {
		return 0, errSkip
	}
	if rep.LastSeq != anchor.Seq || len(rep.Corrupt) != 0 {
		return 0, errSkip
	}
	full := ckpt.FullFromImage(as, anchor.Seq, rep.CPUState).Encode()

	// Flip phase: one critical section under the chain's commit token.
	if err := c.store.ReplaceAnchor(ctx, proc, anchor.Seq, full, drop); err != nil {
		return 0, err
	}
	return cut, nil
}

// Run drives RunOnce every interval until ctx is cancelled, returning
// ctx.Err(). Pass errors are absorbed (the next tick retries); it is the
// long-running daemon loop cmd/aicd and the facade expose.
func (c *Compactor) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			_, _ = c.RunOnce(ctx)
		}
	}
}
