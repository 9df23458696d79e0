package aic

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"aic/internal/ckpt"
	"aic/internal/compact"
	"aic/internal/control"
	"aic/internal/metrics"
	"aic/internal/remote"
	"aic/internal/storage"
)

// Store is the checkpoint storage contract the facade programs against:
// anything satisfying it — the built-in directory store, an in-memory
// model store, a networked replication peer — can back a CheckpointDir.
// It is an alias for the internal interface, so the facade, the recovery
// manager and the replication transport all agree on one type.
type Store = storage.Store

// Stored is one element of a stored checkpoint chain.
type Stored = storage.Stored

// StoreTarget models a store's bandwidth/latency (used by the simulation
// paths; a zero value is fine for real storage).
type StoreTarget = storage.Target

// StoreScrubReport is the store-level scrub report type custom Store
// implementations return; CheckpointDir.Scrub re-exposes it in facade shape.
type StoreScrubReport = storage.ScrubReport

// ErrDegraded marks a checkpoint that is durable locally but failed to reach
// its replication quorum: the system keeps running in degraded local-only
// mode, and the caller decides whether that redundancy loss is tolerable.
var ErrDegraded = errors.New("aic: replication degraded to local-only")

// ErrBadProcName reports a process name every Store rejects at its
// boundary: empty, containing a path separator or NUL byte, or a "." /
// ".." directory reference. Rejection happens before any I/O, locally and
// across the replication wire alike; match with errors.Is. At the
// multi-tenant client boundary the rule is stricter: "@" and "#" are
// reserved for tenant namespacing and stripe chains.
var ErrBadProcName = storage.ErrBadProcName

// ErrQuotaExceeded reports a checkpoint rejected by its tenant's
// admission quota (bytes or chain count). It is terminal — retrying
// cannot free quota — and crosses the replication wire intact; match with
// errors.Is.
var ErrQuotaExceeded = storage.ErrQuotaExceeded

// TenantQuota is the per-tenant admission limit enforced by a quota-
// wrapped store (cmd/aicd's -quota-bytes / -quota-chains flags, or a
// storage.QuotaStore in process). Zero fields are unlimited.
type TenantQuota = storage.Quota

// DegradedError carries the quorum failure behind an ErrDegraded result.
type DegradedError struct {
	Op  string
	Err error
}

// Error renders the degraded sentinel, the failed op, and the cause.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("%v: %s: %v", ErrDegraded, e.Op, e.Err)
}

// Unwrap exposes the underlying quorum error (a storage.QuorumError when
// the peer fan-out missed quorum).
func (e *DegradedError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrDegraded) true for DegradedError values.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Replication configures checkpoint fan-out to peer stores.
type Replication struct {
	// Peers are replication server addresses (host:port) reached over the
	// wire protocol (see cmd/aicd).
	Peers []string
	// Stores are pre-built peer stores appended after the dialed Peers —
	// custom transports, or in-process stores in tests.
	Stores []Store
	// Quorum is how many peers must acknowledge a checkpoint before the
	// append counts as replicated; 0 selects a majority of the peers.
	Quorum int
	// DialTimeout, OpTimeout and Retries tune the per-peer client's
	// robustness envelope; zero values select the remote package defaults
	// (5s, 30s, 4 retries with exponential backoff and jitter).
	DialTimeout time.Duration
	OpTimeout   time.Duration
	Retries     int
	// JitterSeed pins the per-peer backoff-jitter RNG so retry schedules
	// replay deterministically (peer i is seeded JitterSeed+i); 0 keeps the
	// default wall-clock seeding.
	JitterSeed int64
}

// DedupConfig tunes the content-addressed chunk store behind WithDedup:
// the content-defined chunking geometry (min/avg/max chunk sizes) and the
// payload floor below which checkpoints are stored raw. The zero value
// selects the storage package defaults (2 KiB / 8 KiB / 64 KiB).
type DedupConfig = storage.DedupConfig

// DedupStats is a point-in-time snapshot of the chunk store: live chunk
// count, logical bytes referenced by recipes, and physical chunk bytes on
// disk. Ratio() is the dedup factor.
type DedupStats = storage.DedupStats

// CompactionConfig tunes the online chain compactor behind WithCompaction.
type CompactionConfig struct {
	// MaxChain is the chain length that triggers compaction; 0 selects the
	// compactor default (32).
	MaxChain int
	// Keep is how many newest elements survive a compaction — the keep-k
	// retention bound on restore rewind cost; 0 selects the default (8).
	Keep int
}

// CompactionReport summarizes one compaction pass: chains examined,
// rewritten, raced and skipped, elements folded away, and chunks the
// post-pass garbage collection reclaimed.
type CompactionReport = compact.Report

// ErrCompactRaced reports a compaction flip abandoned because a writer
// mutated the chain between the compactor's read and its anchor install.
// It is benign — the store is untouched and the next pass retries on a
// fresh view; match with errors.Is.
var ErrCompactRaced = storage.ErrCompactRaced

// Option configures the facade constructors (NewProcess,
// OpenCheckpointDir). Options irrelevant to a constructor are ignored, so
// one option set can configure a whole deployment.
type Option func(*config)

type config struct {
	parallelism int
	store       Store
	repl        Replication
	replicated  bool // WithReplication was given
	metrics     *metrics.Registry
	adaptive    *control.Config
	dedup       *storage.DedupConfig
	compaction  *CompactionConfig
}

// WithParallelism sets the number of workers a Process's delta encoder fans
// dirty pages across: 0 (the default) uses all of GOMAXPROCS — the paper's
// dedicated-core compression model — and 1 forces the serial encoder. The
// encoded stream is byte-identical either way, so the knob only trades
// latency against core usage.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithStore backs a CheckpointDir with a custom Store instead of the
// default directory store (the dir argument is then ignored).
func WithStore(s Store) Option {
	return func(c *config) { c.store = s }
}

// WithReplication adds the configured peers to a CheckpointDir's replica
// set: every Append, Truncate and Remove runs on the local store and the
// peers at once. See Replication and CheckpointDir.Append for the
// degraded-mode semantics.
func WithReplication(r Replication) Option {
	return func(c *config) { c.repl, c.replicated = r, true }
}

// WithMetrics instruments the CheckpointDir and every layer beneath it —
// the directory store's commits and fsyncs, the replication clients,
// the quorum fan-out — against reg. DESIGN.md §14 documents the metric
// surface; serve reg.Handler() at /metrics for Prometheus scraping.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(c *config) { c.metrics = reg }
}

// WithDedup turns on chunk-level content-addressed storage in the
// directory store: every checkpoint is cut into content-defined chunks,
// chunks are stored once under their SHA-256 identity with durable
// refcounts, and identical content across processes, sequence numbers and
// tenants shares disk. Restores are byte-identical and content-verified
// end to end. Requires the default directory store or a WithStore-supplied
// *storage.FSStore; OpenCheckpointDir fails otherwise. See DESIGN.md §16.
func WithDedup(cfg DedupConfig) Option {
	return func(c *config) { cc := cfg; c.dedup = &cc }
}

// WithCompaction arms the online chain compactor: chains longer than
// MaxChain are folded into a fresh full anchor plus the Keep newest
// elements, without pausing writers, and (on a dedup-enabled store) the
// chunks the folded prefix referenced are garbage-collected. Drive it via
// CheckpointDir.Compact for one pass or CheckpointDir.RunCompaction for
// the background loop. Requires a store implementing anchor replacement
// and chunk GC (every *storage.FSStore does); OpenCheckpointDir fails
// otherwise.
func WithCompaction(cfg CompactionConfig) Option {
	return func(c *config) { cc := cfg; c.compaction = &cc }
}

// WithAdaptiveControl installs a saturation controller over the directory:
// it watches fsync latency and, with hysteresis, sheds the replication
// fan-out while the tier stays saturated (Appends go local-only) and
// restores it once headroom returns. The controller's level is the shed's
// one state: ReplicationEnabled and the Append fan-out gate both read it. Implies WithMetrics (a private registry is
// created when none was supplied); the controller is returned by
// CheckpointDir.Controller and must be driven via Step or Run.
func WithAdaptiveControl(cfg AdaptiveControlConfig) Option {
	return func(c *config) { cc := cfg; c.adaptive = &cc }
}

func buildConfig(opts []Option) config {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// OpenCheckpointDir opens (creating if needed) a checkpoint directory.
// Options may replace the backing store (WithStore) and add replication
// peers (WithReplication), which join the local store in one fixed replica
// set.
//
// For multi-peer code that needs consistent-hash placement, tenant
// namespaces, per-tenant quotas or striped large checkpoints, use
// NewClient, which speaks the same wire protocol. A CheckpointDir maps onto
// the default tenant: chains it wrote are readable through NewClient's
// Namespace("default") unchanged.
func OpenCheckpointDir(dir string, opts ...Option) (*CheckpointDir, error) {
	c := buildConfig(opts)
	local := c.store
	if local == nil {
		fs, err := storage.NewFSStore(dir, storage.Target{Name: "dir"})
		if err != nil {
			return nil, err
		}
		local = fs
	}
	if c.adaptive != nil && c.metrics == nil {
		c.metrics = metrics.NewRegistry()
	}
	repl := c.repl
	if c.replicated && len(repl.Peers)+len(repl.Stores) == 0 {
		return nil, errors.New("aic: replication: storage: replicated store needs at least one peer")
	}
	set, err := newReplicaSet(true, repl.Quorum, len(repl.Peers)+len(repl.Stores), remote.Config{DialTimeout: repl.DialTimeout,
		OpTimeout: repl.OpTimeout, Retries: repl.Retries, JitterSeed: repl.JitterSeed, Metrics: c.metrics})
	if err != nil {
		return nil, fmt.Errorf("aic: replication: storage: %w", err)
	}
	d := &CheckpointDir{names: []string{"local"}, stores: []storage.Store{local}, set: set}
	if c.metrics != nil {
		if fs, ok := local.(*storage.FSStore); ok {
			fs.SetMetrics(c.metrics)
		}
		d.reg = c.metrics
		d.met = newDirMetrics(c.metrics)
	}
	if c.dedup != nil {
		fs, ok := local.(*storage.FSStore)
		if !ok {
			return nil, fmt.Errorf("aic: WithDedup requires the directory store, got %T", local)
		}
		// The enable scan walks the local directory once at construction,
		// before any caller context exists.
		//aiclint:ignore ctxflow construction-time local index rebuild; no caller context exists yet
		if err := fs.EnableDedup(context.Background(), *c.dedup); err != nil {
			return nil, fmt.Errorf("aic: dedup: %w", err)
		}
	}
	if c.compaction != nil {
		cs, ok := local.(compact.Store)
		if !ok {
			return nil, fmt.Errorf("aic: WithCompaction requires a store with anchor replacement and chunk GC, got %T", local)
		}
		d.comp = compact.New(cs, compact.Config{
			MaxChain: c.compaction.MaxChain,
			Keep:     c.compaction.Keep,
			Metrics:  c.metrics,
		})
	}
	for i, addr := range repl.Peers {
		d.stores = append(d.stores, set.dial(strconv.Itoa(i), addr))
	}
	d.stores = append(d.stores, repl.Stores...)
	for i := range d.stores[1:] {
		d.names = append(d.names, strconv.Itoa(i))
	}
	if c.adaptive != nil {
		d.ctrl = control.New(*c.adaptive, control.NewRegistryCollector(c.metrics), c.metrics)
	}
	return d, nil
}

// applyProcessOptions wires constructor options into a Process.
func applyProcessOptions(p *Process, opts []Option) {
	c := buildConfig(opts)
	if c.parallelism != 0 {
		ckpt.WithParallelism(c.parallelism)(p.builder)
	}
}
