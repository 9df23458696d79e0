package aic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aic/internal/ckpt"
	"aic/internal/recovery"
	"aic/internal/remote"
	"aic/internal/ring"
	"aic/internal/storage"
)

// ErrNoQuorum reports a checkpoint write that could not reach its write
// quorum: fewer than the required number of replica peers acknowledged the
// element, so it is NOT committed. Match with errors.Is.
var ErrNoQuorum = errors.New("aic: write quorum not reached")

// ClientConfig configures a ring-aware multi-tenant checkpoint client —
// the service-shaped successor to OpenCheckpointDir. The client places
// every (tenant, proc) chain on a consistent-hash ring of aicd peers,
// fans each checkpoint out to the chain's replica set, and stripes large
// checkpoints across distinct peers stdchk-style.
type ClientConfig struct {
	// Peers are aicd replication-server addresses (host:port) joined to
	// the placement ring under their address as the ring name.
	Peers []string
	// Stores adds pre-built stores to the ring under explicit names —
	// in-process stores in tests, or custom transports. Names must not
	// collide with Peers addresses.
	Stores map[string]Store
	// Replicas is the replica-set size for every chain (default 2,
	// clamped to the ring size).
	Replicas int
	// Vnodes is the virtual-node count per peer on the placement ring
	// (default 128); more vnodes smooth the load split.
	Vnodes int
	// WriteQuorum is how many replica peers must acknowledge an element
	// before Checkpoint reports it committed; 0 selects a majority of
	// Replicas, and NewClient rejects more than Replicas. Quorum met with
	// some peers failed returns a DegradedError.
	WriteQuorum int
	// StripeThreshold stripes checkpoints larger than this many bytes
	// across StripeCount peers (0 disables striping).
	StripeThreshold int
	// StripeCount is how many stripes a large checkpoint splits into
	// (default = Replicas, minimum 2); NewClient rejects more than 1024,
	// the most a restore accepts.
	StripeCount int
	// DialTimeout, OpTimeout and Retries tune each peer client's
	// robustness envelope; zero values select the remote-package defaults.
	DialTimeout time.Duration
	OpTimeout   time.Duration
	Retries     int
	// JitterSeed pins the per-peer backoff-jitter RNG (the i-th peer dialed,
	// AddPeer joins included, is seeded JitterSeed+i); 0 keeps wall-clock
	// seeding.
	JitterSeed int64
	// Metrics instruments the peer clients, the replica fan-outs and the
	// rebalancer against this registry.
	Metrics *MetricsRegistry
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.StripeCount <= 0 {
		c.StripeCount = c.Replicas
	}
	if c.StripeCount < 2 {
		c.StripeCount = 2
	}
	return c
}

// Client is a handle on the sharded checkpoint service. It is safe for
// concurrent use; ring membership changes (AddPeer, RemovePeer, Rebalance)
// serialize against in-flight operations only for the ring lookup itself.
type Client struct {
	cfg ClientConfig

	mu      sync.RWMutex
	ring    *ring.Ring
	settled *ring.Ring // membership as of the last completed rebalance
	stores  map[string]storage.Store
	rebal   *ring.Rebalancer
	closed  bool
	set     *replicaSet // the write core CheckpointDir shares; owns the dialed peers
}

// NewClient connects a ring-aware client to the given peer set. At least
// one peer (or named store) is required; no connection is made until the
// first operation.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if err := ckpt.CheckStripeCount(cfg.StripeCount); err != nil {
		return nil, fmt.Errorf("aic: %w", err)
	}
	set, err := newReplicaSet(false, cfg.WriteQuorum, cfg.Replicas, remote.Config{DialTimeout: cfg.DialTimeout,
		OpTimeout: cfg.OpTimeout, Retries: cfg.Retries, JitterSeed: cfg.JitterSeed, Metrics: cfg.Metrics})
	if err != nil {
		return nil, fmt.Errorf("aic: write %w", err)
	}
	c := &Client{cfg: cfg, stores: make(map[string]storage.Store), set: set}
	var names []string
	for _, addr := range cfg.Peers {
		if _, dup := c.stores[addr]; dup {
			set.close()
			return nil, fmt.Errorf("aic: duplicate ring peer %q", addr)
		}
		c.stores[addr] = set.dial(addr, addr)
		names = append(names, addr)
	}
	for name, st := range cfg.Stores {
		if _, dup := c.stores[name]; dup {
			set.close()
			return nil, fmt.Errorf("aic: ring name %q used by both a peer and a store", name)
		}
		c.stores[name] = st
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("aic: a ring needs at least one peer or store")
	}
	c.ring = ring.New(names, cfg.Vnodes)
	c.settled = c.ring
	c.rebal = &ring.Rebalancer{Replicas: cfg.Replicas, Store: c.lookupStore}
	c.rebal.SetMetrics(cfg.Metrics)
	return c, nil
}

// lookupStore resolves a ring peer name to its store (nil = unreachable),
// the hook the rebalancer moves chains through.
func (c *Client) lookupStore(peer string) storage.Store {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stores[peer]
}

// Peers returns the current ring membership, sorted.
func (c *Client) Peers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Peers()
}

// AddPeer joins an aicd peer to the placement ring. New chains place onto
// it immediately; existing chains move only when Rebalance runs.
func (c *Client) AddPeer(addr string) error {
	return c.join(addr, func() Store { return c.set.dial(addr, addr) })
}

// AddStore joins a pre-built store to the ring under name (tests, custom
// transports).
func (c *Client) AddStore(name string, st Store) error {
	return c.join(name, func() Store { return st })
}

// join adds the store st makes to the ring under name, unless name is taken
// (then st is never called: nothing is dialed).
func (c *Client) join(name string, st func() Store) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.stores[name]; dup {
		return fmt.Errorf("aic: ring already contains %q", name)
	}
	c.stores[name] = st()
	c.ring = c.ring.Add(name)
	return nil
}

// RemovePeer removes a peer from the placement ring. Its chains remain
// readable on the surviving replicas immediately; run Rebalance to restore
// full replication on the new membership before dropping the peer's data.
func (c *Client) RemovePeer(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.stores[name]; !ok { // stores holds exactly the ring's members
		return fmt.Errorf("aic: ring does not contain %q", name)
	}
	c.ring = c.ring.Remove(name)
	c.set.hangUp(name)
	delete(c.stores, name)
	return nil
}

// RebalanceReport summarizes one Rebalance round.
type RebalanceReport struct {
	Keys        int      // chains discovered across the ring
	Moves       int      // chains whose replica set changed
	Released    int      // replica copies deleted from losing peers
	CopiedBytes int64    // bytes copied to gaining peers
	Deferred    []string // chains left over-replicated for the next round
}

// Rebalance migrates chains from the membership of the last completed
// rebalance to the current one: copy to gaining peers, verify the whole
// new replica set byte-identical, then release losing peers. A chain that
// cannot complete safely is deferred — left over-replicated, never
// under-replicated — and retried by the next round. No committed
// (tenant, proc, seq) is ever dropped.
func (c *Client) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	c.mu.RLock()
	old, next := c.settled, c.ring
	c.mu.RUnlock()
	rep, err := c.rebal.Rebalance(ctx, old, next)
	if err != nil {
		return nil, err
	}
	if len(rep.Deferred) == 0 {
		c.mu.Lock()
		// Only settle onto next if membership did not change again mid-round.
		if c.ring == next {
			c.settled = next
		}
		c.mu.Unlock()
	}
	return &RebalanceReport{
		Keys:        rep.Keys,
		Moves:       rep.Moves,
		Released:    rep.Released,
		CopiedBytes: rep.CopiedBytes,
		Deferred:    rep.Deferred,
	}, nil
}

// Close releases every peer connection. Further operations fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.set.close()
}

// Namespace returns the tenant's view of the service. An invalid tenant
// name is reported by the first operation on the handle (the chained
// client.Namespace(t).Checkpoint(...) form stays ergonomic).
func (c *Client) Namespace(tenant string) *Namespace {
	ns := &Namespace{c: c, tenant: tenant}
	ns.err = storage.ValidateTenantName(tenant)
	return ns
}

// Namespace is a tenant-scoped handle on the sharded checkpoint service.
// All operations address chains by the user-facing proc name; tenancy,
// placement and striping are invisible to the caller.
type Namespace struct {
	c      *Client
	tenant string
	err    error // deferred ValidateTenantName result
}

// Tenant returns the namespace this handle is scoped to.
func (ns *Namespace) Tenant() string { return ns.tenant }

// key validates proc and composes the tenant-qualified flat key.
func (ns *Namespace) key(proc string) (string, error) {
	if ns.err != nil {
		return "", ns.err
	}
	if err := storage.ValidateUserProcName(proc); err != nil {
		return "", err
	}
	return storage.Qualify(ns.tenant, proc), nil
}

// snapshot resolves the peers pick names on the current ring to their
// stores, index-aligned: the view one operation runs against.
func (c *Client) snapshot(pick func(*ring.Ring) []string) ([]string, []storage.Store, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, nil, fmt.Errorf("aic: client is closed")
	}
	peers := pick(c.ring)
	stores := make([]storage.Store, len(peers))
	for i, p := range peers {
		stores[i] = c.stores[p]
	}
	return peers, stores, nil
}

// placement is key's replica set, in placement order.
func (c *Client) placement(key string) ([]string, []storage.Store, error) {
	return c.snapshot(func(r *ring.Ring) []string { return r.Place(key, c.cfg.Replicas) })
}

// allPeers is the whole ring, sorted by name. Maintenance walks it instead
// of a placement: mid-churn, a chain can sit on peers its current placement
// no longer names, and must be found there too.
func (c *Client) allPeers() ([]string, []storage.Store, error) {
	return c.snapshot((*ring.Ring).Peers)
}

// put is the write of seq's data under key, on key's placement.
func (c *Client) put(key string, seq int, data []byte) write {
	names, stores, err := c.placement(key)
	return write{key: key, seq: seq, names: names, stores: stores, err: err, do: func(ctx context.Context, st storage.Store) error {
		return storage.PutVerified(ctx, st, key, seq, data)
	}}
}

// Checkpoint stores an encoded checkpoint under the tenant's proc chain,
// fanned out to the chain's replica set on the ring; it returns when the
// slowest replica has answered. Checkpoints larger than the stripe
// threshold are split across distinct peers, all stripes in flight
// together, and committed by a manifest written after every stripe holds
// quorum — a restorable manifest therefore implies restorable stripes. Like
// CheckpointDir.Append, a label that disagrees with the frame's own
// sequence number is rejected. Quota rejections surface as
// ErrQuotaExceeded (match with errors.Is).
func (ns *Namespace) Checkpoint(ctx context.Context, proc string, seq int, encoded []byte) error {
	key, err := ns.key(proc)
	if err != nil {
		return err
	}
	if emb, err := ckpt.PeekSeq(encoded); err == nil && emb != seq {
		return fmt.Errorf("aic: checkpoint %s: label seq %d but the frame itself is seq %d", proc, seq, emb)
	}
	var degraded error
	if thr := ns.c.cfg.StripeThreshold; thr > 0 && len(encoded) > thr {
		manifest, parts, err := ckpt.SplitStripes(seq, encoded, ns.c.cfg.StripeCount)
		if err != nil {
			return err
		}
		writes := make([]write, len(parts))
		for i, part := range parts {
			writes[i] = ns.c.put(key+storage.StripeSep+storage.StripeLabel(i, len(parts)), seq, part)
		}
		for i, err := range ns.c.set.apply(ctx, "checkpoint", "put", writes) {
			if errors.Is(err, ErrDegraded) {
				degraded = err
			} else if err != nil {
				return fmt.Errorf("aic: stripe %s of %s: %w", storage.StripeLabel(i, len(parts)), proc, err)
			}
		}
		encoded = manifest
	}
	if err := ns.c.set.apply(ctx, "checkpoint", "put", []write{ns.c.put(key, seq, encoded)})[0]; err != nil {
		return err
	}
	return degraded
}

// Chain returns the proc's chain in sequence order, ready for
// RestoreImage: each element read from the first replica in placement order
// whose copy verifies, striped checkpoints reassembled transparently. It
// fails when an element verifies on no replica; use Restore to salvage.
func (ns *Namespace) Chain(ctx context.Context, proc string) ([][]byte, error) {
	key, err := ns.key(proc)
	if err != nil {
		return nil, err
	}
	elems, damaged, err := recovery.ReplicaSet{Fan: &ns.c.set.fan, Place: ns.c.placement}.Chain(ctx, key)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(elems))
	for i, e := range elems {
		switch {
		case e.Ckpt == nil:
			damaged = append(damaged, e.Seq)
		case e.Data == nil: // striped: the parts join into the stored object
			out[i] = e.Ckpt.Encode()
		default:
			out[i] = e.Data
		}
	}
	if len(damaged) > 0 {
		sort.Ints(damaged)
		return nil, fmt.Errorf("aic: chain for %s is damaged: seqs %v unreadable", proc, damaged)
	}
	return out, nil
}

// Restore restores proc from its replica set (DESIGN.md §15): the newest
// intact full checkpoint any replica holds, then the longest contiguous
// verifiable run of deltas, each seq from the first replica in placement
// order whose copy verifies. This is the disaster path — it succeeds as long
// as the replicas between them still hold a restorable prefix.
func (ns *Namespace) Restore(ctx context.Context, proc string) (*Image, *RestoreReport, error) {
	key, err := ns.key(proc)
	if err != nil {
		return nil, nil, err
	}
	return ns.c.set.restore(ctx, key, ns.c.placement)
}

// forEachHolding visits, on every peer of the ring concurrently, each chain
// belonging to the proc key — the base chain and any stripe chains — found
// by listing the peer, and reports every peer that failed. Every holder
// must apply housekeeping, so the fan-out's quorum is the whole ring. It
// walks the ring rather than going through the write core: mid-churn a
// stripe chain can sit on peers its placement no longer names.
func (c *Client) forEachHolding(ctx context.Context, name, key string, visit func(peer string, st storage.Store, chainKey string) error) error {
	peers, stores, err := c.allPeers()
	if err != nil {
		return err
	}
	_, failed := c.set.fan.Run(ctx, name, len(peers), peers, stores, func(ctx context.Context, i int, st storage.Store) error {
		names, err := st.List(ctx)
		if err != nil {
			return err
		}
		var errs []error
		for _, chainKey := range names {
			if chainKey == key || strings.HasPrefix(chainKey, key+storage.StripeSep) {
				errs = append(errs, visit(peers[i], st, chainKey))
			}
		}
		return errors.Join(errs...)
	})
	return errors.Join(failed...)
}

// Truncate drops checkpoints before fullSeq on every replica, stripe
// chains included (housekeeping after a periodic full checkpoint).
func (ns *Namespace) Truncate(ctx context.Context, proc string, fullSeq int) error {
	key, err := ns.key(proc)
	if err != nil {
		return err
	}
	return ns.c.forEachHolding(ctx, "truncate", key, func(_ string, st storage.Store, chainKey string) error {
		return st.Truncate(ctx, chainKey, fullSeq)
	})
}

// Remove deletes the proc's chain — and its stripe chains — from every
// peer holding any of it.
func (ns *Namespace) Remove(ctx context.Context, proc string) error {
	key, err := ns.key(proc)
	if err != nil {
		return err
	}
	return ns.c.forEachHolding(ctx, "delete", key, func(_ string, st storage.Store, chainKey string) error {
		return st.Delete(ctx, chainKey)
	})
}

// Procs lists the tenant's proc names with chains anywhere on the ring
// (stripe chains are library bookkeeping and stay hidden), sorted.
func (ns *Namespace) Procs(ctx context.Context) ([]string, error) {
	if ns.err != nil {
		return nil, ns.err
	}
	peers, stores, err := ns.c.allPeers()
	if err != nil {
		return nil, err
	}
	if len(peers) == 0 {
		return nil, nil
	}
	names, err := ns.c.set.fan.List(ctx, peers, stores)
	if err != nil {
		return nil, fmt.Errorf("aic: no ring peer reachable: %w", err)
	}
	procs := []string{}
	for _, name := range names { // sorted and distinct, so the procs are too
		tenant, proc, stripe := storage.ParseKey(name)
		if tenant == ns.tenant && stripe == "" {
			procs = append(procs, proc)
		}
	}
	return procs, nil
}

// Scrub runs an integrity scrub of the proc's chains — base and stripe
// chains, which are placed independently — on every peer holding any of
// them, returning one merged report per such peer. With repair set each peer
// restores its own manifest/directory agreement. Peers that cannot answer
// are skipped; Scrub fails only when no peer produced a report.
func (ns *Namespace) Scrub(ctx context.Context, proc string, repair bool) (map[string]*ScrubReport, error) {
	key, err := ns.key(proc)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex // forEachHolding visits peers concurrently
	merged := make(map[string]*storage.ScrubReport)
	err = ns.c.forEachHolding(ctx, "scrub", key, func(peer string, st storage.Store, chainKey string) error {
		rep, err := st.Scrub(ctx, chainKey, repair)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if merged[peer] == nil {
			merged[peer] = &storage.ScrubReport{Proc: proc}
		}
		merged[peer].Merge(rep)
		return nil
	})
	if len(merged) == 0 && err != nil {
		return nil, err
	}
	out := make(map[string]*ScrubReport, len(merged))
	for peer, rep := range merged {
		out[peer] = scrubReportFromStore(rep)
	}
	return out, nil
}
