package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"aic"
	"aic/internal/compact"
	"aic/internal/metrics"
	"aic/internal/remote"
	"aic/internal/storage"
)

const (
	numPeers = 3
	tenant   = "bench"
	// flushStall is the modelled cost of one SyncFile/SyncDir.
	flushStall = time.Millisecond
)

func peerName(i int) string { return fmt.Sprintf("peer-%d", i) }
func rankName(r int) string { return fmt.Sprintf("rank-%02d", r) }

// peer is one in-process replication server over a directory store.
type peer struct {
	name  string
	store *storage.FSStore
	srv   *remote.Server
	done  chan error          // Serve's result
	rs    *remote.RemoteStore // the client's connection to this peer
}

// cluster is the topology every workload shares: numPeers FSStore-backed
// peers behind real loopback TCP, one client facade over them, and for the
// directory facade a local store. tr is nil in the untraced pass; then no
// wrapper of the benchmark's sits between the program's layers.
type cluster struct {
	w     workload
	disks map[string]*memFS // one per store, by store name; they outlive reopen
	tr    *tracer
	reg   *metrics.Registry // remote client counters; traced pass only
	addrs []string          // every address a peer has listened on
	peers []*peer
	local *storage.FSStore // directory facade only
	fac   facade
}

// fs is the flush policy of every store the benchmark opens: the store's
// in-memory disk behind storage.DelayFS, so a flush is a fixed stall. The
// number of flushes costs wall time deterministically; no real disk's
// weather does.
func (c *cluster) fs(store string) storage.FS {
	if c.disks[store] == nil {
		c.disks[store] = newMemFS()
	}
	d := storage.NewDelayFS(c.disks[store])
	d.SetSyncDelay(flushStall)
	if c.tr == nil {
		return d
	}
	return &traceFS{FS: d, tr: c.tr, store: store}
}

func (c *cluster) openStore(ctx context.Context, name string) (*storage.FSStore, error) {
	st, err := storage.NewFSStoreFS(name, storage.Target{Name: name}, c.fs(name))
	if err != nil {
		return nil, err
	}
	// The directory facade's peers are dedup-enabled; its local store is
	// enabled by WithDedup (or here, when a trace wrapper hides its type).
	if !c.w.ring && (name != "local" || c.tr != nil) {
		if err := st.EnableDedup(ctx, storage.DedupConfig{}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// open starts the peers over whatever their directories hold and builds the
// client facade. ctx is the servers' lifetime.
func (c *cluster) open(ctx context.Context) error {
	c.peers = nil
	n := numPeers
	if !c.w.ring {
		n-- // the directory facade replicates to two peers beside its local store
	}
	for i := 0; i < n; i++ {
		name := peerName(i)
		st, err := c.openStore(ctx, name)
		if err != nil {
			return err
		}
		var served storage.Store = st
		if c.tr != nil {
			served = &traceFSStore{traceStore{inner: st, tr: c.tr, store: name, level: levelPeer, layer: "storage"}, st}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		p := &peer{name: name, store: st,
			srv: remote.NewServer(served, remote.ServerConfig{}), done: make(chan error, 1)}
		go func() { p.done <- p.srv.Serve(ctx, ln) }()
		c.addrs = append(c.addrs, ln.Addr().String())
		p.rs = remote.NewStore(ln.Addr().String(), remote.Config{Metrics: c.reg})
		c.peers = append(c.peers, p)
	}
	var err error
	if c.w.ring {
		c.fac, err = c.openRing()
	} else {
		c.fac, err = c.openDir(ctx)
	}
	return err
}

// clientStore is what the facade is given for peer p.
func (c *cluster) clientStore(p *peer) storage.Store {
	if c.tr == nil {
		return p.rs
	}
	return &traceStore{inner: p.rs, tr: c.tr, store: p.name, level: levelClient, layer: "remote"}
}

// close stops the facade, the connections and the servers, and waits for
// every goroutine the cluster started.
func (c *cluster) close() error {
	var errs []error
	if c.fac != nil {
		errs = append(errs, c.fac.close())
		c.fac = nil
	}
	for _, p := range c.peers {
		errs = append(errs, p.rs.Close(), p.srv.Close(), <-p.done)
	}
	c.peers, c.local = nil, nil
	return errors.Join(errs...)
}

// reopen is what an aicd restart pays: every store is dropped and opened
// again from its directory (manifest load, dedup index rebuild).
func (c *cluster) reopen(ctx context.Context) error {
	if err := c.close(); err != nil {
		return err
	}
	return c.open(ctx)
}

// stores returns every directory store of the cluster with its name.
func (c *cluster) stores() map[string]*storage.FSStore {
	out := make(map[string]*storage.FSStore)
	for _, p := range c.peers {
		out[p.name] = p.store
	}
	if c.local != nil {
		out["local"] = c.local
	}
	return out
}

// remoteCounters sums the remote clients' retry and window-stall counters
// over every connection the cluster has had.
func (c *cluster) remoteCounters() map[string]float64 {
	out := make(map[string]float64)
	if c.reg == nil {
		return out
	}
	for _, name := range []string{"aic_remote_retries_total", "aic_remote_window_stall_total"} {
		for _, addr := range c.addrs {
			v, _ := c.reg.Value(name, addr)
			out[name] += v
		}
	}
	return out
}

// dedupRatio is logical over physical chunk bytes across the cluster's
// dedup-enabled stores (0 when there are none).
func (c *cluster) dedupRatio(ctx context.Context) (float64, error) {
	var logical, physical int64
	for _, st := range c.stores() {
		ds, err := st.DedupStats(ctx)
		if err != nil {
			return 0, err
		}
		logical += ds.LogicalBytes
		physical += ds.PhysicalBytes
	}
	return ratio(float64(logical), float64(physical)), nil
}

// diskBytes sums the sizes of every file on the cluster's disks.
func (c *cluster) diskBytes() int64 {
	var total int64
	for _, d := range c.disks {
		total += d.bytes()
	}
	return total
}

// facade is the part of a client facade the run drives. rank selects the
// process chain.
type facade interface {
	// put stores one encoded checkpoint to its quorum.
	put(ctx context.Context, rank, seq int, enc []byte) error
	// retire bounds every chain: a full checkpoint and Truncate per rank on
	// the ring, one Compact pass on the directory. It returns the raw image
	// bytes newly protected, the checkpoints acked and the chain elements
	// compaction dropped.
	retire(ctx context.Context, g *gang) (protected int64, acked, dropped int, err error)
	// housekeep is what the peers' own daemons would do in the background
	// after a retire op; it blocks no application call and is not timed.
	housekeep(ctx context.Context) error
	restore(ctx context.Context, rank int) (*aic.Image, error)
	// chain returns the rank's stored chain as the facade reads it.
	chain(ctx context.Context, rank int) ([][]byte, error)
	close() error
}

type ringFacade struct {
	tr     *tracer
	client *aic.Client
	ns     *aic.Namespace
}

func (c *cluster) openRing() (facade, error) {
	stores := make(map[string]aic.Store, len(c.peers))
	for _, p := range c.peers {
		stores[p.name] = c.clientStore(p)
	}
	client, err := aic.NewClient(aic.ClientConfig{
		Stores:          stores,
		Replicas:        c.w.replicas,
		StripeThreshold: c.w.stripeThreshold,
	})
	if err != nil {
		return nil, err
	}
	return &ringFacade{tr: c.tr, client: client, ns: client.Namespace(tenant)}, nil
}

func (f *ringFacade) put(ctx context.Context, rank, seq int, enc []byte) error {
	defer f.tr.call("facade", "store", int64(len(enc)))()
	return f.ns.Checkpoint(ctx, rankName(rank), seq, enc)
}

func (f *ringFacade) retire(ctx context.Context, g *gang) (int64, int, int, error) {
	var protected int64
	for r, p := range g.procs {
		seq := p.Seq()
		end := f.tr.call("ckpt", "full", 0)
		enc := p.FullCheckpoint()
		end()
		if err := f.put(ctx, r, seq, enc); err != nil {
			return protected, r, 0, err
		}
		end = f.tr.call("facade", "truncate", 0)
		err := f.ns.Truncate(ctx, rankName(r), seq)
		end()
		if err != nil {
			return protected, r, 0, err
		}
		protected += int64(p.Pages()) * pageSize
	}
	g.fullTaken()
	return protected, len(g.procs), 0, nil
}

func (f *ringFacade) housekeep(context.Context) error { return nil }

func (f *ringFacade) restore(ctx context.Context, rank int) (*aic.Image, error) {
	defer f.tr.call("facade", "restore", 0)()
	img, _, err := f.ns.Restore(ctx, rankName(rank))
	return img, err
}

func (f *ringFacade) chain(ctx context.Context, rank int) ([][]byte, error) {
	return f.ns.Chain(ctx, rankName(rank))
}

func (f *ringFacade) close() error { return f.client.Close() }

type dirFacade struct {
	tr    *tracer
	d     *aic.CheckpointDir
	peers []*compact.Compactor
}

// compaction bounds the directory facade's chains: a pass every deltaSteps
// steps folds a chain of 4+16 elements back to 4.
var compaction = aic.CompactionConfig{MaxChain: 16, Keep: 4}

func (c *cluster) openDir(ctx context.Context) (facade, error) {
	local, err := c.openStore(ctx, "local")
	if err != nil {
		return nil, err
	}
	c.local = local
	repl := aic.Replication{}
	for _, p := range c.peers {
		repl.Stores = append(repl.Stores, c.clientStore(p))
	}
	opts := []aic.Option{aic.WithCompaction(compaction), aic.WithReplication(repl)}
	if c.tr == nil {
		opts = append(opts, aic.WithStore(local), aic.WithDedup(aic.DedupConfig{}))
	} else {
		opts = append(opts, aic.WithStore(&traceFSStore{
			traceStore{inner: local, tr: c.tr, store: "local", level: levelClient, layer: "storage"}, local}))
	}
	d, err := aic.OpenCheckpointDir("", opts...)
	if err != nil {
		return nil, err
	}
	f := &dirFacade{tr: c.tr, d: d}
	for _, p := range c.peers {
		f.peers = append(f.peers, compact.New(p.store, compact.Config{MaxChain: compaction.MaxChain, Keep: compaction.Keep}))
	}
	return f, nil
}

func (f *dirFacade) put(ctx context.Context, rank, seq int, enc []byte) error {
	defer f.tr.call("facade", "store", int64(len(enc)))()
	return f.d.Append(ctx, rankName(rank), seq, enc)
}

func (f *dirFacade) retire(ctx context.Context, _ *gang) (int64, int, int, error) {
	defer f.tr.call("facade", "compact", 0)()
	rep, err := f.d.Compact(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(rep.Raced)+len(rep.Skipped) > 0 {
		return 0, 0, rep.ElemsDropped, fmt.Errorf("compact: raced %v skipped %v", rep.Raced, rep.Skipped)
	}
	return 0, 0, rep.ElemsDropped, nil
}

// housekeep compacts the peers' chains the way aicd -compact-interval does
// on its own store: CheckpointDir.Compact folds only the local chains, and a
// peer that never compacted would grow for as long as the run lasts.
func (f *dirFacade) housekeep(ctx context.Context) error {
	errs := make([]error, len(f.peers))
	var wg sync.WaitGroup
	for i, c := range f.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := c.RunOnce(ctx)
			if err == nil && len(rep.Raced)+len(rep.Skipped) > 0 {
				err = fmt.Errorf("peer compact: raced %v skipped %v", rep.Raced, rep.Skipped)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (f *dirFacade) restore(ctx context.Context, rank int) (*aic.Image, error) {
	defer f.tr.call("facade", "restore", 0)()
	img, _, err := f.d.RestoreBestReplica(ctx, rankName(rank))
	return img, err
}

func (f *dirFacade) chain(ctx context.Context, rank int) ([][]byte, error) {
	return f.d.Chain(ctx, rankName(rank))
}

func (f *dirFacade) close() error { return f.d.Close() }
