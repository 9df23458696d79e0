package aic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aic/internal/remote"
	"aic/internal/storage"
)

// ringStores builds n named in-process stores for a test ring.
func ringStores(n int) map[string]Store {
	out := make(map[string]Store, n)
	for i := 0; i < n; i++ {
		name := string(rune('a'+i)) + "-peer"
		out[name] = storage.NewMemStore(storage.Target{Name: name})
	}
	return out
}

func newTestClient(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientNamespaceIsolation(t *testing.T) {
	ctx := context.Background()
	c := newTestClient(t, ClientConfig{Stores: ringStores(3), Replicas: 2})
	p, chain := buildProcessChain(t)

	for _, tenant := range []string{"acme", "globex"} {
		ns := c.Namespace(tenant)
		for seq, enc := range chain {
			if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
				t.Fatalf("%s checkpoint %d: %v", tenant, seq, err)
			}
		}
	}
	// Same proc name, isolated chains: each tenant restores its own.
	for _, tenant := range []string{"acme", "globex"} {
		im, rep, err := c.Namespace(tenant).Restore(ctx, "web")
		if err != nil {
			t.Fatalf("%s restore: %v", tenant, err)
		}
		if !im.Matches(p) {
			t.Fatalf("%s restored image differs", tenant)
		}
		if rep.LastSeq != len(chain)-1 {
			t.Fatalf("%s restored through seq %d, want %d", tenant, rep.LastSeq, len(chain)-1)
		}
	}
	// Removing one tenant's chain leaves the other's intact.
	if err := c.Namespace("acme").Remove(ctx, "web"); err != nil {
		t.Fatal(err)
	}
	if procs, _ := c.Namespace("acme").Procs(ctx); len(procs) != 0 {
		t.Fatalf("acme still lists %v", procs)
	}
	if procs, _ := c.Namespace("globex").Procs(ctx); len(procs) != 1 || procs[0] != "web" {
		t.Fatalf("globex lists %v", procs)
	}
}

func TestClientRejectsReservedNames(t *testing.T) {
	ctx := context.Background()
	c := newTestClient(t, ClientConfig{Stores: ringStores(2), Replicas: 1})
	for _, proc := range []string{"a@b", "a#s0of2", ""} {
		err := c.Namespace("acme").Checkpoint(ctx, proc, 0, []byte("x"))
		if !errors.Is(err, ErrBadProcName) {
			t.Fatalf("proc %q: %v, want ErrBadProcName", proc, err)
		}
	}
	if err := c.Namespace("bad tenant").Checkpoint(ctx, "web", 0, []byte("x")); !errors.Is(err, ErrBadProcName) {
		t.Fatalf("bad tenant: %v, want ErrBadProcName", err)
	}
}

func TestClientStripedCheckpointRestore(t *testing.T) {
	ctx := context.Background()
	stores := ringStores(4)
	c := newTestClient(t, ClientConfig{
		Stores: stores, Replicas: 2,
		StripeThreshold: 64, StripeCount: 3,
	})
	p, chain := buildProcessChain(t)
	ns := c.Namespace("acme")
	for seq, enc := range chain {
		if err := ns.Checkpoint(ctx, "big", seq, enc); err != nil {
			t.Fatalf("checkpoint %d: %v", seq, err)
		}
	}
	// The full checkpoint exceeded the threshold, so stripe chains exist on
	// the flat stores while the namespace hides them.
	stripes := 0
	for _, st := range stores {
		names, err := st.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if _, _, stripe := storage.ParseKey(name); stripe != "" {
				stripes++
			}
		}
	}
	if stripes == 0 {
		t.Fatal("no stripe chains were written")
	}
	if procs, err := ns.Procs(ctx); err != nil || len(procs) != 1 || procs[0] != "big" {
		t.Fatalf("Procs = (%v, %v), want [big]", procs, err)
	}
	// Chain reassembles transparently; restore is byte-identical.
	raw, err := ns.Chain(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(chain) {
		t.Fatalf("chain length %d, want %d", len(raw), len(chain))
	}
	for i := range raw {
		if string(raw[i]) != string(chain[i]) {
			t.Fatalf("chain element %d differs after reassembly", i)
		}
	}
	im, _, err := ns.Restore(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !im.Matches(p) {
		t.Fatal("restored image differs")
	}
	// Truncate and Remove reach the stripe chains too.
	if err := ns.Remove(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	for name, st := range stores {
		names, _ := st.List(ctx)
		if len(names) != 0 {
			t.Fatalf("peer %s still holds %v after Remove", name, names)
		}
	}
}

// TestClientStripedRoundTripSizes: a striped checkpoint round-trips
// through a namespace whatever its size against the stripe geometry —
// including a frame too short to give every stripe ⌈size/count⌉ bytes,
// which used to panic the split.
func TestClientStripedRoundTripSizes(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name             string
		threshold, count int
		chain            func(p *Process) [][]byte
	}{
		{"full and deltas into 3", 64, 3, func(p *Process) [][]byte {
			p.Write(0, 0, []byte("base page"))
			chain := [][]byte{p.FullCheckpoint()}
			p.Write(0, 9, []byte("edit"))
			enc, _ := p.DeltaCheckpoint()
			return append(chain, enc)
		}},
		{"an empty delta into 8", 16, 8, func(p *Process) [][]byte {
			p.Write(0, 0, []byte("x"))
			chain := [][]byte{p.FullCheckpoint()}
			enc, _ := p.DeltaCheckpoint() // 20 bytes: no pages, no CPU state
			return append(chain, enc)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestClient(t, ClientConfig{Stores: ringStores(3), Replicas: 2, StripeThreshold: tc.threshold, StripeCount: tc.count})
			p := NewProcess(0)
			chain := tc.chain(p)
			ns := c.Namespace("acme")
			for seq, enc := range chain {
				if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
					t.Fatalf("checkpoint %d: %v", seq, err)
				}
			}
			got, err := ns.Chain(ctx, "web")
			if err != nil {
				t.Fatal(err)
			}
			for i := range chain {
				if !bytes.Equal(got[i], chain[i]) {
					t.Fatalf("element %d differs after reassembly", i)
				}
			}
			if im, _, err := ns.Restore(ctx, "web"); err != nil || !im.Matches(p) {
				t.Fatalf("restore: %v", err)
			}
		})
	}
}

func TestClientRestoreSurvivesPeerLoss(t *testing.T) {
	ctx := context.Background()
	stores := ringStores(3)
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 2})
	p, chain := buildProcessChain(t)
	ns := c.Namespace("acme")
	for seq, enc := range chain {
		if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
			t.Fatalf("checkpoint %d: %v", seq, err)
		}
	}
	// Kill the chain's primary: with Replicas=2 the surviving replica still
	// restores the full chain.
	peers, _, err := c.placement(storage.Qualify("acme", "web"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemovePeer(peers[0]); err != nil {
		t.Fatal(err)
	}
	im, rep, err := ns.Restore(ctx, "web")
	if err != nil {
		t.Fatalf("restore after peer loss: %v", err)
	}
	if !im.Matches(p) || rep.LastSeq != len(chain)-1 {
		t.Fatalf("degraded restore incomplete: lastSeq %d", rep.LastSeq)
	}
}

func TestClientRebalanceAfterJoin(t *testing.T) {
	ctx := context.Background()
	stores := ringStores(3)
	reg := NewMetricsRegistry()
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 2, Metrics: reg})
	_, chain := buildProcessChain(t)
	for _, tenant := range []string{"acme", "globex"} {
		ns := c.Namespace(tenant)
		for i := 0; i < 8; i++ {
			proc := "proc" + string(rune('0'+i))
			for seq, enc := range chain {
				if err := ns.Checkpoint(ctx, proc, seq, enc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	joiner := storage.NewMemStore(storage.Target{Name: "joiner"})
	if err := c.AddStore("z-joiner", joiner); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deferred) != 0 {
		t.Fatalf("deferred: %v", rep.Deferred)
	}
	if rep.Moves == 0 {
		t.Fatal("join moved no chains")
	}
	if v, ok := reg.Value("aic_ring_rebalance_total"); !ok || v != 1 {
		t.Fatalf("aic_ring_rebalance_total = (%v, %v)", v, ok)
	}
	// Ring fan-outs report through the counters the directory facade's do.
	if v, _ := reg.Value("aic_replicated_fanout_total", "put"); v != float64(2*8*len(chain)) {
		t.Fatalf("aic_replicated_fanout_total{put} = %v, want one per checkpoint (%d)", v, 2*8*len(chain))
	}
	// Every chain restores byte-identically on the new membership, and every
	// current replica holds its full chain.
	for _, tenant := range []string{"acme", "globex"} {
		ns := c.Namespace(tenant)
		for i := 0; i < 8; i++ {
			proc := "proc" + string(rune('0'+i))
			raw, err := ns.Chain(ctx, proc)
			if err != nil {
				t.Fatalf("%s/%s after rebalance: %v", tenant, proc, err)
			}
			for j := range raw {
				if string(raw[j]) != string(chain[j]) {
					t.Fatalf("%s/%s element %d differs after rebalance", tenant, proc, j)
				}
			}
		}
	}
	// A second round over settled membership is a no-op.
	rep2, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Moves != 0 {
		t.Fatalf("settled ring still moved %d chains", rep2.Moves)
	}
}

// TestClientAddPeerRebalanceOverWire joins a live wire peer through AddPeer
// (the join that dials, unlike AddStore), rebalances onto it, and then
// restores from that peer alone.
func TestClientAddPeerRebalanceOverWire(t *testing.T) {
	ctx := context.Background()
	c := newTestClient(t, ClientConfig{
		Stores: ringStores(2), Replicas: 3, JitterSeed: 7,
		DialTimeout: time.Second, OpTimeout: 5 * time.Second, Retries: 1,
	})
	p, chain := buildProcessChain(t)
	ns := c.Namespace("acme")
	procs := []string{"web", "db", "cache"}
	for _, proc := range procs {
		for seq, enc := range chain {
			if err := ns.Checkpoint(ctx, proc, seq, enc); err != nil {
				t.Fatalf("%s checkpoint %d: %v", proc, seq, err)
			}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backing := storage.NewMemStore(storage.Target{Name: "joiner"})
	srv := remote.NewServer(backing, remote.ServerConfig{})
	go srv.Serve(ctx, ln)
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	if err := c.AddPeer(addr); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPeer(addr); err == nil {
		t.Fatal("second AddPeer of the same address accepted")
	}
	if c.set.dialed != 1 {
		t.Fatalf("dialed = %d after one join, want 1", c.set.dialed)
	}
	// Three replicas over three peers: every chain gains the joiner.
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deferred) != 0 || rep.Moves != len(procs) {
		t.Fatalf("rebalance = %+v, want %d moves and nothing deferred", rep, len(procs))
	}
	if keys, err := backing.List(ctx); err != nil || len(keys) != len(procs) {
		t.Fatalf("joiner holds %v (%v), want %d chains", keys, err, len(procs))
	}

	// With the in-process peers gone, the wire peer alone serves restores.
	for _, name := range []string{"a-peer", "b-peer"} {
		if err := c.RemovePeer(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, proc := range procs {
		raw, err := ns.Chain(ctx, proc)
		if err != nil {
			t.Fatalf("%s chain from the joiner: %v", proc, err)
		}
		if len(raw) != len(chain) {
			t.Fatalf("%s chain has %d elements, want %d", proc, len(raw), len(chain))
		}
		for i := range raw {
			if !bytes.Equal(raw[i], chain[i]) {
				t.Fatalf("%s element %d differs on the joiner", proc, i)
			}
		}
		im, rrep, err := ns.Restore(ctx, proc)
		if err != nil {
			t.Fatalf("%s restore from the joiner: %v", proc, err)
		}
		if !im.Matches(p) || rrep.LastSeq != len(chain)-1 {
			t.Fatalf("%s restore from the joiner incomplete: lastSeq %d", proc, rrep.LastSeq)
		}
	}
}

// TestPeerConfigJitterSeeding pins the one seeding rule both facades dial
// peers with: a zero seed stays wall-clock for every peer, any other seed is
// offset by the peer's dial index, and the rest of the envelope is copied.
func TestPeerConfigJitterSeeding(t *testing.T) {
	reg := NewMetricsRegistry()
	env := remote.Config{DialTimeout: time.Second, OpTimeout: 2 * time.Second, Retries: 3, Metrics: reg}
	for _, tc := range []struct {
		seed int64
		n    int
		want int64
	}{
		{seed: 0, n: 0, want: 0},
		{seed: 0, n: 5, want: 0},
		{seed: 42, n: 0, want: 42},
		{seed: 42, n: 3, want: 45},
		{seed: -10, n: 4, want: -6},
	} {
		in := env
		in.JitterSeed = tc.seed
		got := peerConfig(in, tc.n)
		if got.JitterSeed != tc.want {
			t.Errorf("seed %d, peer %d: JitterSeed = %d, want %d", tc.seed, tc.n, got.JitterSeed, tc.want)
		}
		got.JitterSeed = in.JitterSeed
		if got != in {
			t.Errorf("seed %d, peer %d: envelope changed: %+v", tc.seed, tc.n, got)
		}
	}
}

func TestClientQuorumFailure(t *testing.T) {
	ctx := context.Background()
	// Single unreachable peer: no element can reach quorum.
	c := newTestClient(t, ClientConfig{
		Stores: map[string]Store{"dark": brokenStore{}}, Replicas: 1,
	})
	err := c.Namespace("acme").Checkpoint(ctx, "web", 0, []byte("x"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("checkpoint against dark ring: %v, want ErrNoQuorum", err)
	}
}

// brokenStore fails every operation — an unreachable ring peer.
type brokenStore struct{}

var errDark = errors.New("peer dark")

func (brokenStore) Put(context.Context, string, int, []byte) error { return errDark }
func (brokenStore) Get(context.Context, string) ([]Stored, []int, error) {
	return nil, nil, errDark
}
func (brokenStore) List(context.Context) ([]string, error)      { return nil, errDark }
func (brokenStore) Delete(context.Context, string) error        { return errDark }
func (brokenStore) Truncate(context.Context, string, int) error { return errDark }
func (brokenStore) Target() StoreTarget                         { return StoreTarget{} }
func (brokenStore) Scrub(context.Context, string, bool) (*StoreScrubReport, error) {
	return nil, errDark
}

// probeStore is a ring peer that records what a fan-out does to it: every
// Put's start and end go to a log shared by the ring, inflight counts the
// calls — Puts and reads — that have not returned, and peak is the most it
// ever saw at once.
type probeStore struct {
	Store
	name     string
	log      *putLog
	delay    time.Duration          // every Put and read takes at least this long
	fail     func(key string) error // non-nil result fails the Put instead of storing
	hang     bool                   // Put blocks until its ctx is cancelled, then takes delay to unwind
	inflight atomic.Int32
	peak     atomic.Int32
}

type putLog struct {
	mu     sync.Mutex
	events []string // "start <key>" / "end <key>"
}

func (l *putLog) add(ev, key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev+" "+key)
}

func (l *putLog) count(ev string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if strings.HasPrefix(e, ev+" ") {
			n++
		}
	}
	return n
}

// enter counts a call in flight until the returned func runs.
func (p *probeStore) enter() (leave func()) {
	if n := p.inflight.Add(1); n > p.peak.Load() {
		p.peak.Store(n) // racing updates can only under-report; any value > 1 fails
	}
	return func() { p.inflight.Add(-1) }
}

func (p *probeStore) Get(ctx context.Context, key string) ([]Stored, []int, error) {
	defer p.enter()()
	time.Sleep(p.delay)
	return p.Store.Get(ctx, key)
}

func (p *probeStore) GetSeqs(ctx context.Context, key string, want []int) ([]int, []Stored, []int, error) {
	defer p.enter()()
	time.Sleep(p.delay)
	return storage.ReadSeqs(ctx, p.Store, key, want)
}

func (p *probeStore) Put(ctx context.Context, key string, seq int, data []byte) error {
	leave := p.enter()
	p.log.add("start", key)
	defer func() {
		p.log.add("end", key)
		leave()
	}()
	if p.hang {
		<-ctx.Done()
	}
	time.Sleep(p.delay)
	if p.hang {
		return ctx.Err()
	}
	if p.fail != nil {
		if err := p.fail(key); err != nil {
			return err
		}
	}
	return p.Store.Put(ctx, key, seq, data)
}

// probeRing builds n probe peers sharing one log, each set up by tune.
func probeRing(n int, tune func(i int, p *probeStore)) (map[string]Store, []*probeStore, *putLog) {
	log := &putLog{}
	stores := make(map[string]Store, n)
	probes := make([]*probeStore, n)
	for i := range probes {
		name := fmt.Sprintf("peer-%d", i)
		probes[i] = &probeStore{Store: storage.NewMemStore(storage.Target{Name: name}), name: name, log: log}
		tune(i, probes[i])
		stores[name] = probes[i]
	}
	return stores, probes, log
}

// assertJoined fails unless every Put the fan-out started has returned, and
// no peer was ever handed a second Put while its first was in flight.
func assertJoined(t *testing.T, probes []*probeStore, log *putLog, wantPuts int) {
	t.Helper()
	for _, p := range probes {
		if n := p.inflight.Load(); n != 0 {
			t.Errorf("%s: %d Puts still in flight after Checkpoint returned", p.name, n)
		}
		if n := p.peak.Load(); n > 1 {
			t.Errorf("%s: served %d Puts at once, want one at a time", p.name, n)
		}
	}
	if s, e := log.count("start"), log.count("end"); s != wantPuts || e != wantPuts {
		t.Errorf("%d Puts started, %d returned, want %d of each", s, e, wantPuts)
	}
}

// A striped restore reads the base chain, then every stripe key as one
// batch; stripe sets overlap (3 stripes × 2 replicas on 3 peers), and still
// no peer is handed a second read while its first is in flight.
func TestReplicaSetStripedRestoreOneCallPerPeer(t *testing.T) {
	ctx := context.Background()
	stores, probes, _ := probeRing(3, func(int, *probeStore) {})
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 2, StripeThreshold: 512, StripeCount: 3})
	ns := c.Namespace("acme")
	proc, chain := buildBigProcessChain(t)
	for seq, enc := range chain {
		if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range probes {
		p.peak.Store(0)
		p.delay = 5 * time.Millisecond
	}
	im, rep, err := ns.Restore(ctx, "web")
	if err != nil || rep.LastSeq != len(chain)-1 || !im.Matches(proc) {
		t.Fatalf("striped restore: %+v, %v", rep, err)
	}
	for _, p := range probes {
		if n := p.peak.Load(); n != 1 {
			t.Errorf("%s: at most %d reads in flight at once, want exactly one", p.name, n)
		}
		if n := p.inflight.Load(); n != 0 {
			t.Errorf("%s: %d reads still in flight after Restore returned", p.name, n)
		}
	}
}

func TestClientCheckpointAcksAtSlowestReplica(t *testing.T) {
	stores, probes, log := probeRing(3, func(_ int, p *probeStore) { p.delay = 50 * time.Millisecond })
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 3})
	start := time.Now()
	if err := c.Namespace("acme").Checkpoint(context.Background(), "web", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Three 50 ms replicas: the sum is 150 ms, the slowest is 50 ms.
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("Checkpoint took %v: replicas were not written concurrently", took)
	}
	assertJoined(t, probes, log, 3)
}

// openProbeDir opens a directory facade over probes: the first is its local
// store, the others its replication peers.
func openProbeDir(t *testing.T, probes []*probeStore) *CheckpointDir {
	t.Helper()
	peers := make([]Store, len(probes)-1)
	for i, p := range probes[1:] {
		peers[i] = p
	}
	d, err := OpenCheckpointDir("", WithStore(probes[0]), WithReplication(Replication{Stores: peers}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestCheckpointDirAppendAcksAtSlowestReplica(t *testing.T) {
	_, probes, log := probeRing(3, func(_ int, p *probeStore) { p.delay = 50 * time.Millisecond })
	d := openProbeDir(t, probes)
	start := time.Now()
	if err := d.Append(context.Background(), "web", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// The local store and two peers at 50 ms each: the sum is 150 ms, the
	// slowest is 50 ms.
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("Append took %v: the replicas were not written concurrently", took)
	}
	assertJoined(t, probes, log, 3)
}

func TestCheckpointDirCancelledAppendJoinsEveryReplica(t *testing.T) {
	_, probes, log := probeRing(3, func(_ int, p *probeStore) {
		p.hang, p.delay = true, 20*time.Millisecond
	})
	d := openProbeDir(t, probes)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	err := d.Append(ctx, "web", 0, []byte("payload"))
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrDegraded) {
		t.Fatalf("cancelled Append = %v, want the local store's own context.Canceled", err)
	}
	// Every replica was still unwinding when the ctx fired; all have returned.
	assertJoined(t, probes, log, 3)
}

func TestClientStripedManifestFollowsEveryStripe(t *testing.T) {
	errStripe := errors.New("stripe refused")
	failStripes := func(key string) error {
		if strings.Contains(key, storage.StripeSep) {
			return errStripe
		}
		return nil
	}
	for _, tc := range []struct {
		name    string
		failing int   // peers refusing every stripe part
		want    error // nil, ErrDegraded, ErrNoQuorum
	}{
		{"healthy", 0, nil},
		{"one stripe replica fails, quorum holds", 1, ErrDegraded},
		{"two stripe replicas fail, quorum missed", 2, ErrNoQuorum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores, probes, log := probeRing(3, func(i int, p *probeStore) {
				// Uneven peers, so stripe Puts finish at different times.
				p.delay = time.Duration(i) * 10 * time.Millisecond
				if i < tc.failing {
					p.fail = failStripes
				}
			})
			c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 3, StripeThreshold: 64, StripeCount: 2})
			err := c.Namespace("acme").Checkpoint(context.Background(), "big", 0, make([]byte, 1024))
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Checkpoint = %v, want %v", err, tc.want)
			}
			if tc.failing > 0 && !errors.Is(err, errStripe) {
				t.Errorf("%v does not wrap the stripe replica's cause", err)
			}
			manifestPuts := 0
			for i, ev := range log.events {
				if strings.Contains(ev, storage.StripeSep) {
					continue
				}
				manifestPuts++
				for _, later := range log.events[i:] {
					if strings.Contains(later, storage.StripeSep) {
						t.Fatalf("manifest event %q precedes stripe event %q", ev, later)
					}
				}
			}
			wantManifest := 2 * 3 // start+end on three replicas
			if errors.Is(tc.want, ErrNoQuorum) {
				wantManifest = 0 // the commit point is never reached
			}
			if manifestPuts != wantManifest {
				t.Errorf("%d manifest Put events, want %d", manifestPuts, wantManifest)
			}
			assertJoined(t, probes, log, 2*3+wantManifest/2)
		})
	}
}

func TestClientNoQuorumWrapsEveryPeerCause(t *testing.T) {
	errDisk := errors.New("disk on fire")
	reg := NewMetricsRegistry()
	stores, _, _ := probeRing(3, func(i int, p *probeStore) {
		switch i {
		case 0:
			p.fail = func(string) error { return errDisk }
		case 1:
			p.fail = func(string) error { return fmt.Errorf("tenant acme: %w", ErrQuotaExceeded) }
		}
	})
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 3, Metrics: reg})
	err := c.Namespace("acme").Checkpoint(context.Background(), "web", 0, []byte("payload"))
	for _, want := range []error{ErrNoQuorum, errDisk, ErrQuotaExceeded} {
		if !errors.Is(err, want) {
			t.Errorf("%v is not errors.Is %v", err, want)
		}
	}
	if v, _ := reg.Value("aic_replicated_quorum_miss_total", "put"); v != 1 {
		t.Errorf("aic_replicated_quorum_miss_total{put} = %v, want 1", v)
	}
}

func TestClientCancelledCheckpointJoinsEveryPeer(t *testing.T) {
	stores, probes, log := probeRing(3, func(_ int, p *probeStore) {
		p.hang, p.delay = true, 20*time.Millisecond
	})
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 3})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	err := c.Namespace("acme").Checkpoint(ctx, "web", 0, []byte("payload"))
	if !errors.Is(err, ErrNoQuorum) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Checkpoint = %v, want ErrNoQuorum wrapping context.Canceled", err)
	}
	// Every peer was still unwinding when the ctx fired; all have returned.
	assertJoined(t, probes, log, 3)
}
