package aic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aic/internal/compact"
	"aic/internal/storage"
)

// The differential battery: every storage topology — local directory,
// replicated peer group, striped multi-tenant ring — must restore
// byte-for-byte identically with dedup on and off, and compaction must
// never change what a chain restores to. These tests are the acceptance
// gate for the content-addressed chunk store: a dedup'd chain that decodes
// to even one different byte is data loss, not compression.

// smallDedup chunks aggressively so the battery's modest payloads exercise
// the chunk path instead of the raw-passthrough floor.
func smallDedup() DedupConfig {
	return DedupConfig{MinChunk: 64, AvgChunk: 256, MaxChunk: 1024, MinPayload: 1}
}

// buildBigProcessChain makes a chain whose elements are large enough to
// chunk (and, at the client layer, to stripe): a full plus deltas over
// pages filled with overlapping content.
func buildBigProcessChain(t *testing.T) (*Process, [][]byte) {
	t.Helper()
	p := NewProcess(1024)
	fill := bytes.Repeat([]byte("checkpointable page content "), 40)
	for pg := uint64(0); pg < 8; pg++ {
		p.Write(pg, 0, fill[:1024])
	}
	chain := [][]byte{p.FullCheckpoint()}
	for step := 0; step < 6; step++ {
		p.Write(uint64(step%8), (step*32)%512, []byte("mutation-of-this-step"))
		enc, _ := p.DeltaCheckpoint()
		chain = append(chain, enc)
	}
	return p, chain
}

func TestDifferentialLocalDedupVsPlain(t *testing.T) {
	ctx := context.Background()
	plain, err := OpenCheckpointDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := OpenCheckpointDir(t.TempDir(), WithDedup(smallDedup()))
	if err != nil {
		t.Fatal(err)
	}
	p, chain := buildBigProcessChain(t)
	for seq, enc := range chain {
		if err := plain.Append(ctx, "proc", seq, enc); err != nil {
			t.Fatal(err)
		}
		if err := dedup.Append(ctx, "proc", seq, enc); err != nil {
			t.Fatal(err)
		}
		// A second identical process (the gang-scheduled SPMD case): its
		// chunks must share storage with proc's instead of duplicating it.
		if err := dedup.Append(ctx, "proc-replica", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	a, err := plain.Chain(ctx, "proc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := dedup.Chain(ctx, "proc")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("chain lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("element %d differs between plain and dedup directories", i)
		}
	}
	for _, proc := range []string{"proc", "proc-replica"} {
		im, _, err := dedup.RestoreLatestGood(ctx, proc)
		if err != nil {
			t.Fatal(err)
		}
		if !im.Matches(p) {
			t.Fatalf("dedup'd restore of %s does not match the live process", proc)
		}
	}
	st, err := dedup.DedupStats(ctx)
	if err != nil || !st.Enabled {
		t.Fatalf("stats %+v err=%v", st, err)
	}
	if st.Ratio() < 1.8 {
		t.Fatalf("dedup ratio %.2f with two identical procs, want ~2", st.Ratio())
	}
}

func TestDifferentialReplicatedDedupPeers(t *testing.T) {
	ctx := context.Background()
	// The replication peer is itself a dedup'd directory store: bytes that
	// crossed the (in-process) wire land in its chunk store and must come
	// back identical.
	peerFS, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: "peer"})
	if err != nil {
		t.Fatal(err)
	}
	if err := peerFS.EnableDedup(ctx, smallDedup()); err != nil {
		t.Fatal(err)
	}
	d, err := OpenCheckpointDir(t.TempDir(),
		WithDedup(smallDedup()),
		WithReplication(Replication{Stores: []Store{peerFS}, Quorum: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p, chain := buildBigProcessChain(t)
	for seq, enc := range chain {
		if err := d.Append(ctx, "proc", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	// Peer-side bytes are identical to what was appended.
	stored, missing, err := peerFS.Get(ctx, "proc")
	if err != nil || len(missing) != 0 || len(stored) != len(chain) {
		t.Fatalf("peer chain: err=%v missing=%v len=%d", err, missing, len(stored))
	}
	for i, s := range stored {
		if !bytes.Equal(s.Data, chain[i]) {
			t.Fatalf("peer element %d differs from appended bytes", i)
		}
	}
	// Disaster path: restore consulting the dedup'd peer replica.
	im, _, err := d.RestoreBestReplica(ctx, "proc")
	if err != nil {
		t.Fatal(err)
	}
	if !im.Matches(p) {
		t.Fatal("replica restore through dedup'd peer does not match live process")
	}
}

func TestDifferentialStripedRingDedup(t *testing.T) {
	ctx := context.Background()
	mkRing := func(dedup bool) map[string]Store {
		out := make(map[string]Store, 3)
		for i := 0; i < 3; i++ {
			fs, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: fmt.Sprintf("ring-%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			if dedup {
				if err := fs.EnableDedup(ctx, smallDedup()); err != nil {
					t.Fatal(err)
				}
			}
			out[fmt.Sprintf("peer-%d", i)] = fs
		}
		return out
	}
	// Two rings, same workload: plain stores vs dedup'd stores, with a
	// stripe threshold small enough that every full checkpoint stripes.
	plainClient := newTestClient(t, ClientConfig{Stores: mkRing(false), Replicas: 2, StripeThreshold: 512})
	dedupClient := newTestClient(t, ClientConfig{Stores: mkRing(true), Replicas: 2, StripeThreshold: 512})

	p, chain := buildBigProcessChain(t)
	for _, tenant := range []string{"acme", "globex"} {
		for seq, enc := range chain {
			if err := plainClient.Namespace(tenant).Checkpoint(ctx, "web", seq, enc); err != nil {
				t.Fatal(err)
			}
			if err := dedupClient.Namespace(tenant).Checkpoint(ctx, "web", seq, enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tenant := range []string{"acme", "globex"} {
		a, err := plainClient.Namespace(tenant).Chain(ctx, "web")
		if err != nil {
			t.Fatal(err)
		}
		b, err := dedupClient.Namespace(tenant).Chain(ctx, "web")
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) || len(b) != len(chain) {
			t.Fatalf("%s: chain lengths %d/%d/%d", tenant, len(a), len(b), len(chain))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s element %d differs between plain and dedup rings", tenant, i)
			}
		}
		im, _, err := dedupClient.Namespace(tenant).Restore(ctx, "web")
		if err != nil {
			t.Fatal(err)
		}
		if !im.Matches(p) {
			t.Fatalf("%s: striped dedup restore does not match live process", tenant)
		}
	}
	// Two tenants stored the same chain over dedup'd ring stores: chunk
	// sharing must show up on at least one store.
	shared := false
	for _, st := range []string{"peer-0", "peer-1", "peer-2"} {
		if fs, ok := dedupClient.lookupStore(st).(*storage.FSStore); ok {
			ds, err := fs.DedupStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Ratio() > 1.5 {
				shared = true
			}
		}
	}
	if !shared {
		t.Fatal("no ring store shows cross-tenant chunk sharing")
	}
}

// Both facades write through one fan-out, so they must agree on when a
// replica's stale-seq rejection is an ack: only when the replica verifiably
// holds the very bytes being written (a retry after a lost ack), never when
// it holds something else at that (key, seq). The directory facade's local
// store is a replica like any other here.
func TestDifferentialStaleSeqAck(t *testing.T) {
	ctx := context.Background()
	data := []byte("the checkpoint being written")
	// Each facade returns its chain key, its local store (the ring has none:
	// its first peer stands in) and its write.
	facades := map[string]func(t *testing.T, peers []Store, reg *MetricsRegistry) (key string, local Store, write func() error){
		"ring": func(t *testing.T, peers []Store, reg *MetricsRegistry) (string, Store, func() error) {
			stores := make(map[string]Store, len(peers))
			for i, p := range peers {
				stores[fmt.Sprintf("peer-%d", i)] = p
			}
			c := newTestClient(t, ClientConfig{Stores: stores, Replicas: len(peers), Metrics: reg})
			return storage.Qualify("acme", "web"), peers[0], func() error {
				return c.Namespace("acme").Checkpoint(ctx, "web", 0, data)
			}
		},
		"dir": func(t *testing.T, peers []Store, reg *MetricsRegistry) (string, Store, func() error) {
			local := storage.NewMemStore(storage.Target{Name: "local"})
			d, err := OpenCheckpointDir("", WithStore(local), WithReplication(Replication{Stores: peers}), WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return "web", local, func() error { return d.Append(ctx, "web", 0, data) }
		},
	}
	for _, tc := range []struct {
		name             string
		peers            int
		held             []byte // what peer 0 (or the local store) already holds at seq 0
		ringErr, dirErr  error  // dir: a held quorum with a failed peer is not an error
		misses, partials float64
		local            bool // the local store holds it, not peer 0
	}{
		{"identical retry", 2, data, nil, nil, 0, 0, false},
		{"diverged peer of 2", 2, []byte("something else"), ErrNoQuorum, ErrDegraded, 1, 0, false},
		{"diverged peer of 3", 3, []byte("something else"), ErrDegraded, nil, 0, 1, false},
		{"identical retry held locally", 2, data, nil, nil, 0, 0, true},
	} {
		for facade, open := range facades {
			t.Run(tc.name+"/"+facade, func(t *testing.T) {
				peers := make([]Store, tc.peers)
				for i := range peers {
					peers[i] = storage.NewMemStore(storage.Target{Name: fmt.Sprintf("peer-%d", i)})
				}
				reg := NewMetricsRegistry()
				key, local, write := open(t, peers, reg)
				holder := peers[0]
				if tc.local {
					holder = local
				}
				if err := holder.Put(ctx, key, 0, tc.held); err != nil {
					t.Fatal(err)
				}
				want := tc.ringErr
				if facade == "dir" {
					want = tc.dirErr
				}
				if err := write(); want == nil && err != nil || want != nil && !errors.Is(err, want) {
					t.Fatalf("write = %v, want %v", err, want)
				}
				misses, _ := reg.Value("aic_replicated_quorum_miss_total", "put")
				partials, _ := reg.Value("aic_replicated_partial_ack_total", "put")
				if misses != tc.misses || partials != tc.partials {
					t.Fatalf("quorum misses %v, partial acks %v; want %v, %v", misses, partials, tc.misses, tc.partials)
				}
			})
		}
	}
}

func TestDifferentialCompactionPreservesRestore(t *testing.T) {
	ctx := context.Background()
	d, err := OpenCheckpointDir(t.TempDir(),
		WithDedup(smallDedup()),
		WithCompaction(CompactionConfig{MaxChain: 8, Keep: 3}),
		WithMetrics(NewMetricsRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(1024)
	fill := bytes.Repeat([]byte("steady-state working set bytes! "), 32)
	for pg := uint64(0); pg < 8; pg++ {
		p.Write(pg, 0, fill[:1024])
	}
	if err := d.Append(ctx, "proc", 0, p.FullCheckpoint()); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 16; step++ {
		p.Write(uint64(step%8), (step*64)%512, []byte("delta bytes for this step"))
		enc, _ := p.DeltaCheckpoint()
		if err := d.Append(ctx, "proc", step, enc); err != nil {
			t.Fatal(err)
		}
	}
	before, repBefore, err := d.RestoreLatestGood(ctx, "proc")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Compacted) != 1 || rep.ElemsDropped != 17-3 {
		t.Fatalf("compaction report %+v", rep)
	}
	chain, err := d.Chain(ctx, "proc")
	if err != nil || len(chain) != 3 {
		t.Fatalf("post-compaction chain length %d err=%v", len(chain), err)
	}
	after, repAfter, err := d.RestoreLatestGood(ctx, "proc")
	if err != nil {
		t.Fatal(err)
	}
	if repBefore.LastSeq != repAfter.LastSeq {
		t.Fatalf("LastSeq %d vs %d across compaction", repBefore.LastSeq, repAfter.LastSeq)
	}
	if !after.Matches(p) || !before.Matches(p) {
		t.Fatal("restore state changed across compaction")
	}
	// Un-configured compaction fails loudly, not silently.
	plain, err := OpenCheckpointDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Compact(ctx); err == nil {
		t.Fatal("Compact without WithCompaction must error")
	}
}

func TestDedupRequiresDirectoryStore(t *testing.T) {
	// A store with anchor replacement and chunk GC that is not a
	// *storage.FSStore.
	ls := struct{ compact.Store }{storage.NewMemStore(storage.Target{Name: "mem"})}
	if _, err := OpenCheckpointDir("", WithStore(ls), WithDedup(smallDedup())); err == nil {
		t.Fatal("WithDedup over a non-directory store must fail to open")
	}
	// It has what the compactor needs, so compaction alone is fine.
	d, err := OpenCheckpointDir("", WithStore(ls), WithCompaction(CompactionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if d.comp == nil {
		t.Fatal("compactor not armed")
	}
}

// damageStore is one replica whose reads can be damaged after the fact: a
// dark replica fails every read, a dropped seq moves to the missing list, a
// flipped seq comes back with one bit inverted. It serves partial reads over
// the same damaged view, and counts per key its whole reads, its list-only
// reads, and how often each seq's body was asked for.
type damageStore struct {
	Store
	dark       bool
	drop, flip seqSet
	mu         sync.Mutex
	gets       map[string]int
	listings   map[string]int
	asked      map[string]map[int]int
}

// seqSet marks (chain key, seq) pairs.
type seqSet map[string]map[int]bool

func (s seqSet) add(key string, seqs ...int) {
	if s[key] == nil {
		s[key] = map[int]bool{}
	}
	for _, seq := range seqs {
		s[key][seq] = true
	}
}

func newDamageStore(name string) *damageStore {
	return &damageStore{
		Store: storage.NewMemStore(storage.Target{Name: name}),
		drop:  seqSet{}, flip: seqSet{},
		gets: map[string]int{}, listings: map[string]int{}, asked: map[string]map[int]int{},
	}
}

// view is the damaged chain. Callers hold d.mu.
func (d *damageStore) view(ctx context.Context, key string) ([]Stored, []int, error) {
	if d.dark {
		return nil, nil, errors.New("replica dark")
	}
	chain, missing, err := d.Store.Get(ctx, key)
	var kept []Stored
	for _, el := range chain {
		switch {
		case d.drop[key][el.Seq]:
			missing = append(missing, el.Seq)
		case d.flip[key][el.Seq]:
			data := append([]byte(nil), el.Data...)
			data[len(data)/2] ^= 0x40
			kept = append(kept, Stored{Seq: el.Seq, Data: data})
		default:
			kept = append(kept, el)
		}
	}
	return kept, missing, err
}

// ask counts a request for the bodies of seqs. Callers hold d.mu.
func (d *damageStore) ask(key string, seqs []int) {
	if d.asked[key] == nil {
		d.asked[key] = map[int]int{}
	}
	for _, seq := range seqs {
		d.asked[key][seq]++
	}
}

func (d *damageStore) Get(ctx context.Context, key string) ([]Stored, []int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gets[key]++
	chain, missing, err := d.view(ctx, key)
	listed, _, _ := storage.FilterSeqs(chain, missing, nil)
	d.ask(key, listed)
	return chain, missing, err
}

func (d *damageStore) GetSeqs(ctx context.Context, key string, want []int) ([]int, []Stored, []int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(want) == 0 {
		d.listings[key]++
	}
	d.ask(key, want)
	chain, missing, err := d.view(ctx, key)
	if err != nil {
		return nil, nil, nil, err
	}
	listed, kept, lost := storage.FilterSeqs(chain, missing, want)
	return listed, kept, lost, nil
}

// replicaSetFacade is one facade over three damageable replicas holding the
// same chain: what the damage differential drives identically.
type replicaSetFacade struct {
	name    string
	base    string                          // the chain's base key, as the replicas store it
	keys    []string                        // base key, then any stripe keys
	order   func(key string) []*damageStore // key's replica set, in placement order
	restore func() (*Image, *RestoreReport, error)
}

func openReplicaSetFacades(t *testing.T, chain [][]byte) []*replicaSetFacade {
	t.Helper()
	ctx := context.Background()
	trio := func() []*damageStore {
		return []*damageStore{newDamageStore("r0"), newDamageStore("r1"), newDamageStore("r2")}
	}

	dirStores := trio()
	d, err := OpenCheckpointDir("", WithStore(dirStores[0]),
		WithReplication(Replication{Stores: []Store{dirStores[1], dirStores[2]}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for seq, enc := range chain {
		if err := d.Append(ctx, "web", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	facades := []*replicaSetFacade{{
		name: "dir", base: "web", keys: []string{"web"},
		order:   func(string) []*damageStore { return dirStores },
		restore: func() (*Image, *RestoreReport, error) { return d.RestoreBestReplica(ctx, "web") },
	}}

	for _, ring := range []struct {
		name            string
		stripeThreshold int
	}{{"ring", 0}, {"ring-striped", 512}} {
		byName := map[string]*damageStore{}
		stores := map[string]Store{}
		for i, st := range trio() {
			name := fmt.Sprintf("peer-%d", i)
			byName[name], stores[name] = st, st
		}
		c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 3, StripeThreshold: ring.stripeThreshold})
		ns := c.Namespace("acme")
		for seq, enc := range chain {
			if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
				t.Fatal(err)
			}
		}
		base := storage.Qualify("acme", "web")
		held, err := byName["peer-0"].List(ctx) // Replicas = ring size: every peer holds every key
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{base}
		for _, key := range held {
			if strings.HasPrefix(key, base+storage.StripeSep) {
				keys = append(keys, key)
			}
		}
		if striped := len(keys) > 1; striped != (ring.stripeThreshold > 0) {
			t.Fatalf("%s: stripe keys %v", ring.name, keys[1:])
		}
		facades = append(facades, &replicaSetFacade{
			name: ring.name, base: base, keys: keys,
			order: func(key string) []*damageStore {
				peers, _, err := c.placement(key)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]*damageStore, len(peers))
				for i, p := range peers {
					out[i] = byName[p]
				}
				return out
			},
			restore: func() (*Image, *RestoreReport, error) { return ns.Restore(ctx, "web") },
		})
	}
	return facades
}

// imageBytes flattens a restored image for byte comparison across facades.
func imageBytes(im *Image) []byte {
	var out []byte
	for _, idx := range im.PageIndexes() {
		out = append(out, byte(idx))
		out = append(out, im.Page(idx)...)
	}
	return out
}

// Both facades read a replica set through one fetch, one per-seq union and
// one replay (DESIGN.md §15), so the same damage must cost them the same:
// identical LastSeq and a byte-identical image, whichever facade — and
// whether or not the anchor is striped. At the commit before the shared read
// path, "gap split across replicas" failed through the directory facade
// (whole-replica selection) and "newest seq flipped on the first replica"
// through the ring (first copy taken unverified, rewound at replay).
func TestReplicaSetDamageDifferential(t *testing.T) {
	const last = 6 // buildBigProcessChain: a full at seq 0, deltas 1..6
	for _, row := range []struct {
		name    string
		damage  func(f *replicaSetFacade)
		lastSeq int // -1: the restore must fail
		// replica is the report's Replica where every facade must agree on it
		// (the base key's placement index); -2 skips the check.
		replica int
	}{
		{"clean", func(*replicaSetFacade) {}, last, 0},
		{"gap split across replicas", func(f *replicaSetFacade) {
			r := f.order(f.base)
			r[0].drop.add(f.base, 4)
			r[1].drop.add(f.base, 3)
			r[2].drop.add(f.base, 3, 4)
		}, last, -1},
		{"newest seq flipped on the first replica", func(f *replicaSetFacade) {
			r := f.order(f.base)
			r[0].flip.add(f.base, last)
		}, last, -1},
		{"anchor and every stripe part flipped on its first holder", func(f *replicaSetFacade) {
			for _, key := range f.keys {
				r := f.order(key)
				r[0].flip.add(key, 0)
			}
		}, last, -1},
		{"first replica lost entirely", func(f *replicaSetFacade) {
			f.order(f.base)[0].dark = true
		}, last, 1},
		{"anchor intact on one replica only", func(f *replicaSetFacade) {
			for _, key := range f.keys {
				r := f.order(key)
				r[0].flip.add(key, 0)
				r[1].flip.add(key, 0)
			}
		}, last, -1},
		{"newest seq unreadable on every replica", func(f *replicaSetFacade) {
			for _, r := range f.order(f.base) {
				r.flip.add(f.base, last)
			}
		}, last - 1, 0},
		{"every replica dark", func(f *replicaSetFacade) {
			for _, r := range f.order(f.base) {
				r.dark = true
			}
		}, -1, -2},
	} {
		t.Run(row.name, func(t *testing.T) {
			p, chain := buildBigProcessChain(t)
			var first []byte
			for _, f := range openReplicaSetFacades(t, chain) {
				row.damage(f)
				im, rep, err := f.restore()
				if row.lastSeq < 0 {
					if err == nil {
						t.Errorf("%s: restore with every replica dark succeeded", f.name)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", f.name, err)
					continue
				}
				if rep.LastSeq != row.lastSeq {
					t.Errorf("%s: LastSeq %d, want %d (report %+v)", f.name, rep.LastSeq, row.lastSeq, rep)
				}
				if row.replica != -2 && rep.Replica != row.replica {
					t.Errorf("%s: Replica %d, want %d", f.name, rep.Replica, row.replica)
				}
				if row.lastSeq == last && !im.Matches(p) {
					t.Errorf("%s: restored image differs from the live process", f.name)
				}
				if got := imageBytes(im); first == nil {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Errorf("%s: image differs from the first facade's", f.name)
				}
				// Per chain key, however many elements and manifests read
				// it: one whole read from the first replica, one listing from
				// every other, and no body asked of a replica twice.
				for _, key := range f.keys {
					for i, r := range f.order(key) {
						if whole, lists := r.gets[key], r.listings[key]; i == 0 && (whole != 1 || lists != 0) || i > 0 && (whole != 0 || lists != 1) {
							t.Errorf("%s: replica %d served %d whole reads and %d listings of %s", f.name, i, whole, lists, key)
						}
						for seq, n := range r.asked[key] {
							if n > 1 {
								t.Errorf("%s: replica %d asked %d times for seq %d of %s", f.name, i, n, seq, key)
							}
						}
					}
				}
			}
		})
	}
}

// On a clean restore a replica-set read downloads each element once: the
// body bytes it counts equal the bytes it replays, through both facades.
func TestReplicaSetReadBytesMatchReplayedBytes(t *testing.T) {
	ctx := context.Background()
	_, chain := buildBigProcessChain(t)
	trio := func() []Store {
		return []Store{
			storage.NewMemStore(storage.Target{Name: "r0"}),
			storage.NewMemStore(storage.Target{Name: "r1"}),
			storage.NewMemStore(storage.Target{Name: "r2"}),
		}
	}
	facades := map[string]func(t *testing.T, reg *MetricsRegistry) func() (*Image, *RestoreReport, error){
		"dir": func(t *testing.T, reg *MetricsRegistry) func() (*Image, *RestoreReport, error) {
			st := trio()
			d, err := OpenCheckpointDir("", WithStore(st[0]), WithReplication(Replication{Stores: st[1:]}), WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			for seq, enc := range chain {
				if err := d.Append(ctx, "web", seq, enc); err != nil {
					t.Fatal(err)
				}
			}
			return func() (*Image, *RestoreReport, error) { return d.RestoreBestReplica(ctx, "web") }
		},
		"ring": func(t *testing.T, reg *MetricsRegistry) func() (*Image, *RestoreReport, error) {
			stores := map[string]Store{}
			for i, st := range trio() {
				stores[fmt.Sprintf("peer-%d", i)] = st
			}
			ns := newTestClient(t, ClientConfig{Stores: stores, Replicas: 3, Metrics: reg}).Namespace("acme")
			for seq, enc := range chain {
				if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
					t.Fatal(err)
				}
			}
			return func() (*Image, *RestoreReport, error) { return ns.Restore(ctx, "web") }
		},
	}
	for name, open := range facades {
		t.Run(name, func(t *testing.T) {
			reg := NewMetricsRegistry()
			restore := open(t, reg)
			before, _ := reg.Value("aic_replicated_read_bytes_total", "get")
			_, rep, err := restore()
			if err != nil || rep.LastSeq != len(chain)-1 {
				t.Fatalf("clean restore: %+v, %v", rep, err)
			}
			var replayed float64
			for _, seq := range rep.Restored {
				replayed += float64(len(chain[seq]))
			}
			if after, _ := reg.Value("aic_replicated_read_bytes_total", "get"); after-before != replayed {
				t.Fatalf("read %v body bytes to replay %v", after-before, replayed)
			}
		})
	}
}

// A flipped stripe part is on a stripe chain, placed independently of the
// base chain: Scrub must find it there, and with repair remove it.
func TestReplicaSetScrubReachesStripeChains(t *testing.T) {
	ctx := context.Background()
	stores := map[string]Store{}
	dirs := map[string]string{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("peer-%d", i)
		dirs[name] = t.TempDir()
		fs, err := storage.NewFSStore(dirs[name], storage.Target{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = fs
	}
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 2, StripeThreshold: 512})
	ns := c.Namespace("acme")
	_, chain := buildBigProcessChain(t)
	for seq, enc := range chain {
		if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	base := storage.Qualify("acme", "web")
	stripeKey := base + storage.StripeSep + storage.StripeLabel(0, 2)
	holding := map[string]bool{}
	for _, key := range []string{base, stripeKey, base + storage.StripeSep + storage.StripeLabel(1, 2)} {
		peers, _, err := c.placement(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			holding[p] = true
		}
	}
	clean, err := ns.Scrub(ctx, "web", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != len(holding) {
		t.Fatalf("scrub reported %d peers, want one per peer holding any part (%v)", len(clean), holding)
	}
	for peer, rep := range clean {
		if !holding[peer] || rep.Proc != "web" || !rep.Clean() {
			t.Fatalf("undamaged %s: %+v", peer, rep)
		}
	}

	// Flip one byte of one element of stripe 0 on its first holder.
	holders, _, err := c.placement(stripeKey)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dirs[holders[0]], "*", "ckpt-*.aic"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, f := range files {
		if flipped || !strings.Contains(filepath.Base(filepath.Dir(f)), "s0of2") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped = true
	}
	if !flipped {
		t.Fatalf("no stripe file under %s among %v", dirs[holders[0]], files)
	}

	found, err := ns.Scrub(ctx, "web", true)
	if err != nil {
		t.Fatal(err)
	}
	for peer, rep := range found {
		if want := peer == holders[0]; want != (len(rep.Corrupt) == 1 && rep.Repaired) {
			t.Fatalf("%s (flipped holder %s): %+v", peer, holders[0], rep)
		}
	}
	again, err := ns.Scrub(ctx, "web", false)
	if err != nil {
		t.Fatal(err)
	}
	for peer, rep := range again {
		if len(rep.Corrupt) != 0 {
			t.Fatalf("%s still corrupt after repair: %+v", peer, rep)
		}
	}
	// The second holder's copy still restores the proc.
	if _, rep, err := ns.Restore(ctx, "web"); err != nil || rep.LastSeq != len(chain)-1 {
		t.Fatalf("restore after scrub repair: %+v, %v", rep, err)
	}
}
