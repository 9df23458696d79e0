package aic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

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
		p.Advance(1)
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
// peer's stale-seq rejection is an ack: only when the peer verifiably holds
// the very bytes being written (a retry after a lost ack), never when it
// holds something else at that (key, seq).
func TestDifferentialStaleSeqAck(t *testing.T) {
	ctx := context.Background()
	data := []byte("the checkpoint being written")
	facades := map[string]func(t *testing.T, peers []Store, reg *MetricsRegistry) (key string, write func() error){
		"ring": func(t *testing.T, peers []Store, reg *MetricsRegistry) (string, func() error) {
			stores := make(map[string]Store, len(peers))
			for i, p := range peers {
				stores[fmt.Sprintf("peer-%d", i)] = p
			}
			c := newTestClient(t, ClientConfig{Stores: stores, Replicas: len(peers), Metrics: reg})
			return storage.Qualify("acme", "web"), func() error {
				return c.Namespace("acme").Checkpoint(ctx, "web", 0, data)
			}
		},
		"dir": func(t *testing.T, peers []Store, reg *MetricsRegistry) (string, func() error) {
			d, err := OpenCheckpointDir("", WithStore(storage.NewLevelStore(storage.Target{Name: "local"})),
				WithReplication(Replication{Stores: peers}), WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return "web", func() error { return d.Append(ctx, "web", 0, data) }
		},
	}
	for _, tc := range []struct {
		name             string
		peers            int
		held             []byte // what peer 0 already holds at seq 0
		ringErr, dirErr  error  // dir: a held quorum with a failed peer is not an error
		misses, partials float64
	}{
		{"identical retry", 2, data, nil, nil, 0, 0},
		{"diverged peer of 2", 2, []byte("something else"), ErrNoQuorum, ErrDegraded, 1, 0},
		{"diverged peer of 3", 3, []byte("something else"), ErrDegraded, nil, 0, 1},
	} {
		for facade, open := range facades {
			t.Run(tc.name+"/"+facade, func(t *testing.T) {
				peers := make([]Store, tc.peers)
				for i := range peers {
					peers[i] = storage.NewLevelStore(storage.Target{Name: fmt.Sprintf("peer-%d", i)})
				}
				reg := NewMetricsRegistry()
				key, write := open(t, peers, reg)
				if err := peers[0].Put(ctx, key, 0, tc.held); err != nil {
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
		p.Advance(1)
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
	ls := storage.NewLevelStore(storage.Target{Name: "mem"})
	if _, err := OpenCheckpointDir("", WithStore(ls), WithDedup(smallDedup())); err == nil {
		t.Fatal("WithDedup over a non-directory store must fail to open")
	}
	// LevelStore supports anchor replacement, so compaction alone is fine.
	d, err := OpenCheckpointDir("", WithStore(ls), WithCompaction(CompactionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if d.comp == nil {
		t.Fatal("compactor not armed")
	}
}
