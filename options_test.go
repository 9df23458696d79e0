package aic_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"aic"
	"aic/internal/remote"
	"aic/internal/storage"
)

func TestOptionsValidate(t *testing.T) {
	bad := []aic.Options{
		{FailureRate: math.NaN()},
		{FailureRate: -1},
		{Scale: math.Inf(1)},
		{Scale: math.NaN()},
		{FixedInterval: -3},
		{FullCheckpointEvery: -1},
		{Policy: aic.Policy(99)},
		{Compressor: aic.Compressor(-2)},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, o)
		}
		if _, err := aic.RunBenchmark("milc", o); err == nil {
			t.Errorf("case %d: RunBenchmark accepted %+v", i, o)
		}
	}
	if err := (aic.Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

func TestProgramSpecValidate(t *testing.T) {
	good := aic.ProgramSpec{
		Name: "ok", BaseTime: 10, Pages: 64,
		Phases: []aic.Phase{{Duration: 1, Rate: 5, RegionLo: 0, RegionHi: 64}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	mutate := []func(*aic.ProgramSpec){
		func(s *aic.ProgramSpec) { s.Pages = 0 },
		func(s *aic.ProgramSpec) { s.BaseTime = 0 },
		func(s *aic.ProgramSpec) { s.BaseTime = math.NaN() },
		func(s *aic.ProgramSpec) { s.Phases = nil },
		func(s *aic.ProgramSpec) { s.Phases[0].Duration = -1 },
		func(s *aic.ProgramSpec) { s.Phases[0].Rate = math.Inf(1) },
		func(s *aic.ProgramSpec) { s.Phases[0].RegionHi = 1000 },
		func(s *aic.ProgramSpec) { s.Phases[0].RegionLo = 64 },
		func(s *aic.ProgramSpec) { s.Phases[0].Fraction = 1.5 },
		func(s *aic.ProgramSpec) { s.Phases[0].Pattern = aic.AccessPattern(9) },
		func(s *aic.ProgramSpec) { s.Phases[0].Mode = aic.ContentMode(-1) },
	}
	for i, mut := range mutate {
		s := good
		s.Phases = append([]aic.Phase(nil), good.Phases...)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
		if _, err := aic.RunProgram(s, aic.Options{}); err == nil {
			t.Errorf("mutation %d ran", i)
		}
	}
}

func TestNewProcessWithParallelism(t *testing.T) {
	// The encoded stream is identical regardless of worker count.
	mk := func(opts ...aic.Option) *aic.Process {
		p := aic.NewProcess(512, opts...)
		for i := 0; i < 16; i++ {
			p.Write(uint64(i), 0, bytes.Repeat([]byte{byte(i)}, 512))
		}
		p.FullCheckpoint()
		for i := 0; i < 16; i += 2 {
			p.Write(uint64(i), 7, []byte("dirty"))
		}
		return p
	}
	serial := mk(aic.WithParallelism(1))
	parallel := mk(aic.WithParallelism(4))
	auto := mk()
	d1, _ := serial.DeltaCheckpoint()
	d2, _ := parallel.DeltaCheckpoint()
	d3, _ := auto.DeltaCheckpoint()
	if !bytes.Equal(d1, d2) || !bytes.Equal(d1, d3) {
		t.Fatal("parallelism changed the encoded stream")
	}
}

// startPeer runs a replication server over a memory store and returns its
// address, the server and its backing store.
func startPeer(t *testing.T) (string, *remote.Server, *storage.FSStore) {
	t.Helper()
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(backing, remote.ServerConfig{})
	go srv.Serve(context.Background(), ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv, backing
}

func TestCheckpointDirReplication(t *testing.T) {
	addr1, _, peer1 := startPeer(t)
	addr2, srv2, _ := startPeer(t)

	tmp := t.TempDir()
	dir, err := aic.OpenCheckpointDir(tmp, aic.WithReplication(aic.Replication{
		Peers:       []string{addr1, addr2},
		Quorum:      2,
		DialTimeout: time.Second,
		OpTimeout:   5 * time.Second,
		Retries:     1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	p := aic.NewProcess(512)
	for i := 0; i < 8; i++ {
		p.Write(uint64(i), 0, bytes.Repeat([]byte{byte(i + 1)}, 512))
	}
	full := p.FullCheckpoint()
	if err := dir.Append(context.Background(), "job", p.Seq()-1, full); err != nil {
		t.Fatalf("replicated append: %v", err)
	}
	p.Write(3, 0, []byte("delta delta"))
	delta, _ := p.DeltaCheckpoint()
	if err := dir.Append(context.Background(), "job", p.Seq()-1, delta); err != nil {
		t.Fatalf("replicated append: %v", err)
	}
	// A label that contradicts the frame's own seq is rejected before it
	// can poison local or remote manifests.
	if err := dir.Append(context.Background(), "job", p.Seq()+7, delta); err == nil {
		t.Fatal("mislabelled append accepted")
	}

	// Both peers hold the chain.
	if chain, _, err := peer1.Get(t.Context(), "job"); err != nil || len(chain) != 2 {
		t.Fatalf("peer1 chain = %d elements, %v", len(chain), err)
	}

	// One peer dies: quorum 2 of 2 is unreachable, but the checkpoint is
	// still durable locally — Append degrades instead of failing outright.
	srv2.Close()
	p.Write(4, 0, []byte("second delta"))
	delta2, _ := p.DeltaCheckpoint()
	err = dir.Append(context.Background(), "job", p.Seq()-1, delta2)
	if !errors.Is(err, aic.ErrDegraded) {
		t.Fatalf("append with a dead peer = %v, want ErrDegraded", err)
	}
	var de *aic.DegradedError
	if !errors.As(err, &de) || de.Err == nil {
		t.Fatalf("degraded error carries no cause: %v", err)
	}
	// The local chain is intact despite the degraded replication.
	chain, err := dir.Chain(context.Background(), "job")
	if err != nil || len(chain) != 3 {
		t.Fatalf("local chain = %d elements, %v", len(chain), err)
	}

	// Disaster: the local directory loses the process — simulated by
	// deleting the chain straight out of the backing directory, bypassing
	// the facade (dir.Remove would fan the delete out to the surviving
	// peer too). The survivor peer carries the restore, byte-identical up
	// to the replicated prefix.
	lfs, err := storage.NewFSStore(tmp, storage.Target{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lfs.Delete(t.Context(), "job"); err != nil {
		t.Fatal(err)
	}
	im, rep, err := dir.RestoreBestReplica(context.Background(), "job")
	if err != nil {
		t.Fatal(err)
	}
	// The surviving peer acked the degraded append (only the dead peer
	// missed it), so the restore reaches seq 2 — the live image.
	if rep.LastSeq != 2 {
		t.Fatalf("survivor restored through seq %d, want 2", rep.LastSeq)
	}
	if !im.Matches(p) {
		t.Fatal("restored image differs from the live process")
	}
}

func TestCheckpointDirWithStore(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "mem"})
	dir, err := aic.OpenCheckpointDir("", aic.WithStore(backing))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	p := aic.NewProcess(256)
	p.Write(0, 0, []byte("hello"))
	full := p.FullCheckpoint()
	if err := dir.Append(context.Background(), "m", p.Seq()-1, full); err != nil {
		t.Fatal(err)
	}
	if chain, _, err := backing.Get(t.Context(), "m"); err != nil || len(chain) != 1 {
		t.Fatalf("custom store chain = %d, %v", len(chain), err)
	}
	im, _, err := dir.RestoreLatestGood(context.Background(), "m")
	if err != nil || !im.Matches(p) {
		t.Fatalf("restore through custom store: %v", err)
	}
}

func TestCheckpointDirHousekeepingReachesPeers(t *testing.T) {
	s1 := storage.NewMemStore(storage.Target{Name: "a"})
	s2 := storage.NewMemStore(storage.Target{Name: "b"})
	dir, err := aic.OpenCheckpointDir(t.TempDir(), aic.WithReplication(aic.Replication{
		Stores: []aic.Store{s1, s2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	for seq := 0; seq < 3; seq++ {
		if err := dir.Append(context.Background(), "p", seq, []byte{byte(seq)}); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
	}
	// Truncate fans out: the peers' chains are cut along with the local one,
	// instead of growing without bound.
	if err := dir.Truncate(context.Background(), "p", 2); err != nil {
		t.Fatal(err)
	}
	for i, s := range []*storage.FSStore{s1, s2} {
		chain, _, err := s.Get(t.Context(), "p")
		if err != nil || len(chain) != 1 || chain[0].Seq != 2 {
			t.Fatalf("peer %d after truncate: chain = %v, %v", i, chain, err)
		}
	}
	// Remove fans out too.
	if err := dir.Remove(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	for i, s := range []*storage.FSStore{s1, s2} {
		if procs, _ := s.List(t.Context()); len(procs) != 0 {
			t.Fatalf("peer %d still lists %v after remove", i, procs)
		}
	}
}

func TestReplicationQuorumDefaultsToMajority(t *testing.T) {
	s1 := storage.NewMemStore(storage.Target{Name: "a"})
	s2 := storage.NewMemStore(storage.Target{Name: "b"})
	s3 := storage.NewMemStore(storage.Target{Name: "c"})
	dir, err := aic.OpenCheckpointDir(t.TempDir(), aic.WithReplication(aic.Replication{
		Stores: []aic.Store{s1, s2, s3},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	if err := dir.Append(context.Background(), "p", 0, []byte("onlyseq")); err == nil {
		// Raw bytes are fine for the stores; the append must reach all
		// three in-memory peers.
		for i, s := range []*storage.FSStore{s1, s2, s3} {
			if chain, _, _ := s.Get(t.Context(), "p"); len(chain) != 1 {
				t.Fatalf("peer %d missed the append", i)
			}
		}
	} else {
		t.Fatal(err)
	}
}

// darkablePeer is an in-memory replica whose Puts, Truncates and Deletes
// fail while dark.
type darkablePeer struct {
	*storage.FSStore
	dark bool
}

var errPeerDown = errors.New("peer down")

func (p *darkablePeer) Put(ctx context.Context, proc string, seq int, data []byte) error {
	if p.dark {
		return errPeerDown
	}
	return p.FSStore.Put(ctx, proc, seq, data)
}

func (p *darkablePeer) Truncate(ctx context.Context, proc string, fullSeq int) error {
	if p.dark {
		return errPeerDown
	}
	return p.FSStore.Truncate(ctx, proc, fullSeq)
}

func (p *darkablePeer) Delete(ctx context.Context, proc string) error {
	if p.dark {
		return errPeerDown
	}
	return p.FSStore.Delete(ctx, proc)
}

// openDarkableTrio opens a directory facade replicating to three darkable
// peers under quorum; opts may add others, such as a darkable local store
// through WithStore.
func openDarkableTrio(t *testing.T, quorum int, opts ...aic.Option) (*aic.CheckpointDir, []*darkablePeer) {
	t.Helper()
	peers := make([]*darkablePeer, 3)
	stores := make([]aic.Store, 3)
	for i := range peers {
		peers[i] = &darkablePeer{FSStore: storage.NewMemStore(storage.Target{Name: fmt.Sprintf("peer%d", i)})}
		stores[i] = peers[i]
	}
	dir, err := aic.OpenCheckpointDir(t.TempDir(), append(opts, aic.WithReplication(aic.Replication{Stores: stores, Quorum: quorum}))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	return dir, peers
}

// An append holds its quorum of peers or degrades: fewer than Quorum peer
// acks return ErrDegraded wrapping a QuorumError that carries the peers'
// causes, and the checkpoint is in the local store either way. A peer
// rejecting a stale seq acks only when it holds the very bytes written.
func TestCheckpointDirPeerQuorum(t *testing.T) {
	ctx := context.Background()
	data := []byte("full")
	for _, tc := range []struct {
		name  string
		setup func(p []*darkablePeer)
		acked int   // peer acks of a missed quorum; -1 when the quorum holds
		cause error // what the QuorumError wraps
	}{
		{"healthy", func([]*darkablePeer) {}, -1, nil},
		{"one dark peer", func(p []*darkablePeer) { p[2].dark = true }, -1, nil},
		{"two dark peers", func(p []*darkablePeer) { p[1].dark, p[2].dark = true, true }, 1, errPeerDown},
		{"identical retry", func(p []*darkablePeer) { p[0].FSStore.Put(ctx, "p", 0, data) }, -1, nil},
		{"diverged chains", func(p []*darkablePeer) {
			// Different bytes at the seq, and a higher last seq: both peers
			// reject the Put without storing it, so neither may count.
			p[0].FSStore.Put(ctx, "p", 0, []byte("diverged"))
			p[1].FSStore.Put(ctx, "p", 5, []byte("newer"))
		}, 1, storage.ErrStaleSeq},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, peers := openDarkableTrio(t, 2)
			tc.setup(peers)
			err := dir.Append(ctx, "p", 0, data)
			if tc.acked < 0 {
				if err != nil {
					t.Fatalf("append = %v, want the quorum held", err)
				}
				for i, p := range peers {
					if got, ok, _ := storage.ReadElem(ctx, p, "p", 0); !p.dark && (!ok || !bytes.Equal(got, data)) {
						t.Fatalf("live peer %d does not hold the append", i)
					}
				}
			} else {
				var qe *storage.QuorumError
				if !errors.Is(err, aic.ErrDegraded) || !errors.As(err, &qe) || qe.Acked != tc.acked || !errors.Is(err, tc.cause) {
					t.Fatalf("append = %v, want ErrDegraded over a QuorumError with %d acks wrapping %v", err, tc.acked, tc.cause)
				}
			}
			if chain, err := dir.Chain(ctx, "p"); err != nil || len(chain) != 1 || !bytes.Equal(chain[0], data) {
				t.Fatalf("local chain = %q, %v", chain, err)
			}
		})
	}

	// The local store is the must-ack member: its failure is the op's own
	// error, unwrapped and never ErrDegraded, even when the peers ack or
	// miss quorum, and every peer is still called.
	for _, tc := range []struct {
		name  string
		dark  int                            // peers dark besides the local store
		op    func(*aic.CheckpointDir) error // run on a chain holding seqs 0 and 1
		holds []int                          // seqs every live peer holds afterwards
	}{
		{"local fails append", 0, func(d *aic.CheckpointDir) error { return d.Append(ctx, "p", 2, []byte("two")) }, []int{0, 1, 2}},
		{"local fails truncate", 0, func(d *aic.CheckpointDir) error { return d.Truncate(ctx, "p", 1) }, []int{1}},
		{"local fails remove", 0, func(d *aic.CheckpointDir) error { return d.Remove(ctx, "p") }, nil},
		{"local fails append, quorum missed", 2, func(d *aic.CheckpointDir) error { return d.Append(ctx, "p", 2, []byte("two")) }, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local := &darkablePeer{FSStore: storage.NewMemStore(storage.Target{Name: "local"})}
			dir, peers := openDarkableTrio(t, 2, aic.WithStore(local))
			for seq, data := range []string{"zero", "one"} {
				if err := dir.Append(ctx, "p", seq, []byte(data)); err != nil {
					t.Fatal(err)
				}
			}
			local.dark = true
			for _, p := range peers[3-tc.dark:] {
				p.dark = true
			}
			if err := tc.op(dir); err != errPeerDown {
				t.Fatalf("op with the local store dark = %v, want the local %v unwrapped", err, errPeerDown)
			}
			for i, p := range peers[:3-tc.dark] {
				chain, _, _ := p.Get(ctx, "p")
				var seqs []int
				for _, el := range chain {
					seqs = append(seqs, el.Seq)
				}
				if fmt.Sprint(seqs) != fmt.Sprint(tc.holds) {
					t.Errorf("live peer %d holds seqs %v, want %v: not every replica was called", i, seqs, tc.holds)
				}
			}
		})
	}
}

func TestOpenCheckpointDirValidatesReplication(t *testing.T) {
	mem := func() aic.Store { return storage.NewMemStore(storage.Target{}) }
	for _, tc := range []struct {
		repl aic.Replication
		want string
	}{
		{aic.Replication{}, "aic: replication: storage: replicated store needs at least one peer"},
		{aic.Replication{Stores: []aic.Store{mem(), mem()}, Quorum: 4}, "aic: replication: storage: quorum 4 exceeds 2 peers"},
	} {
		if _, err := aic.OpenCheckpointDir(t.TempDir(), aic.WithReplication(tc.repl)); err == nil || err.Error() != tc.want {
			t.Errorf("open with %d stores, quorum %d = %v, want %q", len(tc.repl.Stores), tc.repl.Quorum, err, tc.want)
		}
	}
	// Quorum 0 selects a majority of the peers: 2 of 3.
	dir, peers := openDarkableTrio(t, 0)
	peers[1].dark, peers[2].dark = true, true
	var qe *storage.QuorumError
	err := dir.Append(context.Background(), "p", 0, []byte("x"))
	if !errors.As(err, &qe) || qe.Quorum != 2 || qe.Acked != 1 || len(qe.Errs) != 2 {
		t.Fatalf("append with two of three peers dark = %v, want 1 of 3 peers short of a quorum of 2", err)
	}
}

// NewClient rejects a WriteQuorum above Replicas through the same quorum
// rule as OpenCheckpointDir, rather than acking with fewer replicas than
// asked for; a ring smaller than Replicas still clamps at write time.
func TestNewClientValidatesWriteQuorum(t *testing.T) {
	ring := func(n int) map[string]aic.Store {
		out := make(map[string]aic.Store, n)
		for i := 0; i < n; i++ {
			out[fmt.Sprintf("peer-%d", i)] = storage.NewMemStore(storage.Target{})
		}
		return out
	}
	const want = "aic: write quorum 3 exceeds 2 peers"
	if c, err := aic.NewClient(aic.ClientConfig{Stores: ring(3), Replicas: 2, WriteQuorum: 3}); err == nil || err.Error() != want {
		if c != nil {
			c.Close()
		}
		t.Fatalf("NewClient with WriteQuorum 3 over 2 replicas = %v, want %q", err, want)
	}
	c, err := aic.NewClient(aic.ClientConfig{Stores: ring(1), Replicas: 3, WriteQuorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Namespace("acme").Checkpoint(context.Background(), "web", 0, []byte("x")); err != nil {
		t.Fatalf("quorum 3 of 3 replicas on a one-peer ring = %v, want it clamped to the ring", err)
	}
}

// NewClient rejects a StripeCount above the most a restore accepts, rather
// than writing stripe sets no restore can read back.
func TestNewClientValidatesStripeCount(t *testing.T) {
	stores := map[string]aic.Store{"peer": storage.NewMemStore(storage.Target{})}
	const want = "aic: ckpt: stripe count 1025 (want 2 to 1024)"
	if c, err := aic.NewClient(aic.ClientConfig{Stores: stores, StripeCount: 1025}); err == nil || err.Error() != want {
		if c != nil {
			c.Close()
		}
		t.Fatalf("NewClient with StripeCount 1025 = %v, want %q", err, want)
	}
	c, err := aic.NewClient(aic.ClientConfig{Stores: stores, StripeCount: 1024})
	if err != nil {
		t.Fatalf("NewClient with StripeCount 1024: %v", err)
	}
	c.Close()
}
