package storage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aic/internal/metrics"
)

// flakyStore wraps a Store, failing selected operations.
type flakyStore struct {
	Store
	failPut bool
	dark    bool // every operation fails
}

var errDown = errors.New("peer down")

func (f *flakyStore) Put(ctx context.Context, proc string, seq int, data []byte) error {
	if f.dark || f.failPut {
		return errDown
	}
	return f.Store.Put(ctx, proc, seq, data)
}

func (f *flakyStore) Get(ctx context.Context, proc string) ([]Stored, []int, error) {
	if f.dark {
		return nil, nil, errDown
	}
	return f.Store.Get(ctx, proc)
}

func (f *flakyStore) List(ctx context.Context) ([]string, error) {
	if f.dark {
		return nil, errDown
	}
	return f.Store.List(ctx)
}

func (f *flakyStore) Scrub(ctx context.Context, proc string, repair bool) (*ScrubReport, error) {
	if f.dark {
		return nil, errDown
	}
	return f.Store.Scrub(ctx, proc, repair)
}

func newReplicatedTrio(t *testing.T) (*ReplicatedStore, []*flakyStore) {
	t.Helper()
	peers := make([]*flakyStore, 3)
	stores := make([]Store, 3)
	for i := range peers {
		peers[i] = &flakyStore{Store: NewLevelStore(Target{Name: fmt.Sprintf("peer%d", i), BandwidthBps: 100})}
		stores[i] = peers[i]
	}
	rs, err := NewReplicatedStore(2, stores...)
	if err != nil {
		t.Fatal(err)
	}
	return rs, peers
}

func TestReplicatedQuorumPut(t *testing.T) {
	ctx := context.Background()
	rs, peers := newReplicatedTrio(t)

	// All healthy: everyone gets the checkpoint.
	if err := rs.Put(ctx, "p", 0, []byte("full")); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if chain := mustChain(t, p.Store, "p"); len(chain) != 1 {
			t.Fatalf("peer %d chain = %v", i, chain)
		}
	}

	// One peer dark: quorum of 2 still acks.
	peers[2].dark = true
	if err := rs.Put(ctx, "p", 1, []byte("delta")); err != nil {
		t.Fatalf("quorum put with one dark peer: %v", err)
	}

	// Two peers dark: quorum fails with a QuorumError wrapping the causes.
	peers[1].dark = true
	err := rs.Put(ctx, "p", 2, []byte("delta2"))
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want QuorumError", err)
	}
	if qe.Acked != 1 || !errors.Is(err, errDown) {
		t.Fatalf("quorum error = %+v", qe)
	}
}

func TestReplicatedGetPicksBestReplica(t *testing.T) {
	ctx := context.Background()
	rs, peers := newReplicatedTrio(t)
	// peer0 has the longest chain; peer1 lags; peer2 is dark.
	for seq := 0; seq < 3; seq++ {
		peers[0].Store.Put(ctx, "p", seq, []byte{byte(seq)})
	}
	peers[1].Store.Put(ctx, "p", 0, []byte{0})
	peers[2].dark = true

	chain, _, err := rs.Get(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[2].Seq != 2 {
		t.Fatalf("best replica chain = %v", chain)
	}

	// "Best" is per seq, not per replica: a seq only the lagging peer holds
	// joins the chain.
	peers[1].Store.Put(ctx, "p", 3, []byte{3})
	chain, missing, err := rs.Get(ctx, "p")
	if err != nil || len(chain) != 4 || chain[3].Seq != 3 || len(missing) != 0 {
		t.Fatalf("union chain = %v missing %v err %v", chain, missing, err)
	}

	// Every peer dark: Get fails, wrapping the peers' causes.
	peers[0].dark, peers[1].dark = true, true
	var qe *QuorumError
	if _, _, err := rs.Get(ctx, "p"); !errors.As(err, &qe) || !errors.Is(err, errDown) {
		t.Fatalf("Get with every peer dark = %v, want a QuorumError wrapping the causes", err)
	}
}

func TestReplicaSetFetchIsIndexAlignedAndCounted(t *testing.T) {
	ctx := context.Background()
	held := NewLevelStore(Target{Name: "held"})
	held.Put(ctx, "p", 0, []byte("x"))
	reg := metrics.NewRegistry()
	var fan FanOut
	fan.SetMetrics(reg)
	names := []string{"dark", "none", "held"}
	chains, err := fan.Fetch(ctx, "p", names, []Store{&flakyStore{dark: true}, nil, held})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(chains[0].Err, errDown) || chains[1].Err == nil || chains[2].Err != nil || len(chains[2].Stored) != 1 {
		t.Fatalf("chains = %+v, want dark / store-less / answered, in replica order", chains)
	}
	if v, _ := reg.Value("aic_replicated_fanout_total", "get"); v != 1 {
		t.Fatalf("aic_replicated_fanout_total{get} = %v, want 1", v)
	}
	if v, _ := reg.Value("aic_replicated_partial_ack_total", "get"); v != 1 {
		t.Fatalf("aic_replicated_partial_ack_total{get} = %v, want 1", v)
	}
	// No replica answered — every one dark, or none at all — is the only error.
	if _, err := fan.Fetch(ctx, "p", names[:2], []Store{&flakyStore{dark: true}, nil}); !errors.Is(err, errDown) {
		t.Fatalf("fetch from dark replicas = %v", err)
	}
	if _, err := fan.Fetch(ctx, "p", nil, nil); err == nil {
		t.Fatal("fetch from an empty replica set succeeded")
	}
}

func TestReplicaSetUnion(t *testing.T) {
	el := func(seq int, data string) Stored { return Stored{Seq: seq, Data: []byte(data)} }
	chains := []ReplicaChain{
		{Stored: []Stored{el(0, "a0"), el(1, "BAD"), el(3, "a3")}, Missing: []int{2}},
		{Err: errDown, Stored: []Stored{el(9, "never read")}},
		{Stored: []Stored{el(0, "c0"), el(1, "c1"), el(4, "BAD")}, Missing: []int{5}},
	}
	var asked []string
	merged, source, unreadable := Union(chains, func(s Stored) bool {
		asked = append(asked, string(s.Data))
		return string(s.Data) != "BAD"
	})
	var got []string
	for i, s := range merged {
		got = append(got, fmt.Sprintf("%d=%s@%d", s.Seq, s.Data, source[i]))
	}
	// Seq 0: the first replica's copy wins and the third's is never asked
	// about. Seq 1: the first copy is refused, the next replica's taken.
	// Seqs 2 and 5 are listed only as missing, seq 4's one copy is refused.
	if want := "[0=a0@0 1=c1@2 3=a3@0]"; fmt.Sprint(got) != want {
		t.Fatalf("merged = %v, want %s", got, want)
	}
	if fmt.Sprint(unreadable) != "[2 4 5]" {
		t.Fatalf("unreadable = %v, want [2 4 5]", unreadable)
	}
	if want := "[a0 BAD a3 c1 BAD]"; fmt.Sprint(asked) != want {
		t.Fatalf("admit asked about %v, want %s (each winner once, no copy of a seq already won)", asked, want)
	}
	// A nil admit takes every first copy.
	merged, _, unreadable = Union(chains, nil)
	if len(merged) != 4 || string(merged[1].Data) != "BAD" || fmt.Sprint(unreadable) != "[2 5]" {
		t.Fatalf("admit-any union = %v, unreadable %v", merged, unreadable)
	}
}

func TestReplicatedScrubMergesPeerReports(t *testing.T) {
	ctx := context.Background()
	rs, peers := newReplicatedTrio(t)
	peers[2].dark = true
	rep, err := rs.Scrub(ctx, "p", false)
	if err != nil || rep.Proc != "p" || !rep.Clean() {
		t.Fatalf("scrub with one dark peer = %+v, %v", rep, err)
	}
	peers[0].dark, peers[1].dark = true, true
	if _, err := rs.Scrub(ctx, "p", false); !errors.Is(err, errDown) {
		t.Fatalf("scrub with every peer dark = %v", err)
	}

	a := &ScrubReport{Proc: "p", Corrupt: []int{1}, Unknown: []string{"x"}}
	a.Merge(&ScrubReport{Proc: "p#s0of2", Orphaned: []int{5}, Corrupt: []int{4}, Missing: []int{2}, Repaired: true})
	if a.Proc != "p" || !a.Repaired || fmt.Sprint(a.Corrupt, a.Missing, a.Orphaned, a.Unknown) != "[1 4] [2] [5] [x]" {
		t.Fatalf("merged report = %+v", a)
	}
}

func TestReplicatedStaleSeqCountsAsAck(t *testing.T) {
	ctx := context.Background()
	rs, peers := newReplicatedTrio(t)
	// peer0 already holds seq 0 with identical bytes (a retry after a lost
	// ack): the duplicate put must not block the quorum.
	peers[0].Store.Put(ctx, "p", 0, []byte("full"))
	if err := rs.Put(ctx, "p", 0, []byte("full")); err != nil {
		t.Fatalf("re-replication of an already-held seq failed: %v", err)
	}
}

func TestReplicatedStaleSeqDivergedChainIsNotAck(t *testing.T) {
	ctx := context.Background()
	rs, peers := newReplicatedTrio(t) // quorum 2 of 3
	// peer0 holds different bytes at the same seq, peer1 a higher last seq:
	// both reject the Put with ErrStaleSeq without storing anything, so
	// neither may count toward the quorum — only peer2 truly acks.
	peers[0].Store.Put(ctx, "p", 0, []byte("diverged"))
	peers[1].Store.Put(ctx, "p", 5, []byte("newer"))
	err := rs.Put(ctx, "p", 0, []byte("fresh"))
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("diverged stale-seq counted toward quorum: err = %v", err)
	}
	if qe.Acked != 1 || !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("quorum error = %+v", qe)
	}
}

func TestReplicatedListUnion(t *testing.T) {
	ctx := context.Background()
	rs, peers := newReplicatedTrio(t)
	peers[0].Store.Put(ctx, "a", 0, []byte{1})
	peers[1].Store.Put(ctx, "b", 0, []byte{1})
	procs, err := rs.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2 || procs[0] != "a" || procs[1] != "b" {
		t.Fatalf("List union = %v", procs)
	}
}

func TestNewReplicatedStoreValidation(t *testing.T) {
	if _, err := NewReplicatedStore(1); err == nil {
		t.Fatal("no peers accepted")
	}
	if _, err := NewReplicatedStore(4, NewLevelStore(Target{}), NewLevelStore(Target{})); err == nil {
		t.Fatal("quorum > peers accepted")
	}
	rs, err := NewReplicatedStore(0, NewLevelStore(Target{}), NewLevelStore(Target{}), NewLevelStore(Target{}))
	if err != nil || rs.Quorum() != 2 {
		t.Fatalf("default quorum = %d, %v; want majority 2", rs.Quorum(), err)
	}
}

func TestFanOutRunJoinsAndReportsInPeerOrder(t *testing.T) {
	mem := func(name string) Store { return NewLevelStore(Target{Name: name}) }
	peers := []Store{mem("a"), nil, mem("c"), mem("d")}
	var fan FanOut // the zero value reports nothing and must still work
	var returned atomic.Int32
	names := []string{"a", "b", "c", "d"}
	acked, failed := fan.Run(context.Background(), "put", 2, names, peers, func(ctx context.Context, i int, peer Store) error {
		defer returned.Add(1)
		time.Sleep(time.Duration(len(peers)-i) * 5 * time.Millisecond) // later peers finish first
		if i == 2 {
			return errDown
		}
		return peer.Put(ctx, "p", 0, []byte("x"))
	})
	if returned.Load() != 3 {
		t.Fatalf("Run returned with %d of 3 ops finished", returned.Load())
	}
	if acked != 2 || len(failed) != 2 {
		t.Fatalf("acked %d, failed %v; want 2 acks and 2 failures", acked, failed)
	}
	// Failures come back in peers order whatever order the ops finished in,
	// labelled: the store-less replica b, then c's own error.
	if !strings.HasPrefix(failed[0].Error(), "peer b: ") || !strings.HasPrefix(failed[1].Error(), "peer c: ") || !errors.Is(failed[1], errDown) {
		t.Fatalf("failures mislabelled or out of peer order: %v", failed)
	}
}
