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

// flakyStore wraps a Store; while dark, every operation fails.
type flakyStore struct {
	Store
	dark bool
}

var errDown = errors.New("peer down")

func (f *flakyStore) Put(ctx context.Context, proc string, seq int, data []byte) error {
	if f.dark {
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

// flakyTrio is three in-memory replicas named "0", "1", "2".
func flakyTrio() ([]string, []Store, []*flakyStore) {
	names := []string{"0", "1", "2"}
	stores := make([]Store, 3)
	peers := make([]*flakyStore, 3)
	for i := range peers {
		peers[i] = &flakyStore{Store: NewMemStore(Target{Name: fmt.Sprintf("peer%d", i), BandwidthBps: 100})}
		stores[i] = peers[i]
	}
	return names, stores, peers
}

// A replica-set read is per seq, not per replica: the longest chain is not
// enough when a lagging replica holds a seq nobody else does, and a dark
// replica only fails the read once every replica is dark.
func TestReplicatedGetPicksBestReplica(t *testing.T) {
	ctx := context.Background()
	names, stores, peers := flakyTrio()
	read := func() ChainResult {
		return new(FanOut).Read(ctx, []ChainRead{{Key: "p", Names: names, Peers: stores}}, nil)[0]
	}
	// peer0 has the longest chain; peer1 lags; peer2 is dark.
	for seq := 0; seq < 3; seq++ {
		peers[0].Store.Put(ctx, "p", seq, []byte{byte(seq)})
	}
	peers[1].Store.Put(ctx, "p", 0, []byte{0})
	peers[2].dark = true
	if res := read(); res.Err != nil || len(res.Merged) != 3 || res.Merged[2].Seq != 2 {
		t.Fatalf("best replica chain = %+v", res)
	}
	peers[1].Store.Put(ctx, "p", 3, []byte{3})
	if res := read(); res.Err != nil || len(res.Merged) != 4 || res.Merged[3].Seq != 3 || len(res.Unreadable) != 0 {
		t.Fatalf("union chain = %+v", res)
	}
	peers[0].dark, peers[1].dark = true, true
	var qe *QuorumError
	if res := read(); !errors.As(res.Err, &qe) || !errors.Is(res.Err, errDown) {
		t.Fatalf("read with every replica dark = %v, want a QuorumError wrapping the causes", res.Err)
	}
}

func TestReplicaSetFetchIsIndexAlignedAndCounted(t *testing.T) {
	ctx := context.Background()
	held := NewMemStore(Target{Name: "held"})
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

// Per-chain scrub findings fold into one report per peer: a stripe chain's
// report merges into its base chain's, keeping the base's name.
func TestScrubReportMerge(t *testing.T) {
	a := &ScrubReport{Proc: "p", Corrupt: []int{1}, Unknown: []string{"x"}}
	a.Merge(&ScrubReport{Proc: "p#s0of2", Orphaned: []int{5}, Corrupt: []int{4}, Missing: []int{2}, Repaired: true})
	if a.Proc != "p" || !a.Repaired || fmt.Sprint(a.Corrupt, a.Missing, a.Orphaned, a.Unknown) != "[1 4] [2] [5] [x]" {
		t.Fatalf("merged report = %+v", a)
	}
}

// A replica-set listing is the union of the answering replicas' names, and
// fails only when none answers.
func TestReplicatedListUnion(t *testing.T) {
	ctx := context.Background()
	names, stores, peers := flakyTrio()
	peers[0].Store.Put(ctx, "a", 0, []byte{1})
	peers[1].Store.Put(ctx, "b", 0, []byte{1})
	peers[2].dark = true
	var fan FanOut
	procs, err := fan.List(ctx, names, stores)
	if err != nil || fmt.Sprint(procs) != "[a b]" {
		t.Fatalf("List union = %v, %v", procs, err)
	}
	peers[0].dark, peers[1].dark = true, true
	if _, err := fan.List(ctx, names, stores); !errors.Is(err, errDown) {
		t.Fatalf("List with every replica dark = %v", err)
	}
}

// A replica that already holds identical bytes at the seq (a retry after a
// lost ack) rejects the Put as stale, and PutVerified counts that as an ack.
func TestReplicatedStaleSeqCountsAsAck(t *testing.T) {
	ctx := context.Background()
	replica := NewMemStore(Target{})
	replica.Put(ctx, "p", 0, []byte("full"))
	if err := PutVerified(ctx, replica, "p", 0, []byte("full")); err != nil {
		t.Fatalf("re-replication of an already-held seq failed: %v", err)
	}
}

// A stale-seq rejection from a diverged chain — other bytes at the seq, or
// a chain that moved past it — stored nothing, so it stays a failure.
func TestReplicatedStaleSeqDivergedChainIsNotAck(t *testing.T) {
	ctx := context.Background()
	sameSeq, moved := NewMemStore(Target{}), NewMemStore(Target{})
	sameSeq.Put(ctx, "p", 0, []byte("diverged"))
	moved.Put(ctx, "p", 5, []byte("newer"))
	for name, replica := range map[string]Store{"same seq": sameSeq, "moved on": moved} {
		if err := PutVerified(ctx, replica, "p", 0, []byte("fresh")); !errors.Is(err, ErrStaleSeq) {
			t.Errorf("%s: PutVerified = %v, want ErrStaleSeq", name, err)
		}
	}
}

func TestFanOutRunJoinsAndReportsInPeerOrder(t *testing.T) {
	mem := func(name string) Store { return NewMemStore(Target{Name: name}) }
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
