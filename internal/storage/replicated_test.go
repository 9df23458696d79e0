package storage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

	// Every peer dark: Get fails.
	peers[0].dark, peers[1].dark = true, true
	if _, _, err := rs.Get(ctx, "p"); err == nil {
		t.Fatal("Get with every peer dark must fail")
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
