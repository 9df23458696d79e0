package ring

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"aic/internal/metrics"
	"aic/internal/storage"
)

// testFleet is a set of named in-memory peer stores.
type testFleet map[string]*storage.FSStore

func (f testFleet) store(peer string) storage.Store {
	st, ok := f[peer]
	if !ok {
		return nil
	}
	return st
}

// seed writes every key's chain to its replica set under r.
func (f testFleet) seed(t *testing.T, r *Ring, keys []string, replicas, seqs int) {
	t.Helper()
	ctx := context.Background()
	for _, key := range keys {
		for _, peer := range r.Place(key, replicas) {
			for seq := 1; seq <= seqs; seq++ {
				data := []byte(fmt.Sprintf("%s-seq%d", key, seq))
				if err := f[peer].Put(ctx, key, seq, data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func newFleet(peers []string) testFleet {
	f := testFleet{}
	for _, p := range peers {
		f[p] = storage.NewMemStore(storage.Target{Name: p})
	}
	return f
}

// verifyPlacement asserts every (key, seq) is byte-identical on every
// member of its replica set — the committed-seq preservation invariant.
func verifyPlacement(t *testing.T, f testFleet, r *Ring, keys []string, replicas, seqs int) {
	t.Helper()
	ctx := context.Background()
	for _, key := range keys {
		for _, peer := range r.Place(key, replicas) {
			chain, _, err := f[peer].Get(ctx, key)
			if err != nil {
				t.Fatalf("%s on %s: %v", key, peer, err)
			}
			if len(chain) != seqs {
				t.Fatalf("%s on %s: %d elements, want %d", key, peer, len(chain), seqs)
			}
			for i, el := range chain {
				want := fmt.Sprintf("%s-seq%d", key, i+1)
				if el.Seq != i+1 || string(el.Data) != want {
					t.Fatalf("%s on %s seq %d: got (%d, %q), want %q", key, peer, i+1, el.Seq, el.Data, want)
				}
			}
		}
	}
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant%d@proc%d", i%5, i)
	}
	return keys
}

// sentLog records every Put that reaches a peer's store.
type sentLog struct {
	mu    sync.Mutex
	puts  []string
	bytes int64
}

type loggedStore struct {
	storage.Store
	peer string
	log  *sentLog
}

func (s loggedStore) Put(ctx context.Context, key string, seq int, data []byte) error {
	s.log.mu.Lock()
	s.log.puts = append(s.log.puts, fmt.Sprintf("%s %s seq %d", s.peer, key, seq))
	s.log.bytes += int64(len(data))
	s.log.mu.Unlock()
	return s.Store.Put(ctx, key, seq, data)
}

func TestRebalanceJoinAndLeave(t *testing.T) {
	const replicas, seqs = 2, 3
	ctx := context.Background()
	oldPeers := peersN(4)
	old := New(oldPeers, 0)
	fleet := newFleet(append(oldPeers, "10.0.0.9:4700"))
	keys := testKeys(40)
	fleet.seed(t, old, keys, replicas, seqs)

	// One peer joins, one leaves — both transitions in a single round.
	next := old.Add("10.0.0.9:4700").Remove("10.0.0.2:4700")
	reg := metrics.NewRegistry()
	sent := &sentLog{}
	store := func(peer string) storage.Store {
		if st := fleet.store(peer); st != nil {
			return loggedStore{Store: st, peer: peer, log: sent}
		}
		return nil
	}
	rb := &Rebalancer{Replicas: replicas, Store: store, Logf: t.Logf}
	rb.SetMetrics(reg)
	rep, err := rb.Rebalance(ctx, old, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deferred) != 0 {
		t.Fatalf("deferred: %v", rep.Deferred)
	}
	if rep.Moves == 0 || rep.CopiedBytes == 0 {
		t.Fatalf("no movement recorded: %+v", rep)
	}
	verifyPlacement(t, fleet, next, keys, replicas, seqs)

	// Only the gaining peers were sent anything: a peer that kept its
	// placement already held every element, and the merge saw it.
	var want []string
	for _, key := range keys {
		for _, peer := range next.Place(key, replicas) {
			if !contains(old.Place(key, replicas), peer) {
				for seq := 1; seq <= seqs; seq++ {
					want = append(want, fmt.Sprintf("%s %s seq %d", peer, key, seq))
				}
			}
		}
	}
	sort.Strings(sent.puts)
	sort.Strings(want)
	if !reflect.DeepEqual(sent.puts, want) {
		t.Fatalf("rebalance Puts:\n%s\nwant only the gaining peers' elements:\n%s",
			strings.Join(sent.puts, "\n"), strings.Join(want, "\n"))
	}
	if rep.CopiedBytes != sent.bytes {
		t.Fatalf("CopiedBytes = %d, but %d bytes reached the stores", rep.CopiedBytes, sent.bytes)
	}

	// The departed peer released every chain it no longer owns.
	names, err := fleet["10.0.0.2:4700"].List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !contains(next.Place(name, replicas), "10.0.0.2:4700") {
			t.Fatalf("departed peer still holds %s", name)
		}
	}
	if v, ok := reg.Value("aic_ring_rebalance_total"); !ok || v != 1 {
		t.Fatalf("rebalance metric = (%v, %v)", v, ok)
	}
	if v, _ := reg.Value("aic_ring_chain_moves_total"); v == 0 {
		t.Fatal("chain-moves metric did not advance")
	}

	// A second round over a converged ring is a no-op.
	rep2, err := rb.Rebalance(ctx, next, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Moves != 0 || rep2.Released != 0 {
		t.Fatalf("converged ring still moved chains: %+v", rep2)
	}
}

// TestRebalanceUnreachableGainerDefers pins the never-drop rule: when a
// gaining peer is down, the chain is deferred and no copy is released —
// over-replication is acceptable, under-replication never is.
func TestRebalanceUnreachableGainerDefers(t *testing.T) {
	const replicas, seqs = 2, 2
	ctx := context.Background()
	oldPeers := peersN(3)
	old := New(oldPeers, 0)
	fleet := newFleet(oldPeers) // the joiner has no store: unreachable
	keys := testKeys(30)
	fleet.seed(t, old, keys, replicas, seqs)

	next := old.Add("10.0.0.9:4700")
	rb := &Rebalancer{Replicas: replicas, Store: fleet.store}
	rep, err := rb.Rebalance(ctx, old, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moves > 0 && len(rep.Deferred) == 0 {
		t.Fatalf("moves toward an unreachable peer were not deferred: %+v", rep)
	}
	if rep.Released != 0 {
		t.Fatalf("released %d copies despite unreachable gainer", rep.Released)
	}
	// Every chain is still fully present on its OLD replica set.
	verifyPlacement(t, fleet, old, keys, replicas, seqs)
}

// TestRebalanceMergesSplitGapAndDefersOnDisagreement pins what mergedChain
// keeps of its own around the shared fetch and union: a chain whose seqs
// survive on different replicas moves whole, and two replicas holding
// different bytes at one seq defer the move — the union's first-copy rule
// must never pick a side for the rebalancer.
func TestRebalanceMergesSplitGapAndDefersOnDisagreement(t *testing.T) {
	const replicas = 2
	ctx := context.Background()
	oldPeers := peersN(3)
	old := New(oldPeers, 0)
	next := old.Add("10.0.0.9:4700")
	// A key whose replica set changes when the joiner arrives.
	var key string
	for _, k := range testKeys(200) {
		if moves := Diff(old, next, []string{k}, replicas); len(moves) == 1 && len(moves[0].Lost) > 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no test key moves when the joiner arrives")
	}
	holders := old.Place(key, replicas)

	for _, tc := range []struct {
		name     string
		seed     func(f testFleet)
		deferred bool
	}{
		{"split gap", func(f testFleet) {
			f[holders[0]].Put(ctx, key, 1, []byte("one"))
			f[holders[1]].Put(ctx, key, 2, []byte("two"))
		}, false},
		{"same seq, different bytes", func(f testFleet) {
			f[holders[0]].Put(ctx, key, 1, []byte("one"))
			f[holders[1]].Put(ctx, key, 1, []byte("uno"))
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := newFleet(append(oldPeers, "10.0.0.9:4700"))
			tc.seed(fleet)
			rb := &Rebalancer{Replicas: replicas, Store: fleet.store}
			rep, err := rb.Rebalance(ctx, old, next)
			if err != nil {
				t.Fatal(err)
			}
			if tc.deferred {
				if len(rep.Deferred) != 1 || rep.Deferred[0] != key || rep.Released != 0 {
					t.Fatalf("disagreeing replicas were not deferred untouched: %+v", rep)
				}
				return
			}
			if len(rep.Deferred) != 0 {
				t.Fatalf("deferred: %v", rep.Deferred)
			}
			// Both seqs now sit on a new-set peer that held neither before.
			chain, _, err := fleet["10.0.0.9:4700"].Get(ctx, key)
			if err != nil || len(chain) != 2 || string(chain[0].Data) != "one" || string(chain[1].Data) != "two" {
				t.Fatalf("joiner's chain = %v, %v; want both halves of the split chain", chain, err)
			}
		})
	}
}
