package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"aic/internal/metrics"
)

// planStore is one replica of the read-plan property test: stored copies in
// a memory store, seqs it lists without a readable body, and a dark switch. It
// has no GetSeqs of its own, so ReadSeqs reads it through the Get fallback;
// it counts its whole reads and how often each seq's body was asked for.
type planStore struct {
	Store
	missing []int
	dark    bool

	mu    sync.Mutex
	gets  int
	asked map[int]int
}

func (p *planStore) Get(ctx context.Context, key string) ([]Stored, []int, error) {
	p.mu.Lock()
	p.gets++
	p.mu.Unlock()
	if p.dark {
		return nil, nil, errDown
	}
	chain, _, err := p.Store.Get(ctx, key)
	return chain, p.missing, err
}

// seqPlanStore is a planStore with the refinement.
type seqPlanStore struct{ *planStore }

func (p seqPlanStore) GetSeqs(ctx context.Context, key string, want []int) ([]int, []Stored, []int, error) {
	p.mu.Lock()
	for _, seq := range want {
		p.asked[seq]++
	}
	p.mu.Unlock()
	if p.dark {
		return nil, nil, nil, errDown
	}
	chain, _, err := p.Store.Get(ctx, key)
	if err != nil {
		return nil, nil, nil, err
	}
	listed, kept, missing := FilterSeqs(chain, p.missing, want)
	return listed, kept, missing, nil
}

// The read plan must give exactly Union(Fetch(…), admit)'s answer over any
// inventory: seqs stored, listed as missing, flipped (refused by admit) or
// absent per replica, dark and store-less replicas, with and without the
// refinement — while asking the first replica for one whole read and no
// replica for the same body twice.
func TestReplicaSetReadMatchesUnion(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	admit := func(el Stored) bool { return !bytes.HasPrefix(el.Data, []byte("BAD")) }
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(4)
		names := make([]string, n)
		peers := make([]Store, n)
		probes := make([]*planStore, n)
		for i := range peers {
			names[i] = fmt.Sprint(i)
			if rng.Intn(20) == 0 {
				continue // placement names a replica nothing backs
			}
			ps := &planStore{Store: NewMemStore(Target{}), dark: rng.Intn(7) == 0, asked: map[int]int{}}
			for seq := 0; seq < 10; seq++ {
				switch r := rng.Intn(20); {
				case r < 10:
					ps.Store.Put(ctx, "k", seq, []byte(fmt.Sprintf("r%d s%d", i, seq)))
				case r < 13:
					ps.Store.Put(ctx, "k", seq, []byte(fmt.Sprintf("BAD r%d s%d", i, seq)))
				case r < 15:
					ps.missing = append(ps.missing, seq)
				}
			}
			probes[i], peers[i] = ps, ps
			if rng.Intn(2) == 0 {
				peers[i] = seqPlanStore{ps}
			}
		}
		var want ChainResult
		chains, err := new(FanOut).Fetch(ctx, "k", names, peers)
		if err != nil {
			want.Err = err
		} else {
			want.Merged, want.Source, want.Unreadable = Union(chains, admit)
		}
		for _, p := range probes {
			if p != nil {
				p.gets, p.asked = 0, map[int]int{}
			}
		}
		got := new(FanOut).Read(ctx, []ChainRead{{Key: "k", Names: names, Peers: peers}}, func(_ int, el Stored) bool { return admit(el) })[0]
		if (got.Err == nil) != (want.Err == nil) {
			t.Fatalf("trial %d: Read err %v, Fetch err %v", trial, got.Err, want.Err)
		}
		if got.Err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Read = %+v\nUnion(Fetch) = %+v", trial, got, want)
		}
		for i, p := range probes {
			if p == nil {
				continue
			}
			if _, refined := peers[i].(SeqGetter); refined && (i == 0) != (p.gets == 1) {
				t.Fatalf("trial %d: replica %d served %d whole reads", trial, i, p.gets)
			}
			for seq, times := range p.asked {
				if times > 1 {
					t.Fatalf("trial %d: replica %d asked %d times for seq %d", trial, i, times, seq)
				}
			}
		}
	}
}

// A batch puts all of one peer's calls on one goroutine, in order: the peer
// never sees two reads at once, whatever sets it is on.
func TestReplicaSetReadBatchOneCallPerPeer(t *testing.T) {
	ctx := context.Background()
	shared := &countingReads{Store: NewMemStore(Target{})}
	for key := 0; key < 4; key++ {
		shared.Store.Put(ctx, fmt.Sprint(key), 0, []byte("x"))
	}
	var reads []ChainRead
	for key := 0; key < 4; key++ {
		other := NewMemStore(Target{})
		other.Put(ctx, fmt.Sprint(key), 0, []byte("x"))
		// shared is first on half the sets and second on the others.
		rd := ChainRead{Key: fmt.Sprint(key), Names: []string{"shared", fmt.Sprint("other", key)}, Peers: []Store{shared, other}}
		if key%2 == 1 {
			rd.Names[0], rd.Names[1] = rd.Names[1], rd.Names[0]
			rd.Peers[0], rd.Peers[1] = rd.Peers[1], rd.Peers[0]
		}
		reads = append(reads, rd)
	}
	reg := metrics.NewRegistry()
	var fan FanOut
	fan.SetMetrics(reg)
	for _, res := range fan.Read(ctx, reads, nil) {
		if res.Err != nil || len(res.Merged) != 1 {
			t.Fatalf("result %+v", res)
		}
	}
	if shared.peak > 1 || shared.calls != 4 {
		t.Fatalf("shared peer: %d calls, peak %d in flight; want 4 calls one at a time", shared.calls, shared.peak)
	}
	if v, _ := reg.Value("aic_replicated_fanout_total", "get"); v != 4 {
		t.Fatalf("aic_replicated_fanout_total{get} = %v, want one per chain", v)
	}
	if v, _ := reg.Value("aic_replicated_read_bytes_total", "get"); v != 4 {
		t.Fatalf("aic_replicated_read_bytes_total{get} = %v, want one byte per chain", v)
	}
}

// countingReads tracks how many reads of it are in flight.
type countingReads struct {
	Store
	mu                    sync.Mutex
	inflight, peak, calls int
}

func (c *countingReads) enter() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.inflight++; c.inflight > c.peak {
		c.peak = c.inflight
	}
}

func (c *countingReads) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
}

func (c *countingReads) Get(ctx context.Context, key string) ([]Stored, []int, error) {
	c.enter()
	defer c.leave()
	return c.Store.Get(ctx, key)
}

func (c *countingReads) GetSeqs(ctx context.Context, key string, want []int) ([]int, []Stored, []int, error) {
	c.enter()
	defer c.leave()
	return ReadSeqs(ctx, c.Store, key, want)
}

// Every store's refinement, and every wrapper's forward of it, answers like
// Get filtered to want: unreadable files are missing, unlisted and repeated
// wants are ignored.
func TestReplicaSetGetSeqsMatchesFilteredGet(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	level := NewMemStore(Target{})
	for seq := 0; seq < 5; seq++ {
		for _, st := range []Store{fs, level} {
			if err := st.Put(ctx, Qualify("acme", "p"), seq, []byte{byte(seq)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.Remove(filepath.Join(fs.procDir(Qualify("acme", "p")), ckptFile(3))); err != nil {
		t.Fatal(err)
	}
	want := []int{4, 1, 3, 9, 1}
	for name, st := range map[string]*FSStore{"fs": fs, "level": level} {
		all, lost, err := st.Get(ctx, Qualify("acme", "p"))
		if err != nil {
			t.Fatal(err)
		}
		wantListed, wantChain, wantMissing := FilterSeqs(all, lost, want)
		for via, sg := range map[string]SeqGetter{"direct": st, "wrapped": NewQuotaStore(st, Quota{})} {
			listed, chain, missing, err := sg.GetSeqs(ctx, Qualify("acme", "p"), want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(listed, wantListed) || !reflect.DeepEqual(chain, wantChain) || !reflect.DeepEqual(missing, wantMissing) {
				t.Fatalf("%s %s: GetSeqs = %v %v %v, want %v %v %v", name, via, listed, chain, missing, wantListed, wantChain, wantMissing)
			}
		}
	}
	if got := fmt.Sprint(FilterSeqs(nil, nil, nil)); got != "[] [] []" {
		t.Fatalf("empty chain = %s", got)
	}
}
