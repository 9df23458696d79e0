package compact

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/metrics"
	"aic/internal/numeric"
	"aic/internal/recovery"
	"aic/internal/storage"
)

const testPageSize = 512

// chainWriter drives a memsim address space and a ckpt builder so tests
// can append realistic full+delta chains to any store and keep the
// reference image the chain must restore to.
type chainWriter struct {
	as  *memsim.AddressSpace
	b   *ckpt.Builder
	rng *numeric.RNG
	buf []byte
}

func newChainWriter(seed uint64) *chainWriter {
	w := &chainWriter{
		as:  memsim.New(testPageSize),
		b:   ckpt.NewBuilder(testPageSize, 0, 24),
		rng: numeric.NewRNG(seed),
		buf: make([]byte, testPageSize),
	}
	for i := uint64(0); i < 12; i++ {
		w.rng.Bytes(w.buf)
		w.as.Write(i, 0, w.buf, 0)
	}
	return w
}

// append writes the next element (seq 0 is a full, later seqs deltas)
// into the store and returns the seq it committed.
func (w *chainWriter) append(ctx context.Context, t *testing.T, store storage.Store, proc string) int {
	t.Helper()
	var c *ckpt.Checkpoint
	if w.b.Seq() == 0 && len(w.b.PrevPage(0)) == 0 {
		c = w.b.FullCheckpoint(w.as)
	} else {
		w.rng.Bytes(w.buf[:64])
		w.as.Write(uint64(w.rng.Intn(12)), 0, w.buf[:64], 1)
		c, _ = w.b.DeltaCheckpoint(w.as)
	}
	if err := store.Put(ctx, proc, c.Seq, c.Encode()); err != nil {
		t.Fatal(err)
	}
	return c.Seq
}

func (w *chainWriter) grow(ctx context.Context, t *testing.T, store storage.Store, proc string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w.append(ctx, t, store, proc)
	}
}

func restoreState(t *testing.T, ctx context.Context, store storage.Store, proc string) (*memsim.AddressSpace, *recovery.GoodReport) {
	t.Helper()
	chain, missing, err := store.Get(ctx, proc)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing seqs %v", missing)
	}
	as, rep, err := recovery.RestoreLatestGood(chain)
	if err != nil {
		t.Fatal(err)
	}
	return as, rep
}

func newDedupStore(t *testing.T) *storage.FSStore {
	t.Helper()
	fs, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: "compact"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := storage.DedupConfig{MinChunk: 64, AvgChunk: 256, MaxChunk: 1024, MinPayload: 1}
	if err := fs.EnableDedup(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestCompactDifferentialRestore is the core equivalence proof: restoring
// after compaction yields byte-for-byte the same memory image and CPU
// state as restoring the original long chain.
func TestCompactDifferentialRestore(t *testing.T) {
	ctx := context.Background()
	fs := newDedupStore(t)
	w := newChainWriter(1)
	w.b.SetCPUState(bytes.Repeat([]byte{0xAB}, 24))
	w.grow(ctx, t, fs, "p", 41) // full + 40 deltas, over MaxChain

	before, repBefore := restoreState(t, ctx, fs, "p")

	reg := metrics.NewRegistry()
	c := New(fs, Config{MaxChain: 32, Keep: 8, Metrics: reg})
	rep, err := c.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Compacted) != 1 || rep.Compacted[0] != "p" {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ElemsDropped != 41-8 {
		t.Fatalf("dropped %d elements, want %d", rep.ElemsDropped, 41-8)
	}

	chain, missing, err := fs.Get(ctx, "p")
	if err != nil || len(missing) != 0 {
		t.Fatalf("Get: %v missing=%v", err, missing)
	}
	if len(chain) != 8 {
		t.Fatalf("post-compaction chain length %d, want keep-k = 8", len(chain))
	}
	after, repAfter := restoreState(t, ctx, fs, "p")
	if !before.Equal(after) {
		t.Fatal("memory image differs after compaction")
	}
	if repBefore.LastSeq != repAfter.LastSeq {
		t.Fatalf("LastSeq %d vs %d", repBefore.LastSeq, repAfter.LastSeq)
	}
	if !bytes.Equal(repBefore.CPUState, repAfter.CPUState) {
		t.Fatal("CPU state differs after compaction")
	}
	// The store stays clean and appendable: grow past the threshold again
	// and compact a second time.
	w.grow(ctx, t, fs, "p", 30)
	before2, _ := restoreState(t, ctx, fs, "p")
	if _, err := c.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	after2, _ := restoreState(t, ctx, fs, "p")
	if !before2.Equal(after2) {
		t.Fatal("second compaction changed restore state")
	}
	if v, ok := reg.Value("aic_compact_chains_rewritten_total"); !ok || v < 2 {
		t.Fatalf("aic_compact_chains_rewritten_total = %v, %v", v, ok)
	}
}

func TestCompactNoopBelowThreshold(t *testing.T) {
	ctx := context.Background()
	fs := newDedupStore(t)
	w := newChainWriter(2)
	w.grow(ctx, t, fs, "p", 10)
	c := New(fs, Config{MaxChain: 32, Keep: 8})
	rep, err := c.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Compacted)+len(rep.Raced)+len(rep.Skipped) != 0 {
		t.Fatalf("short chain touched: %+v", rep)
	}
	chain, _, err := fs.Get(ctx, "p")
	if err != nil || len(chain) != 10 {
		t.Fatalf("chain disturbed: len=%d err=%v", len(chain), err)
	}
}

func TestCompactMemStore(t *testing.T) {
	ctx := context.Background()
	ls := storage.NewMemStore(storage.Target{Name: "mem"})
	w := newChainWriter(3)
	w.grow(ctx, t, ls, "p", 20)
	before, _ := restoreState(t, ctx, ls, "p")
	c := New(ls, Config{MaxChain: 12, Keep: 4})
	rep, err := c.RunOnce(ctx)
	if err != nil || len(rep.Compacted) != 1 {
		t.Fatalf("report %+v err=%v", rep, err)
	}
	chain, _, err := ls.Get(ctx, "p")
	if err != nil || len(chain) != 4 {
		t.Fatalf("len=%d err=%v", len(chain), err)
	}
	after, _ := restoreState(t, ctx, ls, "p")
	if !before.Equal(after) {
		t.Fatal("memory-store compaction changed restore state")
	}
}

// racingStore loses every flip: it mutates the chain between the
// compactor's copy phase and the underlying ReplaceAnchor, the way a
// concurrent Truncate would.
type racingStore struct {
	Store
	t *testing.T
}

func (r *racingStore) ReplaceAnchor(ctx context.Context, proc string, anchorSeq int, full []byte, drop []int) error {
	if err := r.Store.Truncate(ctx, proc, 2); err != nil {
		r.t.Error(err)
	}
	return r.Store.ReplaceAnchor(ctx, proc, anchorSeq, full, drop)
}

func TestCompactRacedFlipIsBenign(t *testing.T) {
	ctx := context.Background()
	fs := newDedupStore(t)
	w := newChainWriter(4)
	w.grow(ctx, t, fs, "p", 20)
	c := New(&racingStore{Store: fs, t: t}, Config{MaxChain: 12, Keep: 4})
	rep, err := c.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Raced) != 1 || rep.Raced[0] != "p" || rep.ElemsDropped != 0 {
		t.Fatalf("report %+v, want the flip classified as raced", rep)
	}
	// The racing truncate won; the store reflects it and nothing else.
	chain, missing, err := fs.Get(ctx, "p")
	if err != nil || len(missing) != 0 || len(chain) != 18 {
		t.Fatalf("len=%d missing=%v err=%v", len(chain), missing, err)
	}
}

// corruptingStore serves the chain with one element bit-flipped, the way
// a store with silent media damage would.
type corruptingStore struct {
	Store
	seq int
}

func (cs *corruptingStore) Get(ctx context.Context, proc string) ([]storage.Stored, []int, error) {
	chain, missing, err := cs.Store.Get(ctx, proc)
	for i := range chain {
		if chain[i].Seq == cs.seq {
			bad := append([]byte(nil), chain[i].Data...)
			bad[len(bad)/2] ^= 0xFF
			chain[i].Data = bad
		}
	}
	return chain, missing, err
}

// TestCompactSkipsDamagedPrefix: a corrupt element below the cut must
// abort the fold — compaction never launders damage into a fresh anchor.
func TestCompactSkipsDamagedPrefix(t *testing.T) {
	ctx := context.Background()
	ls := storage.NewMemStore(storage.Target{Name: "mem"})
	w := newChainWriter(5)
	w.grow(ctx, t, ls, "p", 20)
	// Seq 9 sits inside the would-be folded prefix.
	c := New(&corruptingStore{Store: ls, seq: 9}, Config{MaxChain: 12, Keep: 4})
	rep, err := c.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != "p" {
		t.Fatalf("report %+v, want damaged chain skipped", rep)
	}
	if chain, _, _ := ls.Get(ctx, "p"); len(chain) != 20 {
		t.Fatalf("damaged chain mutated: len=%d", len(chain))
	}
}

// TestCompactGCReclaimsFoldedChunks: folding a dedup'd chain frees the
// prefix's recipes; the pass's GC sweep reclaims their now-unreferenced
// chunks while every surviving element still resolves.
func TestCompactGCReclaimsFoldedChunks(t *testing.T) {
	ctx := context.Background()
	fs := newDedupStore(t)
	w := newChainWriter(6)
	w.grow(ctx, t, fs, "p", 30)
	c := New(fs, Config{MaxChain: 16, Keep: 4})
	rep, err := c.RunOnce(ctx)
	if err != nil || len(rep.Compacted) != 1 {
		t.Fatalf("report %+v err=%v", rep, err)
	}
	if rep.ChunksReclaimed == 0 || rep.BytesReclaimed == 0 {
		t.Fatalf("GC reclaimed nothing: %+v", rep)
	}
	if scrub, err := fs.Scrub(ctx, "p", false); err != nil || !scrub.Clean() {
		t.Fatalf("post-compaction scrub: %+v err=%v", scrub, err)
	}
	st, err := fs.DedupStats(ctx)
	if err != nil || st.Chunks == 0 {
		t.Fatalf("stats %+v err=%v", st, err)
	}
}

// TestCompactConcurrentAppends races a compaction loop against a writer
// appending to the same chain: every acknowledged append must survive,
// and the final chain must restore to the writer's final image.
func TestCompactConcurrentAppends(t *testing.T) {
	ctx := context.Background()
	fs := newDedupStore(t)
	w := newChainWriter(7)
	w.grow(ctx, t, fs, "p", 20)

	c := New(fs, Config{MaxChain: 12, Keep: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := c.RunOnce(ctx); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	var lastSeq int
	for i := 0; i < 40; i++ {
		lastSeq = w.append(ctx, t, fs, "p")
	}
	close(stop)
	wg.Wait()

	as, rep := restoreState(t, ctx, fs, "p")
	if rep.LastSeq != lastSeq {
		t.Fatalf("restore reached seq %d, writer committed through %d", rep.LastSeq, lastSeq)
	}
	if !as.Equal(w.as) {
		t.Fatal("final restore does not match the writer's live image")
	}
	if scrub, err := fs.Scrub(ctx, "p", false); err != nil || !scrub.Clean() {
		t.Fatalf("scrub after racing compaction: %+v err=%v", scrub, err)
	}
}

func TestCompactManyProcs(t *testing.T) {
	ctx := context.Background()
	fs := newDedupStore(t)
	for p := 0; p < 3; p++ {
		w := newChainWriter(uint64(10 + p))
		w.grow(ctx, t, fs, fmt.Sprintf("p%d", p), 18)
	}
	c := New(fs, Config{MaxChain: 10, Keep: 5})
	rep, err := c.RunOnce(ctx)
	if err != nil || rep.Procs != 3 || len(rep.Compacted) != 3 {
		t.Fatalf("report %+v err=%v", rep, err)
	}
	for p := 0; p < 3; p++ {
		chain, missing, err := fs.Get(ctx, fmt.Sprintf("p%d", p))
		if err != nil || len(missing) != 0 || len(chain) != 5 {
			t.Fatalf("p%d: len=%d missing=%v err=%v", p, len(chain), missing, err)
		}
	}
}

func TestCompactRunHonorsContext(t *testing.T) {
	fs := newDedupStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(fs, Config{})
	if err := c.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}
