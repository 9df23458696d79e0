package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aic/internal/ckpt"
)

// testDedupConfig is small geometry so modest payloads chunk and share.
func testDedupConfig() DedupConfig {
	return DedupConfig{MinChunk: 64, AvgChunk: 256, MaxChunk: 1024, MinPayload: 1}
}

func newDedupFS(t *testing.T) *FSStore {
	t.Helper()
	fs, err := NewFSStore(t.TempDir(), Target{Name: "dedup"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableDedup(context.Background(), testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	return fs
}

// frame builds a decodable checkpoint frame carrying payload, so scrub's
// full validity pipeline (resolve recipe, decode frame) exercises.
func frame(seq int, payload []byte) []byte {
	return (&ckpt.Checkpoint{Seq: seq, Kind: ckpt.Incremental, PageSize: 512, Payload: payload}).Encode()
}

func fullFrame(seq int, payload []byte) []byte {
	return (&ckpt.Checkpoint{Seq: seq, Kind: ckpt.Full, PageSize: 512, Payload: payload}).Encode()
}

func TestDedupRoundTripByteIdentical(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	rng := rand.New(rand.NewSource(1))
	var want [][]byte
	for seq := 0; seq < 8; seq++ {
		data := make([]byte, 3000+rng.Intn(5000))
		rng.Read(data)
		want = append(want, data)
		if err := fs.Put(ctx, "p", seq, data); err != nil {
			t.Fatal(err)
		}
	}
	chain, missing, err := fs.Get(ctx, "p")
	if err != nil || len(missing) != 0 || len(chain) != len(want) {
		t.Fatalf("Get: %v missing=%v len=%d", err, missing, len(chain))
	}
	for i, s := range chain {
		if !bytes.Equal(s.Data, want[i]) {
			t.Fatalf("seq %d: resolved bytes differ", i)
		}
	}
	for i := range want {
		got, ok, err := fs.GetElem(ctx, "p", i)
		if err != nil || !ok || !bytes.Equal(got, want[i]) {
			t.Fatalf("GetElem(%d): ok=%v err=%v identical=%v", i, ok, err, bytes.Equal(got, want[i]))
		}
	}
	// On-disk files really are recipes, not payloads.
	raw, err := os.ReadFile(filepath.Join(fs.root, "p", ckptFile(0)))
	if err != nil || !isRecipe(raw) {
		t.Fatalf("stored file is not a recipe (err=%v)", err)
	}
}

func TestDedupSharesChunksAcrossProcsAndTenants(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	shared := make([]byte, 32<<10)
	rand.New(rand.NewSource(2)).Read(shared)
	// Same payload under three keys: a bare proc, another proc, and a
	// tenant-qualified key (tenancy is a prefix over the same flat store).
	for _, proc := range []string{"a", "b", "tenant-x@a"} {
		if err := fs.Put(ctx, proc, 0, shared); err != nil {
			t.Fatal(err)
		}
	}
	st, err := fs.DedupStats(ctx)
	if err != nil || !st.Enabled {
		t.Fatalf("stats: %+v err=%v", st, err)
	}
	if st.LogicalBytes != int64(3*len(shared)) {
		t.Fatalf("logical = %d, want %d", st.LogicalBytes, 3*len(shared))
	}
	if st.Ratio() < 2.9 {
		t.Fatalf("dedup ratio %.2f, want ~3 for identical payloads", st.Ratio())
	}
	for _, proc := range []string{"a", "b", "tenant-x@a"} {
		got, ok, err := fs.GetElem(ctx, proc, 0)
		if err != nil || !ok || !bytes.Equal(got, shared) {
			t.Fatalf("%s: restore not byte-identical", proc)
		}
	}
}

func TestDedupTruncateDeleteReleaseAndGC(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	rng := rand.New(rand.NewSource(3))
	unique := func() []byte {
		b := make([]byte, 8<<10)
		rng.Read(b)
		return b
	}
	for seq := 0; seq < 4; seq++ {
		if err := fs.Put(ctx, "p", seq, unique()); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Put(ctx, "q", 0, unique()); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ctx, "p", 2); err != nil {
		t.Fatal(err)
	}
	n, reclaimed, err := fs.GCChunks(ctx)
	if err != nil || n == 0 || reclaimed == 0 {
		t.Fatalf("GC after truncate: n=%d bytes=%d err=%v", n, reclaimed, err)
	}
	// Survivors still resolve.
	chain, missing, err := fs.Get(ctx, "p")
	if err != nil || len(missing) != 0 || len(chain) != 2 {
		t.Fatalf("post-GC chain: %v missing=%v len=%d", err, missing, len(chain))
	}
	if err := fs.Delete(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "q"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.GCChunks(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := fs.DedupStats(ctx)
	if err != nil || st.Chunks != 0 || st.PhysicalBytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("after deleting everything: %+v err=%v", st, err)
	}
	entries, err := os.ReadDir(filepath.Join(fs.root, chunkDirName))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("chunk dir still holds %s after full GC", e.Name())
	}
}

func TestDedupReopenRebuildsIndex(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs1, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs1.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16<<10)
	rand.New(rand.NewSource(4)).Read(data)
	for seq := 0; seq < 3; seq++ {
		if err := fs1.Put(ctx, "p", seq, data); err != nil {
			t.Fatal(err)
		}
	}
	want, err := fs1.DedupStats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// No index is ever written: the recipes are the only record, and
	// reopen must rebuild the counts from them.
	if _, err := os.Stat(filepath.Join(dir, chunkDirName, legacyIndexName)); !os.IsNotExist(err) {
		t.Fatalf("a refcount index file was written (stat err=%v)", err)
	}
	fs2, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	// Reads resolve recipes even before EnableDedup.
	got, ok, err := fs2.GetElem(ctx, "p", 0)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("pre-enable read: ok=%v err=%v", ok, err)
	}
	if err := fs2.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	st, err := fs2.DedupStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalBytes != want.LogicalBytes || st.Chunks != want.Chunks {
		t.Fatalf("rebuilt index %+v, want %+v", st, want)
	}
	// A rescued store must keep refcounts honest: GC reclaims nothing.
	if n, _, err := fs2.GCChunks(ctx); err != nil || n != 0 {
		t.Fatalf("GC on rebuilt index reclaimed %d chunks (err=%v)", n, err)
	}
	if _, _, err := fs2.Get(ctx, "p"); err != nil {
		t.Fatal(err)
	}
}

func TestDedupScrubClassifiesAndRepairsRecipes(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	payload := make([]byte, 8<<10)
	rand.New(rand.NewSource(5)).Read(payload)
	for seq := 0; seq < 3; seq++ {
		if err := fs.Put(ctx, "p", seq, frame(seq, payload)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := fs.Scrub(ctx, "p", false)
	if err != nil || !rep.Clean() {
		t.Fatalf("fresh dedup chain not clean: %v %v", rep, err)
	}

	// Flip a bit inside one recipe file: scrub must classify it corrupt,
	// repair must remove it and release its chunk references.
	path := filepath.Join(fs.root, "p", ckptFile(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = fs.Scrub(ctx, "p", true)
	if err != nil || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 1 || !rep.Repaired {
		t.Fatalf("scrub after bit flip: %v err=%v", rep, err)
	}
	rep, err = fs.Scrub(ctx, "p", false)
	if err != nil || !rep.Clean() {
		t.Fatalf("second scrub not clean: %v err=%v", rep, err)
	}
	// Identical payloads share chunks, so seqs 0 and 2 still resolve.
	for _, seq := range []int{0, 2} {
		got, ok, err := fs.GetElem(ctx, "p", seq)
		if err != nil || !ok || !bytes.Equal(got, frame(seq, payload)) {
			t.Fatalf("seq %d unreadable after repair", seq)
		}
	}
}

func TestDedupOrphanChunkReclaimedNotLive(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	data := make([]byte, 4<<10)
	rand.New(rand.NewSource(7)).Read(data)
	if err := fs.Put(ctx, "p", 0, data); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between chunk staging and recipe commit: a chunk
	// body on disk that no index entry claims.
	orphan := bytes.Repeat([]byte{0xEE}, 100)
	var id chunkID = sha256.Sum256(orphan)
	if err := os.WriteFile(fs.chunkPath(id), orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	n, _, err := fs.GCChunks(ctx)
	if err != nil || n != 1 {
		t.Fatalf("GC: removed %d, err=%v (want exactly the orphan)", n, err)
	}
	got, ok, err := fs.GetElem(ctx, "p", 0)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatal("GC touched a live chunk")
	}
}

// TestDedupGCNeverCollectsLiveChunksUnderLoad races writers, readers and
// the collector: every acknowledged Put must stay byte-identical no matter
// how often GC runs alongside.
func TestDedupGCNeverCollectsLiveChunksUnderLoad(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	const procs, seqs = 4, 12
	base := make([]byte, 6<<10)
	rand.New(rand.NewSource(8)).Read(base)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for seq := 0; seq < seqs; seq++ {
				data := append([]byte(nil), base...)
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
				if err := fs.Put(ctx, fmt.Sprintf("p%d", p), seq, data); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, _, err := fs.GCChunks(ctx); err != nil {
					t.Errorf("gc: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	gcWG.Wait()
	for p := 0; p < procs; p++ {
		chain, missing, err := fs.Get(ctx, fmt.Sprintf("p%d", p))
		if err != nil || len(missing) != 0 || len(chain) != seqs {
			t.Fatalf("p%d: err=%v missing=%v len=%d", p, err, missing, len(chain))
		}
	}
}

// TestDedupDifferentialLocal is the storage-level differential: the same
// workload through a dedup store and a plain store must produce
// byte-identical chains, with the dedup store physically smaller.
func TestDedupDifferentialLocal(t *testing.T) {
	ctx := context.Background()
	plain := newFS(t)
	dedup := newDedupFS(t)
	rng := rand.New(rand.NewSource(9))
	base := make([]byte, 24<<10)
	rng.Read(base)
	for seq := 0; seq < 6; seq++ {
		// Successive checkpoints share most content — the stdchk insight.
		data := append([]byte(nil), base...)
		for i := 0; i < 3; i++ {
			data[rng.Intn(len(data))] ^= 0xFF
		}
		if err := plain.Put(ctx, "p", seq, data); err != nil {
			t.Fatal(err)
		}
		if err := dedup.Put(ctx, "p", seq, data); err != nil {
			t.Fatal(err)
		}
	}
	a, am, err := plain.Get(ctx, "p")
	if err != nil || len(am) != 0 {
		t.Fatal(err)
	}
	b, bm, err := dedup.Get(ctx, "p")
	if err != nil || len(bm) != 0 {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("chain lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("element %d differs between dedup and plain store", i)
		}
	}
	st, err := dedup.DedupStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio() <= 1.0 {
		t.Fatalf("dedup ratio %.2f on near-identical checkpoints, want > 1", st.Ratio())
	}
}

// TestCrashSafeRemovalOrder records the FS calls of every removal path on a
// dedup store and checks the ordering that keeps chunk GC safe across a
// crash: the last unlink is followed by a directory fsync with no chunk
// reference given back in between, and the references are given back
// only after that fsync.
func TestCrashSafeRemovalOrder(t *testing.T) {
	ctx := context.Background()
	payload := make([]byte, 4<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	cases := []struct {
		name string
		op   func(fs *FSStore) error
	}{
		{"delete", func(fs *FSStore) error { return fs.Delete(ctx, "p") }},
		{"truncate", func(fs *FSStore) error { return fs.Truncate(ctx, "p", 2) }},
		{"replace anchor", func(fs *FSStore) error {
			return fs.ReplaceAnchor(ctx, "p", 2, fullFrame(2, payload), []int{0, 1})
		}},
		{"scrub repair", func(fs *FSStore) error {
			_, err := fs.Scrub(ctx, "p", true)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recFS{FS: OSFS{}}
			fs, err := NewFSStoreFS(t.TempDir(), Target{}, rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.EnableDedup(ctx, testDedupConfig()); err != nil {
				t.Fatal(err)
			}
			// Seq 3 is an intact recipe of bytes that are not a frame:
			// Scrub classifies it corrupt yet knows which references it
			// holds.
			for seq := 0; seq < 4; seq++ {
				enc := frame(seq, append(payload, byte(seq)))
				switch seq {
				case 0:
					enc = fullFrame(seq, payload)
				case 3:
					enc = append(payload, byte(seq))
				}
				if err := fs.Put(ctx, "p", seq, enc); err != nil {
					t.Fatal(err)
				}
			}
			logical := func() int64 { return fs.dedup.logical }
			rec.probe = logical
			rec.recorded()
			if err := tc.op(fs); err != nil {
				t.Fatal(err)
			}
			ops := rec.recorded()
			last := -1
			for i, o := range ops {
				if o.op == "remove" || o.op == "removeall" {
					last = i
				}
			}
			if last < 0 {
				t.Fatalf("no unlink recorded: %v", ops)
			}
			sync := last + 1
			for sync < len(ops) && ops[sync].op != "syncdir" {
				sync++
			}
			if sync == len(ops) {
				t.Fatalf("no directory fsync after the last unlink: %v", ops)
			}
			if ops[sync].probe != ops[last].probe {
				t.Fatalf("chunk references given back before the unlinks were pinned: %v", ops)
			}
			if after := logical(); after >= ops[sync].probe {
				t.Fatalf("logical bytes %d after the removal, %d at its fsync: nothing released", after, ops[sync].probe)
			}
		})
	}
}

// TestDedupCrashLostRecipeChunksReclaimed: a dedup miss whose recipe name
// is lost in a crash leaves its freshly pinned chunk bodies unreferenced.
// The reopened store rebuilds refcounts from the surviving recipes alone,
// so GCChunks reclaims exactly those chunks and the acknowledged element
// still resolves.
func TestDedupCrashLostRecipeChunksReclaimed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fault := &FaultFS{Inner: OSFS{}, LoseUnsyncedRenames: true}
	fs, err := NewFSStoreFS(dir, Target{}, fault)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	acked, lost := make([]byte, 4<<10), make([]byte, 4<<10)
	rng.Read(acked)
	rng.Read(lost)
	if err := fs.Put(ctx, "p", 0, acked); err != nil {
		t.Fatal(err)
	}
	// The miss pins its new chunks (first SyncDir), then its recipe's name
	// (second): crash there, losing the recipe rename.
	fault.Arm(OpSyncDir, 2, -1)
	if err := fs.Put(ctx, "p", 1, lost); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put = %v, want simulated crash", err)
	}

	reopened, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	n, reclaimed, err := reopened.GCChunks(ctx)
	if err != nil || n == 0 || reclaimed != int64(len(lost)) {
		t.Fatalf("GC removed %d chunks, %d bytes (err=%v); want the lost recipe's %d bytes", n, reclaimed, err, len(lost))
	}
	chain, missing, err := reopened.Get(ctx, "p")
	if err != nil || len(missing) != 0 || len(chain) != 1 || !bytes.Equal(chain[0].Data, acked) {
		t.Fatalf("after GC: chain=%d missing=%v err=%v", len(chain), missing, err)
	}
}

// TestReplaceAnchorCrashKeepsAnchorChunks: when the flip's directory fsync
// fails after its rename landed, the new anchor may be the committed
// element, so its chunk references must stay counted — GC taking them
// would leave the anchor, and every seq above it, unrestorable.
func TestReplaceAnchorCrashKeepsAnchorChunks(t *testing.T) {
	ctx := context.Background()
	fault := &FaultFS{Inner: OSFS{}}
	fs, err := NewFSStoreFS(t.TempDir(), Target{}, fault)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	payload, image := make([]byte, 4<<10), make([]byte, 4<<10)
	rng.Read(payload)
	rng.Read(image)
	for seq := 0; seq < 4; seq++ {
		enc := frame(seq, payload)
		if seq == 0 {
			enc = fullFrame(seq, payload)
		}
		if err := fs.Put(ctx, "p", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	// The flip pins its new chunks (first SyncDir), renames the anchor,
	// then fails the fsync that would pin the rename.
	fault.Transient = true
	fault.Arm(OpSyncDir, 2, -1)
	full := fullFrame(2, image)
	if err := fs.ReplaceAnchor(ctx, "p", 2, full, []int{0, 1}); err == nil {
		t.Fatal("flip succeeded through a failed directory fsync")
	}
	if _, _, err := fs.GCChunks(ctx); err != nil {
		t.Fatal(err)
	}
	if data, ok, err := fs.GetElem(ctx, "p", 2); err != nil || !ok || !bytes.Equal(data, full) {
		t.Fatalf("anchor after the failed flip and GC: ok=%v err=%v", ok, err)
	}
}

func TestReplaceAnchorRaceDetection(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	payload := make([]byte, 4<<10)
	rand.New(rand.NewSource(10)).Read(payload)
	for seq := 0; seq < 5; seq++ {
		enc := frame(seq, payload)
		if seq == 0 {
			enc = fullFrame(seq, payload)
		}
		if err := fs.Put(ctx, "p", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	full := fullFrame(3, payload)
	// Stale view: claims only seq 0 sits below the anchor.
	err := fs.ReplaceAnchor(ctx, "p", 3, full, []int{0})
	if !errors.Is(err, ErrCompactRaced) {
		t.Fatalf("stale drop list: err=%v, want ErrCompactRaced", err)
	}
	// Anchor no longer present.
	err = fs.ReplaceAnchor(ctx, "p", 9, full, []int{0, 1, 2})
	if !errors.Is(err, ErrCompactRaced) {
		t.Fatalf("absent anchor: err=%v, want ErrCompactRaced", err)
	}
	// Correct view flips.
	if err := fs.ReplaceAnchor(ctx, "p", 3, full, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	chain, missing, err := fs.Get(ctx, "p")
	if err != nil || len(missing) != 0 || len(chain) != 2 {
		t.Fatalf("post-flip chain: err=%v missing=%v len=%d", err, missing, len(chain))
	}
	if chain[0].Seq != 3 || !bytes.Equal(chain[0].Data, full) {
		t.Fatal("anchor element not replaced")
	}
	rep, err := fs.Scrub(ctx, "p", false)
	if err != nil || !rep.Clean() {
		t.Fatalf("post-flip scrub: %v err=%v", rep, err)
	}
}
