package storage_test

// Crash-window tests: a simulated crash is injected at every point inside
// FSStore.Put's durable-write protocol (data temp write, data fsync, data
// rename, directory fsync), the store is "rebooted" over the real
// filesystem, and Scrub + RestoreLatestGood must recover an image
// byte-identical to the last checkpoint whose Put either acknowledged or
// durably committed. The same is done for every window of the older
// manifest protocol, whose wreckage a store written by an earlier version
// can still hold, and for the removal paths.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/numeric"
	"aic/internal/recovery"
	"aic/internal/storage"
)

const crashProc = "p0"

// ctx is the background context every store call in these tests uses.
var ctx = context.Background()

// buildEncodedChain produces a full checkpoint plus three deltas, returning
// the encoded frames and the reference image as of each checkpoint.
func buildEncodedChain(t *testing.T) (encoded [][]byte, images []*memsim.AddressSpace) {
	t.Helper()
	rng := numeric.NewRNG(7)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 24)
	buf := make([]byte, 512)
	for i := uint64(0); i < 12; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	encoded = append(encoded, b.FullCheckpoint(as).Encode())
	images = append(images, as.Clone())
	for step := 1; step <= 3; step++ {
		for i := 0; i < 4; i++ {
			rng.Bytes(buf[:80])
			as.Write(uint64((step*5+i)%12), (i*100)%400, buf[:80], float64(step))
		}
		c, _ := b.DeltaCheckpoint(as)
		encoded = append(encoded, c.Encode())
		images = append(images, as.Clone())
	}
	return encoded, images
}

func ckptName(seq int) string { return fmt.Sprintf("ckpt-%08d.aic", seq) }

// recoverAfterCrash reopens the store on the real filesystem, scrubs with
// repair, verifies a second scrub is clean, and replays the latest-good
// prefix. wantLast < 0 asserts that nothing is restorable.
func recoverAfterCrash(t *testing.T, dir string, images []*memsim.AddressSpace, wantLast int) *storage.ScrubReport {
	t.Helper()
	reopened, err := storage.NewFSStore(dir, storage.Target{Name: "reboot"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := reopened.Scrub(ctx, crashProc, true)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	again, err := reopened.Scrub(ctx, crashProc, false)
	if err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	if !again.Clean() {
		t.Fatalf("store still inconsistent after repair: %v", again)
	}
	chain, missing, err := reopened.Get(ctx, crashProc)
	if err != nil {
		t.Fatalf("chain after repair: %v", err)
	}
	if len(missing) != 0 {
		t.Fatalf("repaired chain still lists missing files: %v", missing)
	}
	if wantLast < 0 {
		if len(chain) != 0 {
			t.Fatalf("expected empty chain, got %d elements", len(chain))
		}
		return rep
	}
	as, good, err := recovery.RestoreLatestGood(chain)
	if err != nil {
		t.Fatalf("RestoreLatestGood: %v", err)
	}
	if good.LastSeq != wantLast {
		t.Fatalf("restored through seq %d, want %d (report %+v)", good.LastSeq, wantLast, good)
	}
	if !as.Equal(images[wantLast]) {
		t.Fatalf("restored image differs from checkpoint %d reference", wantLast)
	}
	return rep
}

// TestPutCrashWindows drives a crash into each FS operation of the third
// Put (seqs 0 and 1 acknowledged beforehand) and checks the recovered
// store restores exactly the acknowledged — or durably committed — state.
// The legacy cases write through the older manifest protocol instead
// (manifest.json rewritten after every data file) and reopen its wreckage
// with the current store: the data file's name was already durable in each
// of those windows, so it is adopted and the manifest files are scrubbed
// away as strays.
func TestPutCrashWindows(t *testing.T) {
	// Per Put: WriteFile, SyncFile, Rename, SyncDir, once each — plus a
	// root SyncDir on the chain's first Put — so the third Put's ops are
	// occurrence 3 of each kind, and 4 of SyncDir. The legacy protocol
	// performs each op twice per Put (data, then manifest): its third Put
	// is occurrences 5 (data) and 6 (manifest).
	cases := []struct {
		name     string
		legacy   bool
		fault    *storage.FaultFS
		wantLast int // highest seq the recovered store must restore
	}{
		{
			name: "data write torn",
			fault: &storage.FaultFS{
				CrashOp: storage.OpWriteFile, CrashN: 3, PartialBytes: 10,
			},
			wantLast: 1,
		},
		{
			name: "data write lost entirely",
			fault: &storage.FaultFS{
				CrashOp: storage.OpWriteFile, CrashN: 3, PartialBytes: -1,
			},
			wantLast: 1,
		},
		{
			name: "data fsync crash truncates page cache",
			fault: &storage.FaultFS{
				CrashOp: storage.OpSyncFile, CrashN: 3, PartialBytes: 4,
			},
			wantLast: 1,
		},
		{
			name: "data rename never applied",
			fault: &storage.FaultFS{
				CrashOp: storage.OpRename, CrashN: 3, PartialBytes: -1,
			},
			wantLast: 1,
		},
		{
			name: "dir fsync crash loses data rename",
			fault: &storage.FaultFS{
				CrashOp: storage.OpSyncDir, CrashN: 4, PartialBytes: -1,
				LoseUnsyncedRenames: true,
			},
			wantLast: 1,
		},
		{
			name: "dir fsync crash but data rename survived",
			fault: &storage.FaultFS{
				CrashOp: storage.OpSyncDir, CrashN: 4, PartialBytes: -1,
			},
			wantLast: 2, // data durable before its name: adopted, unacknowledged
		},
		{
			name:   "manifest write torn",
			legacy: true,
			fault: &storage.FaultFS{
				CrashOp: storage.OpWriteFile, CrashN: 6, PartialBytes: 7,
			},
			wantLast: 2,
		},
		{
			name:   "manifest fsync crash truncates manifest temp",
			legacy: true,
			fault: &storage.FaultFS{
				CrashOp: storage.OpSyncFile, CrashN: 6, PartialBytes: 0,
			},
			wantLast: 2,
		},
		{
			name:   "manifest rename never applied",
			legacy: true,
			fault: &storage.FaultFS{
				CrashOp: storage.OpRename, CrashN: 6, PartialBytes: -1,
			},
			wantLast: 2,
		},
		{
			name:   "dir fsync crash loses manifest rename",
			legacy: true,
			fault: &storage.FaultFS{
				CrashOp: storage.OpSyncDir, CrashN: 6, PartialBytes: -1,
				LoseUnsyncedRenames: true,
			},
			wantLast: 2,
		},
		{
			name:   "dir fsync crash but manifest rename survived",
			legacy: true,
			fault: &storage.FaultFS{
				CrashOp: storage.OpSyncDir, CrashN: 6, PartialBytes: -1,
			},
			wantLast: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			encoded, images := buildEncodedChain(t)
			dir := t.TempDir()
			tc.fault.Inner = storage.OSFS{}
			fs, err := storage.NewFSStoreFS(dir, storage.Target{Name: "crash"}, tc.fault)
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			var putErr error
			for seq, data := range encoded {
				if tc.legacy {
					putErr = storage.LegacyCommit(tc.fault, dir, crashProc, encoded, seq)
				} else {
					putErr = fs.Put(ctx, crashProc, seq, data)
				}
				if putErr != nil {
					break
				}
				acked++
			}
			if putErr == nil {
				t.Fatal("no crash fired: the injection point was never reached")
			}
			if !errors.Is(putErr, storage.ErrCrashed) {
				t.Fatalf("Put failed with %v, want simulated crash", putErr)
			}
			if acked != 2 {
				t.Fatalf("acknowledged %d checkpoints before the crash, want 2", acked)
			}
			recoverAfterCrash(t, dir, images, tc.wantLast)
		})
	}
}

// TestPutCrashOnVeryFirstCheckpoint covers the empty-store window: a crash
// before any checkpoint commits must leave a store that scrubs clean and
// reports nothing restorable (rather than a torn half-chain).
func TestPutCrashOnVeryFirstCheckpoint(t *testing.T) {
	encoded, images := buildEncodedChain(t)
	dir := t.TempDir()
	fault := &storage.FaultFS{CrashOp: storage.OpWriteFile, CrashN: 1, PartialBytes: 3}
	fs, err := storage.NewFSStoreFS(dir, storage.Target{}, fault)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(ctx, crashProc, 0, encoded[0]); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("err = %v, want crash", err)
	}
	recoverAfterCrash(t, dir, images, -1)
}

// putAll writes every frame of the chain through fs.
func putAll(t *testing.T, fs *storage.FSStore, encoded [][]byte) {
	t.Helper()
	for seq, data := range encoded {
		if err := fs.Put(ctx, crashProc, seq, data); err != nil {
			t.Fatal(err)
		}
	}
}

// chainSeqs lists the seqs fs reports for crashProc.
func chainSeqs(t *testing.T, fs *storage.FSStore) string {
	t.Helper()
	chain, missing, err := fs.Get(ctx, crashProc)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	for _, el := range chain {
		seqs = append(seqs, el.Seq)
	}
	return fmt.Sprint(seqs, missing)
}

// TestTruncateCrashLosesUnlinks: a crash on Truncate's directory fsync that
// loses the unlinks brings the dropped prefix back — the chain restores
// exactly as before the Truncate, which never acknowledged.
func TestTruncateCrashLosesUnlinks(t *testing.T) {
	encoded, images := buildEncodedChain(t)
	dir := t.TempDir()
	fault := &storage.FaultFS{Inner: storage.OSFS{}, LoseUnsyncedRenames: true}
	fs, err := storage.NewFSStoreFS(dir, storage.Target{}, fault)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, fs, encoded)
	fault.Arm(storage.OpSyncDir, 1, -1)
	if err := fs.Truncate(ctx, crashProc, 2); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("Truncate = %v, want simulated crash", err)
	}
	recoverAfterCrash(t, dir, images, len(encoded)-1)
	reopened, err := storage.NewFSStore(dir, storage.Target{})
	if err != nil {
		t.Fatal(err)
	}
	if got := chainSeqs(t, reopened); got != "[0 1 2 3] []" {
		t.Fatalf("chain after lost unlinks = %s, want the untruncated chain", got)
	}
}

// TestReplaceAnchorCrashWindows crashes the compactor's flip on each of its
// two directory fsyncs, losing every unpinned rename and unlink: before the
// new anchor is pinned the old chain survives, after it the new anchor
// does (with the prefix below it back), and both restore the same image.
func TestReplaceAnchorCrashWindows(t *testing.T) {
	for _, tc := range []struct {
		name     string
		syncDirN int // SyncDir occurrence within the flip
		want     string
	}{
		{name: "anchor rename lost", syncDirN: 1, want: "[0 1 2 3] []"},
		{name: "prefix unlinks lost", syncDirN: 2, want: "[0 1 2 3] []"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			encoded, images := buildEncodedChain(t)
			dir := t.TempDir()
			fault := &storage.FaultFS{Inner: storage.OSFS{}, LoseUnsyncedRenames: true}
			fs, err := storage.NewFSStoreFS(dir, storage.Target{}, fault)
			if err != nil {
				t.Fatal(err)
			}
			putAll(t, fs, encoded)
			fault.Arm(storage.OpSyncDir, tc.syncDirN, -1)
			full := ckpt.FullFromImage(images[2], 2, nil).Encode()
			if err := fs.ReplaceAnchor(ctx, crashProc, 2, full, []int{0, 1}); !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("ReplaceAnchor = %v, want simulated crash", err)
			}
			recoverAfterCrash(t, dir, images, len(encoded)-1)
			reopened, err := storage.NewFSStore(dir, storage.Target{})
			if err != nil {
				t.Fatal(err)
			}
			if got := chainSeqs(t, reopened); got != tc.want {
				t.Fatalf("chain = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestCrashRebootViewMatchesFreshHandle keeps one handle across a crash and
// FaultFS.Reboot, as the chaos harness does: whatever a crashed Put or
// Truncate left in the directory, the surviving handle must report the same
// chain and the same scrub findings as a handle opened fresh.
func TestCrashRebootViewMatchesFreshHandle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		truncate bool
		lose     bool
		want     string
	}{
		{name: "put renames lost", lose: true, want: "[0 1] []"},
		{name: "put renames survive", want: "[0 1 2] []"},
		{name: "truncate unlinks lost", truncate: true, lose: true, want: "[0 1 2 3] []"},
		{name: "truncate unlinks survive", truncate: true, want: "[2 3] []"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			encoded, _ := buildEncodedChain(t)
			dir := t.TempDir()
			fault := &storage.FaultFS{Inner: storage.OSFS{}, LoseUnsyncedRenames: tc.lose}
			fs, err := storage.NewFSStoreFS(dir, storage.Target{}, fault)
			if err != nil {
				t.Fatal(err)
			}
			if tc.truncate {
				putAll(t, fs, encoded)
				fault.Arm(storage.OpSyncDir, 1, -1)
				err = fs.Truncate(ctx, crashProc, 2)
			} else {
				putAll(t, fs, encoded[:2])
				fault.Arm(storage.OpSyncDir, 1, -1)
				err = fs.Put(ctx, crashProc, 2, encoded[2])
			}
			if !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("mutation = %v, want simulated crash", err)
			}
			fault.Reboot()
			fresh, err := storage.NewFSStore(dir, storage.Target{})
			if err != nil {
				t.Fatal(err)
			}
			same, other := chainSeqs(t, fs), chainSeqs(t, fresh)
			if same != tc.want || other != tc.want {
				t.Fatalf("surviving handle sees %s, fresh handle %s; want %s", same, other, tc.want)
			}
			a, err := fs.Scrub(ctx, crashProc, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Scrub(ctx, crashProc, false)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("scrub on the surviving handle %q, on a fresh one %q", a, b)
			}
		})
	}
}

// TestScrubDetectsBitFlip covers silent mid-chain corruption: the CRC
// cross-check must classify the page-flipped file as corrupt, and the
// restore must fall back to the prefix before it.
func TestScrubDetectsBitFlip(t *testing.T) {
	encoded, images := buildEncodedChain(t)
	dir := t.TempDir()
	fs, err := storage.NewFSStore(dir, storage.Target{})
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, fs, encoded)
	target := filepath.Join(dir, crashProc, ckptName(2))
	if err := storage.FlipBit(target, len(encoded[2])/2, 3); err != nil {
		t.Fatal(err)
	}
	rep := recoverAfterCrash(t, dir, images, 1) // seq 3 is cut off by the gap at 2
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != 2 {
		t.Fatalf("corrupt = %v, want [2]", rep.Corrupt)
	}
}

// TestScrubBitFlipInAnchor: corrupting the only full checkpoint leaves
// nothing restorable — RestoreLatestGood must say so rather than replaying
// deltas against a void.
func TestScrubBitFlipInAnchor(t *testing.T) {
	encoded, _ := buildEncodedChain(t)
	dir := t.TempDir()
	fs, err := storage.NewFSStore(dir, storage.Target{})
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, fs, encoded)
	if err := storage.FlipBit(filepath.Join(dir, crashProc, ckptName(0)), 40, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Scrub(ctx, crashProc, true); err != nil {
		t.Fatal(err)
	}
	chain, _, err := fs.Get(ctx, crashProc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := recovery.RestoreLatestGood(chain); err == nil {
		t.Fatal("restore succeeded without any intact full checkpoint")
	}
}

// TestScrubRebuildsTruncatedManifest: the directory listing is the chain,
// so a torn manifest.json — left by a store of the older layout — cannot
// doom the intact data files: every one of them restores, and scrub clears
// the manifest as a stray.
func TestScrubRebuildsTruncatedManifest(t *testing.T) {
	encoded, images := buildEncodedChain(t)
	dir := t.TempDir()
	fs, err := storage.NewFSStore(dir, storage.Target{})
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, fs, encoded)
	manifest := filepath.Join(dir, crashProc, "manifest.json")
	if err := os.WriteFile(manifest, []byte(`{"proc":"p0","seq`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := recoverAfterCrash(t, dir, images, len(encoded)-1)
	if fmt.Sprint(rep.StrayRemoved) != "[manifest.json]" || len(rep.Orphaned) != 0 {
		t.Fatalf("report = %v, want only the torn manifest removed", rep)
	}
}

// TestScrubTruncatedDataFile: a data file truncated after the fact (e.g.
// filesystem damage) is caught by the frame decode and pruned.
func TestScrubTruncatedDataFile(t *testing.T) {
	encoded, images := buildEncodedChain(t)
	dir := t.TempDir()
	fs, err := storage.NewFSStore(dir, storage.Target{})
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, fs, encoded)
	last := len(encoded) - 1
	name := filepath.Join(dir, crashProc, ckptName(last))
	if err := os.WriteFile(name, encoded[last][:len(encoded[last])/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep := recoverAfterCrash(t, dir, images, last-1)
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != last {
		t.Fatalf("corrupt = %v, want [%d]", rep.Corrupt, last)
	}
}

// TestPutUnwindsOrphanOnManifestFailure is the Put-leak regression test:
// a *transient* failure of the commit record — the directory fsync that
// makes the data file's name durable — must remove the just-renamed data
// file so Bytes/Truncate accounting stays consistent, and the store must
// keep working afterwards.
func TestPutUnwindsOrphanOnManifestFailure(t *testing.T) {
	encoded, _ := buildEncodedChain(t)
	dir := t.TempDir()
	fault := &storage.FaultFS{
		CrashOp: storage.OpSyncDir, CrashN: 3, // 2nd Put's commit fsync
		PartialBytes: -1, Transient: true,
	}
	fs, err := storage.NewFSStoreFS(dir, storage.Target{}, fault)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(ctx, crashProc, 0, encoded[0]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(ctx, crashProc, 1, encoded[1]); err == nil {
		t.Fatal("commit failure not surfaced")
	}
	if _, err := os.Stat(filepath.Join(dir, crashProc, ckptName(1))); !os.IsNotExist(err) {
		t.Fatal("orphaned data file leaked after commit failure")
	}
	n, err := fs.Bytes(crashProc)
	if err != nil || n != int64(len(encoded[0])) {
		t.Fatalf("Bytes = %d, %v; want %d", n, err, len(encoded[0]))
	}
	// The same Put retried must succeed (the FS recovered).
	if err := fs.Put(ctx, crashProc, 1, encoded[1]); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	chain, missing, err := fs.Get(ctx, crashProc)
	if err != nil || len(missing) != 0 || len(chain) != 2 {
		t.Fatalf("chain = %v, missing = %v, %v", chain, missing, err)
	}
}
