package storage

// Stores written before the directory listing became the chain keep a
// manifest.json in every proc directory and a chunks!/index.json refcount
// file. legacyCommit reproduces that commit protocol so its crash windows
// can be reopened by the current store, and the test below opens such a
// store whole.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// legacyCommit replays the older commit protocol for one batch: stage each
// element and pin them with one directory fsync, then rewrite the proc's
// manifest.json — listing seqs 0 through the batch's last — with the same
// stage-and-pin discipline. A batch of one is that protocol's solo Put.
func legacyCommit(fsys FS, root, proc string, frames [][]byte, batch ...int) error {
	dir := filepath.Join(root, ProcDirName(proc))
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, seq := range batch {
		if err := stageWrite(fsys, filepath.Join(dir, ckptFile(seq)), frames[seq], 0o644); err != nil {
			return err
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	listed := make([]int, batch[len(batch)-1]+1)
	for i := range listed {
		listed[i] = i
	}
	manifest, err := json.Marshal(map[string]any{"proc": proc, "seqs": listed})
	if err != nil {
		return err
	}
	if err := stageWrite(fsys, filepath.Join(dir, legacyManifestName), manifest, 0o644); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// LegacyCommit exposes legacyCommit to the external crash-window tests.
var LegacyCommit = legacyCommit

// TestScrubOpensLegacyLayout builds a dedup store in the older layout — a
// manifest per proc that does not list the newest, durably written
// element, a stray temp file, and a refcount index — and checks that it
// opens and restores byte-identically (the unlisted element adopted), that
// Scrub -repair clears the manifest and the temp file as strays, and that
// GCChunks removes the index while every chunk stays live.
func TestScrubOpensLegacyLayout(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	frames := gcFrames(t)
	procs := []string{"a", "b"}
	writer, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	var logical int64
	for _, proc := range procs {
		for seq, f := range frames {
			if err := writer.Put(ctx, proc, seq, f); err != nil {
				t.Fatal(err)
			}
			logical += int64(len(f))
		}
		pdir := writer.procDir(proc)
		legacy := map[string]string{
			legacyManifestName:             `{"proc":"` + proc + `","seqs":[0,1,2]}`,
			ckptFile(len(frames)) + ".tmp": "torn",
		}
		for name, body := range legacy {
			if err := os.WriteFile(filepath.Join(pdir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	index := filepath.Join(dir, chunkDirName, legacyIndexName)
	if err := os.WriteFile(index, []byte(`{"logical":0,"physical":0,"chunks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	fs, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	if st, err := fs.DedupStats(ctx); err != nil || st.LogicalBytes != logical {
		t.Fatalf("rebuilt refcounts: %+v, %v; want %d logical bytes", st, err, logical)
	}
	for _, proc := range procs {
		chain, missing, err := fs.Get(ctx, proc)
		if err != nil || len(missing) != 0 || len(chain) != len(frames) {
			t.Fatalf("%s: chain=%d missing=%v err=%v", proc, len(chain), missing, err)
		}
		for _, el := range chain {
			if !bytes.Equal(el.Data, frames[el.Seq]) {
				t.Fatalf("%s seq %d not byte-identical", proc, el.Seq)
			}
		}
		rep, err := fs.Scrub(ctx, proc, true)
		want := fmt.Sprint([]string{ckptFile(len(frames)) + ".tmp", legacyManifestName})
		if err != nil || !rep.Repaired || fmt.Sprint(rep.StrayRemoved) != want ||
			len(rep.Corrupt)+len(rep.Missing)+len(rep.Orphaned) != 0 {
			t.Fatalf("%s: scrub = %v, %v; want strays %s removed", proc, rep, err, want)
		}
		if rep, err := fs.Scrub(ctx, proc, false); err != nil || !rep.Clean() {
			t.Fatalf("%s: second scrub = %v, %v", proc, rep, err)
		}
	}
	if n, _, err := fs.GCChunks(ctx); err != nil || n != 0 {
		t.Fatalf("GC removed %d chunks (err=%v); every chunk is live", n, err)
	}
	if _, err := os.Stat(index); !os.IsNotExist(err) {
		t.Fatalf("GC left the old index file (stat err=%v)", err)
	}
	for _, proc := range procs {
		if chain, _, err := fs.Get(ctx, proc); err != nil || len(chain) != len(frames) {
			t.Fatalf("%s after GC: %d elements, %v", proc, len(chain), err)
		}
	}
}
