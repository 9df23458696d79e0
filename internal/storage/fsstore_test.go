package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func newFS(t *testing.T) *FSStore {
	t.Helper()
	fs, err := NewFSStore(t.TempDir(), Target{Name: "disk", BandwidthBps: 10})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFSStoreValidation(t *testing.T) {
	if _, err := NewFSStore("", Target{}); err == nil {
		t.Fatal("empty root accepted")
	}
}

func TestFSStorePutChainRoundTrip(t *testing.T) {
	ctx := context.Background()
	fs := newFS(t)
	if err := fs.Put(ctx, "job-1", 0, []byte("full")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(ctx, "job-1", 1, []byte("delta-one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(ctx, "job-1", 1, []byte("dup")); err == nil {
		t.Fatal("non-monotonic seq accepted")
	}
	chain, missing, err := fs.Get(ctx, "job-1")
	if err != nil || len(missing) != 0 {
		t.Fatalf("Get: %v missing=%v", err, missing)
	}
	if len(chain) != 2 || !bytes.Equal(chain[0].Data, []byte("full")) ||
		!bytes.Equal(chain[1].Data, []byte("delta-one")) {
		t.Fatalf("chain: %+v", chain)
	}
	n, err := fs.Bytes("job-1")
	if err != nil || n != int64(len("full")+len("delta-one")) {
		t.Fatalf("bytes = %d, %v", n, err)
	}
}

func TestFSStoreSurvivesReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs1, err := NewFSStore(dir, Target{BandwidthBps: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs1.Put(ctx, "p", 0, []byte("aaa"))
	fs1.Put(ctx, "p", 1, []byte("bbb"))

	fs2, err := NewFSStore(dir, Target{BandwidthBps: 1})
	if err != nil {
		t.Fatal(err)
	}
	chain := mustChain(t, fs2, "p")
	if len(chain) != 2 || chain[1].Seq != 1 {
		t.Fatalf("reopened chain: %+v", chain)
	}
}

func TestFSStoreTruncate(t *testing.T) {
	ctx := context.Background()
	fs := newFS(t)
	for seq := 0; seq < 5; seq++ {
		fs.Put(ctx, "p", seq, []byte{byte(seq)})
	}
	if err := fs.Truncate(ctx, "p", 3); err != nil {
		t.Fatal(err)
	}
	chain := mustChain(t, fs, "p")
	if len(chain) != 2 || chain[0].Seq != 3 {
		t.Fatalf("chain: %+v", chain)
	}
	// The dropped files are gone from disk.
	entries, _ := os.ReadDir(filepath.Join(fs.root, "p"))
	files := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".aic" {
			files++
		}
	}
	if files != 2 {
		t.Fatalf("%d checkpoint files on disk", files)
	}
}

func TestFSStoreDelete(t *testing.T) {
	ctx := context.Background()
	fs := newFS(t)
	fs.Put(ctx, "p", 0, []byte{1})
	if err := fs.Delete(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if chain := mustChain(t, fs, "p"); len(chain) != 0 {
		t.Fatalf("chain after delete: %v", chain)
	}
}

func TestFSStoreMissingFileReported(t *testing.T) {
	ctx := context.Background()
	fs := newFS(t)
	fs.Put(ctx, "p", 0, []byte{1})
	if err := os.Remove(filepath.Join(fs.procDir("p"), ckptFile(0))); err != nil {
		t.Fatal(err)
	}
	chain, missing, err := fs.Get(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 0 || len(missing) != 1 || missing[0] != 0 {
		t.Fatalf("missing checkpoint file not reported: chain=%v missing=%v", chain, missing)
	}
}

// TestFSStoreCorruptManifestDetected: the directory listing is the chain,
// so a manifest file — here a corrupt one, as a store written before the
// listing became the chain could leave — carries no authority. Reads go
// on through it, and Scrub detects it as a stray that repair removes.
func TestFSStoreCorruptManifestDetected(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(ctx, "p", 0, fullFrame(0, []byte("one"))); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(fs.procDir("p"), legacyManifestName)
	if err := os.WriteFile(manifest, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFSStore(dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	chain, missing, err := reopened.Get(ctx, "p")
	if err != nil || len(missing) != 0 || len(chain) != 1 {
		t.Fatalf("Get beside a corrupt manifest: chain=%d missing=%v err=%v", len(chain), missing, err)
	}
	rep, err := reopened.Scrub(ctx, "p", true)
	if err != nil || rep.Clean() || fmt.Sprint(rep.StrayRemoved) != "["+legacyManifestName+"]" || !rep.Repaired {
		t.Fatalf("scrub = %v, %v; want the manifest removed as a stray", rep, err)
	}
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Fatalf("manifest survived repair (stat err=%v)", err)
	}
}

// TestProcNameRejected is the regression suite for the proc-name boundary:
// every form that could traverse, collide or corrupt a key is rejected
// with ErrBadProcName on every proc-addressed operation, and nothing
// touches the disk. Before validation existed, "../x" was lossily
// sanitized — so "a/b" and "a_b" silently collided on one directory.
func TestProcNameRejected(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		proc string
	}{
		{"empty", ""},
		{"dot", "."},
		{"dotdot", ".."},
		{"traversal", "../evil"},
		{"slash", "a/b"},
		{"backslash", `a\b`},
		{"nul", "a\x00b"},
		{"leading slash", "/abs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateProcName(tc.proc); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("ValidateProcName(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			fs := newFS(t)
			if err := fs.Put(ctx, tc.proc, 0, []byte{1}); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("Put(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			if _, _, err := fs.Get(ctx, tc.proc); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("Get(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			if _, _, err := fs.GetElem(ctx, tc.proc, 0); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("GetElem(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			if err := fs.Truncate(ctx, tc.proc, 0); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("Truncate(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			if err := fs.Delete(ctx, tc.proc); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("Delete(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			if _, err := fs.Scrub(ctx, tc.proc, true); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("Scrub(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			if _, err := fs.Bytes(tc.proc); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("Bytes(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			ls := NewMemStore(Target{})
			if err := ls.Put(ctx, tc.proc, 0, []byte{1}); !errors.Is(err, ErrBadProcName) {
				t.Fatalf("memory store Put(%q) = %v, want ErrBadProcName", tc.proc, err)
			}
			// The store root stayed empty: the rejected name never touched disk.
			entries, err := os.ReadDir(fs.root)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Fatalf("rejected Put left %d entries in the root", len(entries))
			}
			if _, err := os.Stat(filepath.Join(fs.root, "..", "evil")); !os.IsNotExist(err) {
				t.Fatal("path escaped the store root")
			}
		})
	}
}

// TestProcNamesRoundTripVerbatim pins the fix's flip side: valid names —
// including ones the old sanitizer would have rewritten into collisions —
// map to distinct directories and List round-trips them exactly.
func TestProcNamesRoundTripVerbatim(t *testing.T) {
	ctx := context.Background()
	fs := newFS(t)
	names := []string{"a_b", "a:b", "job-1", "träger"}
	for i, proc := range names {
		if err := fs.Put(ctx, proc, 0, []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%q): %v", proc, err)
		}
	}
	got, err := fs.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i, proc := range names {
		chain := mustChain(t, fs, proc)
		if len(chain) != 1 || !bytes.Equal(chain[0].Data, []byte{byte(i)}) {
			t.Fatalf("chain for %q: %+v", proc, chain)
		}
	}
}
