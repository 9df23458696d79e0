package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/numeric"
	"aic/internal/storage"
)

// seedStore builds a four-checkpoint chain (one full, three deltas) for
// proc "p0" in a fresh FSStore rooted at dir.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	fs, err := storage.NewFSStore(dir, storage.Target{})
	if err != nil {
		t.Fatal(err)
	}
	rng := numeric.NewRNG(7)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 24)
	buf := make([]byte, 512)
	for i := uint64(0); i < 12; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	ctx := context.Background()
	if err := fs.Put(ctx, "p0", 0, b.FullCheckpoint(as).Encode()); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		rng.Bytes(buf[:80])
		as.Write(uint64(step%12), 0, buf[:80], float64(step))
		c, _ := b.DeltaCheckpoint(as)
		if err := fs.Put(ctx, "p0", step, c.Encode()); err != nil {
			t.Fatal(err)
		}
	}
}

func ckptFile(dir string, seq int) string {
	return filepath.Join(dir, "p0", fmt.Sprintf("ckpt-%08d.aic", seq))
}

func TestRunCleanStoreExitsZero(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir, "-restore-check"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "restore-check: ok") {
		t.Fatalf("missing restore-check line:\n%s", out.String())
	}
}

func TestRunCorruptionExitsOne(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	if err := storage.FlipBit(ckptFile(dir, 2), 40, 3); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

func TestRunRepairReturnsToZero(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	if err := storage.FlipBit(ckptFile(dir, 2), 40, 3); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir, "-repair"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestRunRepairsLegacyLayout: a store in the older layout — a manifest.json
// per proc that omits the newest element, a stray temp file and a chunk
// refcount index — restores whole, reports the leftovers until -repair
// clears them, and then checks clean.
func TestRunRepairsLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	legacy := map[string]string{
		filepath.Join(dir, "p0", "manifest.json"):         `{"proc":"p0","seqs":[0,1,2]}`,
		filepath.Join(dir, "p0", "ckpt-00000004.aic.tmp"): "torn",
		filepath.Join(dir, "chunks!", "index.json"):       `{"chunks":{}}`,
	}
	for path, body := range legacy {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir, "-restore-check"}, &out, &errb); code != 1 ||
		!strings.Contains(out.String(), "restore-check: ok anchor=0 last=3") {
		t.Fatalf("exit = %d, want 1 with the whole chain restorable\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, args := range [][]string{{"-dir", dir, "-repair"}, {"-dir", dir}} {
		out.Reset()
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
		}
	}
	if got := strings.TrimSpace(out.String()); got != "p0: clean" {
		t.Fatalf("after repair: %q, want p0: clean", got)
	}
}

func TestRunUnrestorableExitsTwo(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	// Corrupting the anchor leaves deltas with nothing to replay against:
	// scrub alone reports status 1, but -restore-check proves the chain has
	// no restorable prefix and escalates to 2.
	if err := storage.FlipBit(ckptFile(dir, 0), 40, 0); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir, "-restore-check"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

func TestRunOperationalErrorsExitThree(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 3 {
		t.Fatalf("no flags: exit = %d, want 3", code)
	}
	if code := run([]string{"-dir", filepath.Join(t.TempDir(), "missing")}, &out, &errb); code != 3 {
		t.Fatalf("missing dir: exit = %d, want 3", code)
	}
	if code := run([]string{"-dir", "x", "-peer", "y"}, &out, &errb); code != 3 {
		t.Fatalf("dir+peer: exit = %d, want 3", code)
	}
	if code := run([]string{"-bogus-flag"}, &out, &errb); code != 3 {
		t.Fatalf("bad flag: exit = %d, want 3", code)
	}
}

func TestRunEmptyStoreExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", t.TempDir()}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "empty store") {
		t.Fatalf("missing empty-store notice:\n%s", out.String())
	}
}
