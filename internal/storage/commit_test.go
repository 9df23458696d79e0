package storage

// Commit-path tests: a sequential Put's exact op sequence, the view hiding
// a seq until its directory fsync returns, concurrent writers whose every
// ack implies a durable name, and chains committing independently.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/numeric"
)

const gcProc = "p0"

// gcFrames builds four valid encoded checkpoints (Scrub CRC-checks files, so
// tests that scrub need real frames, not noise).
func gcFrames(t *testing.T) [][]byte {
	t.Helper()
	rng := numeric.NewRNG(11)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 24)
	buf := make([]byte, 512)
	for i := uint64(0); i < 8; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	frames := [][]byte{b.FullCheckpoint(as).Encode()}
	for step := 1; step <= 3; step++ {
		rng.Bytes(buf[:64])
		as.Write(uint64(step%8), 32*step, buf[:64], float64(step))
		c, _ := b.DeltaCheckpoint(as)
		frames = append(frames, c.Encode())
	}
	return frames
}

// TestSoloPutOpSequenceUnchanged pins a sequential caller's Put to the
// four-op commit protocol — write temp, fsync it, rename, fsync the
// directory — that every crash-window test in crash_test.go counts
// occurrences against: two flushes, and nothing else written. A chain's
// first Put adds one fsync of the store root, pinning the directory it
// created.
func TestSoloPutOpSequenceUnchanged(t *testing.T) {
	frames := gcFrames(t)
	rec := &recFS{FS: OSFS{}}
	root := t.TempDir()
	fs, err := NewFSStoreFS(root, Target{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	for seq, want := range []string{
		"[writefile ckpt-00000000.aic.tmp syncfile ckpt-00000000.aic.tmp rename ckpt-00000000.aic syncdir p0 syncdir " + filepath.Base(root) + "]",
		"[writefile ckpt-00000001.aic.tmp syncfile ckpt-00000001.aic.tmp rename ckpt-00000001.aic syncdir p0]",
	} {
		if err := fs.Put(context.Background(), gcProc, seq, frames[seq]); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rec.calls()); got != want {
			t.Fatalf("Put %d did %s, want %s", seq, got, want)
		}
	}
}

// recFS records every mutating FS call in order. probe, when set, is
// sampled as each call is recorded.
type recFS struct {
	FS
	probe func() int64
	mu    sync.Mutex
	ops   []recOp
}

// recOp is one recorded call: its kind, the base name it touched, and the
// probe's value at the time.
type recOp struct {
	op, name string
	probe    int64
}

func (r *recFS) log(op, name string) {
	var v int64
	if r.probe != nil {
		v = r.probe()
	}
	r.mu.Lock()
	r.ops = append(r.ops, recOp{op: op, name: filepath.Base(name), probe: v})
	r.mu.Unlock()
}

// recorded returns the calls so far and forgets them.
func (r *recFS) recorded() []recOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.ops
	r.ops = nil
	return ops
}

// calls returns the calls so far as "<op> <base name>" and forgets them.
func (r *recFS) calls() []string {
	var out []string
	for _, o := range r.recorded() {
		out = append(out, o.op+" "+o.name)
	}
	return out
}

func (r *recFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	r.log("writefile", name)
	return r.FS.WriteFile(name, data, perm)
}

func (r *recFS) SyncFile(name string) error {
	r.log("syncfile", name)
	return r.FS.SyncFile(name)
}

func (r *recFS) Rename(oldpath, newpath string) error {
	r.log("rename", newpath)
	return r.FS.Rename(oldpath, newpath)
}

func (r *recFS) Remove(name string) error {
	r.log("remove", name)
	return r.FS.Remove(name)
}

func (r *recFS) RemoveAll(path string) error {
	r.log("removeall", path)
	return r.FS.RemoveAll(path)
}

func (r *recFS) SyncDir(name string) error {
	r.log("syncdir", name)
	return r.FS.SyncDir(name)
}

// TestCrashSafeViewHidesSeqUntilDirFsync parks a Put inside the
// directory fsync that makes its seq durable and reads through the same
// handle meanwhile: the file is already renamed into place, yet Get,
// GetSeqs and GetElem must not list the seq until the fsync returns.
func TestCrashSafeViewHidesSeqUntilDirFsync(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	gate := &gateFS{FS: OSFS{}, entered: make(chan struct{}, 1), release: make(chan struct{})}
	fs, err := NewFSStoreFS(dir, Target{}, gate)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("not yet durable")
	done := make(chan error, 1)
	go func() { done <- fs.Put(ctx, gcProc, 0, payload) }()
	<-gate.entered
	if _, err := os.Stat(filepath.Join(dir, gcProc, ckptFile(0))); err != nil {
		t.Fatalf("staged file not renamed into place: %v", err)
	}
	if chain, missing, err := fs.Get(ctx, gcProc); err != nil || len(chain)+len(missing) != 0 {
		t.Fatalf("Get during the commit fsync: chain=%v missing=%v err=%v", chain, missing, err)
	}
	if listed, chain, _, err := fs.GetSeqs(ctx, gcProc, []int{0}); err != nil || len(listed)+len(chain) != 0 {
		t.Fatalf("GetSeqs during the commit fsync: listed=%v err=%v", listed, err)
	}
	if _, ok, err := fs.GetElem(ctx, gcProc, 0); err != nil || ok {
		t.Fatalf("GetElem during the commit fsync: ok=%v err=%v", ok, err)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if data, ok, err := fs.GetElem(ctx, gcProc, 0); err != nil || !ok || !bytes.Equal(data, payload) {
		t.Fatalf("GetElem after the ack: ok=%v err=%v", ok, err)
	}
}

// gateFS blocks the first SyncDir it sees until released, so a test can
// hold a commit at a deterministic point: its element renamed into place,
// its name not yet pinned, its chain's token held.
type gateFS struct {
	FS
	mu      sync.Mutex
	gated   bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) SyncDir(name string) error {
	g.mu.Lock()
	first := !g.gated
	g.gated = true
	g.mu.Unlock()
	if first {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.FS.SyncDir(name)
}

// TestConcurrentPutsAckAfterDurability holds one Put inside its directory
// fsync while seven more writers to the same chain wait for the token, then
// releases it and checks that every Put's data is readable through a store
// handle opened after Put returns, i.e. no ack precedes a durable name. The
// waiters commit in token order, so a lower seq that loses the race to a
// higher one is refused as ErrStaleSeq — never acked — and the chain lists
// exactly the acked seqs. (The reader is opened per check because a handle
// lists a chain once: one open handle per directory is the supported mode.)
func TestConcurrentPutsAckAfterDurability(t *testing.T) {
	dir := t.TempDir()
	gate := &gateFS{FS: OSFS{}, entered: make(chan struct{}, 1), release: make(chan struct{})}
	fs, err := NewFSStoreFS(dir, Target{}, gate)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writers = 8
	payload := func(seq int) []byte {
		return bytes.Repeat([]byte{byte('a' + seq)}, 128)
	}

	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := func(seq int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[seq] = fs.Put(ctx, gcProc, seq, payload(seq)); errs[seq] != nil {
				return
			}
			// Ack implies durability: a handle opened now must list the
			// seq and read its bytes.
			reader, err := NewFSStore(dir, Target{})
			if err != nil {
				errs[seq] = err
				return
			}
			data, ok, err := reader.GetElem(ctx, gcProc, seq)
			if err != nil || !ok || !bytes.Equal(data, payload(seq)) {
				errs[seq] = fmt.Errorf("seq %d acked but not readable: ok=%v err=%v", seq, ok, err)
			}
		}()
	}

	start(0)
	<-gate.entered // seq 0 holds the token, parked inside its data-dir fsync
	for seq := 1; seq < writers; seq++ {
		start(seq)
	}
	close(gate.release)
	wg.Wait()
	var acked []int
	for seq, err := range errs {
		switch {
		case err == nil:
			acked = append(acked, seq)
		case !errors.Is(err, ErrStaleSeq):
			t.Fatalf("writer %d: %v", seq, err)
		}
	}
	// seq 0 committed first and seq 7 can never be stale: both are acked.
	if len(acked) < 2 || acked[0] != 0 || acked[len(acked)-1] != writers-1 {
		t.Fatalf("acked seqs %v, want 0 and %d among them", acked, writers-1)
	}

	chain, missing, err := fs.Get(ctx, gcProc)
	if err != nil || len(missing) != 0 || len(chain) != len(acked) {
		t.Fatalf("chain = %d elems, missing = %v, %v; acked %v", len(chain), missing, err, acked)
	}
	for i, el := range chain {
		if el.Seq != acked[i] || !bytes.Equal(el.Data, payload(el.Seq)) {
			t.Fatalf("chain[%d] = seq %d, acked %v", i, el.Seq, acked)
		}
	}
}

// TestGroupCommitProcsCommitIndependently: chains share nothing on disk, so
// a commit parked on one process's directory fsync must not delay a Put to a
// different process — the commit token is per-chain, not store-wide.
func TestGroupCommitProcsCommitIndependently(t *testing.T) {
	gate := &gateFS{FS: OSFS{}, entered: make(chan struct{}, 1), release: make(chan struct{})}
	fs, err := NewFSStoreFS(t.TempDir(), Target{}, gate)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	parkedDone := make(chan error, 1)
	go func() { parkedDone <- fs.Put(ctx, "pA", 0, []byte("held")) }()
	<-gate.entered // pA's Put is parked inside its data-dir fsync

	otherDone := make(chan error, 1)
	go func() { otherDone <- fs.Put(ctx, "pB", 0, []byte("free")) }()
	select {
	case err := <-otherDone:
		if err != nil {
			t.Fatalf("pB put: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("put to an independent proc blocked behind another chain's commit")
	}

	close(gate.release)
	if err := <-parkedDone; err != nil {
		t.Fatalf("pA put: %v", err)
	}
}
