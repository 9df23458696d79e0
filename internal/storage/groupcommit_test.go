package storage

// Group-commit tests: deterministic crash windows inside a coalesced batch
// commit (driven through the same queue Put uses, with a hand-built batch so
// occurrence counting stays exact), plus a concurrency test proving the two
// properties the batching must not trade away — no Put acknowledges before
// its manifest is durable, and queued writers really do share fsyncs.

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
// batch tests need real frames, not noise).
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

// commitPair pushes two requests through their process's queue and runs one
// leader drain, exactly as a coalesced two-writer commit would.
func commitPair(fs *FSStore, a, b *putReq) {
	st := fs.state(a.proc)
	st.mu.Lock()
	st.queue = append(st.queue, a, b)
	st.mu.Unlock()
	st.tok <- struct{}{}
	fs.drainAndCommit(st, a.proc)
	<-st.tok
}

func gcReq(seq int, data []byte) *putReq {
	return &putReq{proc: gcProc, seq: seq, data: data, done: make(chan error, 1)}
}

// recoverSeqs reopens the store over the real filesystem, repairs it, and
// returns the surviving chain seqs.
func recoverSeqs(t *testing.T, dir string, frames [][]byte) []int {
	t.Helper()
	ctx := context.Background()
	reopened, err := NewFSStore(dir, Target{Name: "reboot"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Scrub(ctx, gcProc, true); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	again, err := reopened.Scrub(ctx, gcProc, false)
	if err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	if !again.Clean() {
		t.Fatalf("store still inconsistent after repair: %v", again)
	}
	chain, missing, err := reopened.Get(ctx, gcProc)
	if err != nil || len(missing) != 0 {
		t.Fatalf("chain after repair: missing=%v err=%v", missing, err)
	}
	var seqs []int
	for _, el := range chain {
		if !bytes.Equal(el.Data, frames[el.Seq]) {
			t.Fatalf("seq %d data differs from what was written", el.Seq)
		}
		seqs = append(seqs, el.Seq)
	}
	return seqs
}

// TestGroupCommitCrashWindows injects a crash into every FS operation of a
// coalesced two-request commit (seqs 2 and 3 batched after 0 and 1 were
// acknowledged solo) and checks that recovery lands on a prefix made only
// of durable elements: neither request is acknowledged, and whatever names
// outlived the crash — each staged element's bytes were fsynced before its
// rename — are adopted. The legacy cases commit through the older manifest
// protocol and reopen its wreckage with the current store: the batch's
// names were pinned before the manifest write began, so the whole batch is
// adopted.
func TestGroupCommitCrashWindows(t *testing.T) {
	// The two solo Puts perform 2 of each WriteFile/SyncFile/Rename and 3
	// SyncDirs (the first Put also pins the new chain directory in the
	// root). The batch then performs WriteFile 3 (seq 2 temp) and 4 (seq 3
	// temp), the same numbering for SyncFile and Rename, and SyncDir 4.
	// The legacy protocol doubles the solo counts (data, then manifest):
	// its batch is WriteFile 5, 6 (data) and 7 (manifest), SyncDir 5
	// (data) and 6 (manifest).
	cases := []struct {
		name   string
		legacy bool
		op     Op
		n      int
		part   int
		lose   bool
		want   []int
	}{
		{name: "first staged write torn", op: OpWriteFile, n: 3, part: 10, want: []int{0, 1}},
		{name: "second staged write lost", op: OpWriteFile, n: 4, part: -1, want: []int{0, 1, 2}},
		{name: "second staged fsync truncates", op: OpSyncFile, n: 4, part: 4, want: []int{0, 1, 2}},
		{name: "batch dir fsync loses staged renames", op: OpSyncDir, n: 4, part: -1, lose: true, want: []int{0, 1}},
		{name: "batch dir fsync crash renames survive", op: OpSyncDir, n: 4, part: -1, want: []int{0, 1, 2, 3}},
		{name: "manifest write torn", legacy: true, op: OpWriteFile, n: 7, part: 7, want: []int{0, 1, 2, 3}},
		{name: "manifest rename never applied", legacy: true, op: OpRename, n: 7, part: -1, want: []int{0, 1, 2, 3}},
		{name: "manifest dir fsync loses manifest rename", legacy: true, op: OpSyncDir, n: 6, part: -1, lose: true, want: []int{0, 1, 2, 3}},
		{name: "manifest dir fsync crash rename survived", legacy: true, op: OpSyncDir, n: 6, part: -1, want: []int{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := gcFrames(t)
			dir := t.TempDir()
			fault := &FaultFS{
				Inner: OSFS{}, CrashOp: tc.op, CrashN: tc.n,
				PartialBytes: tc.part, LoseUnsyncedRenames: tc.lose,
			}
			fs, err := NewFSStoreFS(dir, Target{Name: "crash"}, fault)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if tc.legacy {
				for seq := 0; seq < 2; seq++ {
					if err := legacyCommit(fault, dir, gcProc, frames, seq); err != nil {
						t.Fatalf("setup commit %d: %v", seq, err)
					}
				}
				if err := legacyCommit(fault, dir, gcProc, frames, 2, 3); !errors.Is(err, ErrCrashed) {
					t.Fatalf("batch commit = %v, want simulated crash", err)
				}
			} else {
				for seq := 0; seq < 2; seq++ {
					if err := fs.Put(ctx, gcProc, seq, frames[seq]); err != nil {
						t.Fatalf("setup put %d: %v", seq, err)
					}
				}
				a, b := gcReq(2, frames[2]), gcReq(3, frames[3])
				commitPair(fs, a, b)
				for _, req := range []*putReq{a, b} {
					if err := <-req.done; !errors.Is(err, ErrCrashed) {
						t.Fatalf("seq %d acked with %v during a crashed batch", req.seq, err)
					}
				}
			}
			if got := recoverSeqs(t, dir, frames); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("recovered seqs %v, want %v", got, tc.want)
			}
		})
	}
}

// TestGroupCommitTransientManifestFailureUnwindsBatch: when the commit
// record of a coalesced batch — its directory fsync — fails without a
// crash, every staged data file of the batch must be unwound, the chain
// must read exactly as before, and the store must keep working.
func TestGroupCommitTransientManifestFailureUnwindsBatch(t *testing.T) {
	frames := gcFrames(t)
	dir := t.TempDir()
	fault := &FaultFS{
		Inner: OSFS{}, CrashOp: OpSyncDir, CrashN: 4, // the batch's commit fsync
		PartialBytes: -1, Transient: true,
	}
	fs, err := NewFSStoreFS(dir, Target{}, fault)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for seq := 0; seq < 2; seq++ {
		if err := fs.Put(ctx, gcProc, seq, frames[seq]); err != nil {
			t.Fatal(err)
		}
	}
	a, b := gcReq(2, frames[2]), gcReq(3, frames[3])
	commitPair(fs, a, b)
	for _, req := range []*putReq{a, b} {
		if err := <-req.done; err == nil {
			t.Fatalf("seq %d acked despite commit failure", req.seq)
		}
	}
	for seq := 2; seq <= 3; seq++ {
		if _, err := os.Stat(filepath.Join(dir, gcProc, ckptFile(seq))); !os.IsNotExist(err) {
			t.Fatalf("staged file for seq %d leaked after batch unwind", seq)
		}
	}
	if listed, _, _, err := fs.GetSeqs(ctx, gcProc, nil); err != nil || fmt.Sprint(listed) != "[0 1]" {
		t.Fatalf("chain after the failed batch lists %v (%v), want [0 1]", listed, err)
	}
	n, err := fs.Bytes(gcProc)
	if err != nil || n != int64(len(frames[0])+len(frames[1])) {
		t.Fatalf("Bytes = %d, %v; want %d", n, err, len(frames[0])+len(frames[1]))
	}
	// The same appends retried must succeed (the FS recovered).
	for seq := 2; seq <= 3; seq++ {
		if err := fs.Put(ctx, gcProc, seq, frames[seq]); err != nil {
			t.Fatalf("retry put %d: %v", seq, err)
		}
	}
	chain, missing, err := fs.Get(ctx, gcProc)
	if err != nil || len(missing) != 0 || len(chain) != 4 {
		t.Fatalf("chain = %d elems, missing = %v, %v", len(chain), missing, err)
	}
}

// TestGroupCommitStaleWithinBatch: a duplicate sequence inside one batch
// fails alone with ErrStaleSeq; its batchmates commit normally.
func TestGroupCommitStaleWithinBatch(t *testing.T) {
	frames := gcFrames(t)
	fs, err := NewFSStore(t.TempDir(), Target{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for seq := 0; seq < 2; seq++ {
		if err := fs.Put(ctx, gcProc, seq, frames[seq]); err != nil {
			t.Fatal(err)
		}
	}
	first, dup, next := gcReq(2, frames[2]), gcReq(2, frames[2]), gcReq(3, frames[3])
	st := fs.state(gcProc)
	st.mu.Lock()
	st.queue = append(st.queue, first, dup, next)
	st.mu.Unlock()
	st.tok <- struct{}{}
	fs.drainAndCommit(st, gcProc)
	<-st.tok
	if err := <-first.done; err != nil {
		t.Fatalf("first seq-2 request: %v", err)
	}
	if err := <-dup.done; !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("duplicate seq-2 request: %v, want ErrStaleSeq", err)
	}
	if err := <-next.done; err != nil {
		t.Fatalf("seq-3 request: %v", err)
	}
	chain, missing, err := fs.Get(ctx, gcProc)
	if err != nil || len(missing) != 0 || len(chain) != 4 {
		t.Fatalf("chain = %d elems, missing = %v, %v", len(chain), missing, err)
	}
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

// TestCrashSafeViewHidesSeqUntilDirFsync parks a commit leader inside the
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

// gateFS blocks the first SyncDir it sees until released, so the test can
// deterministically pile writers up behind a committing leader. It also
// counts SyncDirs — the coalescing proof.
type gateFS struct {
	FS
	mu       sync.Mutex
	syncDirs int
	gated    bool
	entered  chan struct{}
	release  chan struct{}
}

func (g *gateFS) SyncDir(name string) error {
	g.mu.Lock()
	g.syncDirs++
	first := !g.gated
	g.gated = true
	g.mu.Unlock()
	if first {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.FS.SyncDir(name)
}

// TestGroupCommitCoalescesAndAcksAfterDurability holds a leader inside its
// directory fsync while seven more writers enqueue, then releases it and
// checks (a) the stragglers commit as ONE batch — two directory fsyncs for
// eight appends, not eight — and (b) every Put's data is readable through a
// store handle opened after Put returns, i.e. no ack precedes a durable
// name. (The reader is opened per check because a handle lists a chain
// once: one open handle per directory is the supported mode.)
func TestGroupCommitCoalescesAndAcksAfterDurability(t *testing.T) {
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
	<-gate.entered // leader for seq 0 is parked inside its data-dir fsync
	for seq := 1; seq < writers; seq++ {
		start(seq)
	}
	// Wait for every straggler to be queued behind the held token.
	st := fs.state(gcProc)
	for deadline := time.Now().Add(5 * time.Second); ; {
		st.mu.Lock()
		n := len(st.queue)
		st.mu.Unlock()
		if n == writers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writers queued", n, writers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()
	for seq, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", seq, err)
		}
	}

	// Leader batch (seq 0): one directory fsync, plus one of the root for
	// the chain's new directory. The seven queued writers must have
	// committed together: one more, not one per Put.
	gate.mu.Lock()
	syncDirs := gate.syncDirs
	gate.mu.Unlock()
	if syncDirs != 3 {
		t.Fatalf("%d directory fsyncs for %d Puts, want 3 (two coalesced batches)", syncDirs, writers)
	}
	chain, missing, err := fs.Get(ctx, gcProc)
	if err != nil || len(missing) != 0 || len(chain) != writers {
		t.Fatalf("chain = %d elems, missing = %v, %v", len(chain), missing, err)
	}
	for i, el := range chain {
		if el.Seq != i || !bytes.Equal(el.Data, payload(i)) {
			t.Fatalf("chain[%d] = seq %d", i, el.Seq)
		}
	}
}

// TestGroupCommitProcsCommitIndependently: chains share nothing on disk, so
// a commit parked on one process's directory fsync must not delay a Put to a
// different process — the group-commit token is per-chain, not store-wide.
func TestGroupCommitProcsCommitIndependently(t *testing.T) {
	gate := &gateFS{FS: OSFS{}, entered: make(chan struct{}, 1), release: make(chan struct{})}
	fs, err := NewFSStoreFS(t.TempDir(), Target{}, gate)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	parkedDone := make(chan error, 1)
	go func() { parkedDone <- fs.Put(ctx, "pA", 0, []byte("held")) }()
	<-gate.entered // pA's leader is parked inside its data-dir fsync

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
