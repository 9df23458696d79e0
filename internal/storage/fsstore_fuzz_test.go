package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/numeric"
)

// FuzzFSStoreOps drives op sequences through one long-lived FSStore handle
// over a FaultFS — Put (fresh, at an arbitrary seq, identical and
// divergent retries of an acked seq), Truncate, Delete, ReplaceAnchor and
// Scrub -repair (then GCChunks), with and without dedup — arming crashes
// at random ops and rebooting the FaultFS after each, as the chaos harness
// does. After every op the handle must read exactly what a freshly opened
// handle reads, and every acked seq not since removed must read back
// byte-identical. Each op is two bytes:
//
//	op:  bits 0-2 kind, bit 3 proc, bit 4 arms a crash, bits 5-7 crash point
//	arg: seq, variant or cut selector; bits 0-5 also size a torn write,
//	     bit 7 loses unsynced renames on the crash
func FuzzFSStoreOps(f *testing.F) {
	const (
		fresh, atSeq, same, diverge, trunc, del, anchor, scrub = 0, 1, 2, 3, 4, 5, 6, 7
		other, crash                                           = 1 << 3, 1 << 4
	)
	point := func(i byte) byte { return i << 5 } // crashPoints[i%5], occurrence 1+i/5
	seed := func(ops ...byte) []byte { return ops }
	// A chain built, retried both ways, compacted, truncated and scrubbed.
	life := seed(fresh, 0, fresh, 0, fresh, 1, same, 0, diverge, 1, anchor, 1,
		fresh|other, 0, trunc, 2, scrub, 0, del|other, 0, fresh|other, 0)
	f.Add(false, life)
	f.Add(true, life)
	// Out-of-order seqs: the lower one arriving second is stale.
	f.Add(false, seed(atSeq, 5, atSeq, 3, atSeq, 9, fresh, 0))
	// Crashes in each window of a Put, renames lost or kept.
	for i := byte(0); i < 5; i++ {
		f.Add(true, seed(fresh, 0, fresh|crash|point(i), 0x87, fresh, 0, scrub, 0))
		f.Add(false, seed(fresh, 0, fresh|crash|point(i), 0x07, fresh, 0))
	}
	// Crashes inside the removal paths and the anchor flip.
	f.Add(true, seed(fresh, 0, fresh, 0, fresh, 0, trunc|crash|point(3), 0x82, scrub, 0))
	f.Add(true, seed(fresh, 0, fresh, 0, fresh, 0, anchor|crash|point(4), 0x02, scrub, 0))
	f.Add(true, seed(fresh, 0, fresh, 0, anchor|crash|point(3), 0x81, scrub, 0, fresh, 0))
	f.Add(true, seed(fresh, 0, fresh|other, 0, del|crash|point(3), 0x80, scrub, 0, fresh, 0))
	f.Fuzz(func(t *testing.T, dedup bool, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		h := newOpsHarness(t, dedup)
		for i := 0; i+1 < len(ops); i += 2 {
			h.step(ops[i], ops[i+1])
			h.check(i / 2)
		}
	})
}

// opsProcs are the fuzzed chains; the uppercase one exercises the
// case-fold escaping of its directory name.
var opsProcs = [2]string{"a", "B"}

// crashPoints are the FaultFS ops a fuzzed crash can be armed on.
var crashPoints = [...]Op{OpWriteFile, OpSyncFile, OpRename, OpSyncDir, OpRemove}

// noSyncFS is the harness's inner filesystem: FaultFS models which names
// and bytes a crash keeps, so the real flushes would only slow the fuzzer.
type noSyncFS struct{ OSFS }

func (noSyncFS) SyncFile(string) error { return nil }
func (noSyncFS) SyncDir(string) error  { return nil }

// opsHarness is one fuzz run: the store under test, the FaultFS beneath
// it, and the model of what it has acknowledged.
type opsHarness struct {
	t     *testing.T
	dir   string
	fault *FaultFS
	fs    *FSStore
	// acked maps proc → seq → bytes for every acked Put (or anchor) not
	// since removed — by a removal that returned nil, or one that crashed
	// and so may have landed.
	acked map[string]map[int][]byte
}

func newOpsHarness(t *testing.T, dedup bool) *opsHarness {
	t.Helper()
	h := &opsHarness{
		t:     t,
		dir:   t.TempDir(),
		fault: &FaultFS{Inner: noSyncFS{}},
		acked: map[string]map[int][]byte{},
	}
	var err error
	if h.fs, err = NewFSStoreFS(h.dir, Target{}, h.fault); err != nil {
		t.Fatal(err)
	}
	if dedup {
		if err := h.fs.EnableDedup(context.Background(), testDedupConfig()); err != nil {
			t.Fatal(err)
		}
	}
	for _, proc := range opsProcs {
		h.acked[proc] = map[int][]byte{}
	}
	return h
}

// opsFrame is a valid full checkpoint at seq (Scrub decodes every file and
// checks its seq); variant selects divergent bytes. Pages 0 and 1 are the
// same in every frame, so with dedup on they share chunks across seqs and
// procs.
func opsFrame(seq, variant int) []byte {
	as := memsim.New(256)
	buf := make([]byte, 256)
	for p := uint64(0); p < 4; p++ {
		key := p
		if p >= 2 {
			key = p<<16 | uint64(seq)<<4 | uint64(variant)
		}
		numeric.NewRNG(key + 1).Bytes(buf)
		as.Write(p, 0, buf, 0)
	}
	return ckpt.FullFromImage(as, seq, []byte{byte(seq), byte(variant)}).Encode()
}

// ackedSeqs returns proc's acked seqs in ascending order.
func (h *opsHarness) ackedSeqs(proc string) []int {
	var seqs []int
	for seq := range h.acked[proc] {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}

// step runs one decoded op, then reboots the FaultFS if its crash fired.
func (h *opsHarness) step(op, arg byte) {
	t := h.t
	ctx := context.Background()
	proc := opsProcs[op>>3&1]
	listed, _, _, err := h.fs.GetSeqs(ctx, proc, nil)
	if err != nil {
		t.Fatalf("listing %s: %v", proc, err)
	}
	last := -1
	if len(listed) > 0 {
		last = listed[len(listed)-1]
	}
	if op&(1<<4) != 0 {
		p := int(op >> 5)
		h.fault.LoseUnsyncedRenames = arg&0x80 != 0
		h.fault.Arm(crashPoints[p%len(crashPoints)], 1+p/len(crashPoints), int(arg&0x3f)-1)
	}

	// removed lists the seqs a removal takes out of the model: for certain
	// when it returns nil, possibly when it crashes.
	var desc string
	var removed []int
	put := func(seq int, data []byte) error {
		desc = fmt.Sprintf("Put(%s, %d)", proc, seq)
		err := h.fs.Put(ctx, proc, seq, data)
		if err == nil {
			h.acked[proc][seq] = data
		}
		if !h.fault.crashed {
			if stale := seq <= last; stale != errors.Is(err, ErrStaleSeq) || !stale && err != nil {
				t.Fatalf("%s after %v = %v", desc, listed, err)
			}
		}
		return err
	}
	switch kind := op & 7; kind {
	case 0, 2, 3:
		acked := h.ackedSeqs(proc)
		if kind == 0 || len(acked) == 0 {
			seq := last + 1 + int(arg%3)
			err = put(seq, opsFrame(seq, int(arg>>2&1)))
			break
		}
		// A retry of an acked seq, with its bytes or others: the seq is
		// listed, so put requires ErrStaleSeq and the model keeps the
		// first commit's bytes.
		seq := acked[int(arg)%len(acked)]
		data := h.acked[proc][seq]
		if kind == 3 {
			data = opsFrame(seq, 3)
		}
		err = h.fs.Put(ctx, proc, seq, data)
		desc = fmt.Sprintf("retry Put(%s, %d)", proc, seq)
		if !h.fault.crashed && !errors.Is(err, ErrStaleSeq) {
			t.Fatalf("%s of an acked seq = %v, want ErrStaleSeq", desc, err)
		}
	case 1:
		seq := int(arg % 12)
		err = put(seq, opsFrame(seq, int(arg>>4&1)))
	case 4:
		cut := int(arg % 12)
		desc = fmt.Sprintf("Truncate(%s, %d)", proc, cut)
		err = h.fs.Truncate(ctx, proc, cut)
		for _, seq := range listed {
			if seq < cut {
				removed = append(removed, seq)
			}
		}
	case 5:
		desc = fmt.Sprintf("Delete(%s)", proc)
		err = h.fs.Delete(ctx, proc)
		removed = listed
	case 6:
		if len(listed) == 0 {
			desc = "ReplaceAnchor on an empty chain (skipped)"
			break
		}
		at := int(arg) % len(listed)
		seq := listed[at]
		desc = fmt.Sprintf("ReplaceAnchor(%s, %d)", proc, seq)
		full := opsFrame(seq, 2)
		err = h.fs.ReplaceAnchor(ctx, proc, seq, full, listed[:at])
		removed = append(append(removed, listed[:at]...), seq)
		if err == nil {
			removed = listed[:at]
			h.acked[proc][seq] = full
		}
	case 7:
		desc = fmt.Sprintf("Scrub(%s, repair)", proc)
		var rep *ScrubReport
		if rep, err = h.fs.Scrub(ctx, proc, true); err == nil {
			if n := len(rep.Missing) + len(rep.Corrupt) + len(rep.Orphaned); n != 0 {
				t.Fatalf("%s found damage no op made: %v", desc, rep)
			}
			_, _, err = h.fs.GCChunks(ctx)
		}
	}
	if err == nil || h.fault.crashed {
		for _, seq := range removed {
			delete(h.acked[proc], seq)
		}
	}
	if err != nil && !h.fault.crashed && !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("%s = %v with no crash", desc, err)
	}
	h.fault.Disarm()
	h.fault.LoseUnsyncedRenames = false
	if h.fault.crashed {
		h.fault.Reboot()
	}
}

// check compares the long-lived handle with a freshly opened one, chain by
// chain, and requires every acked seq to read back byte-identical.
func (h *opsHarness) check(step int) {
	t := h.t
	ctx := context.Background()
	fresh, err := NewFSStore(h.dir, Target{})
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range opsProcs {
		chain, missing, err := h.fs.Get(ctx, proc)
		if err != nil {
			t.Fatalf("step %d: Get(%s): %v", step, proc, err)
		}
		want, wantMissing, err := fresh.Get(ctx, proc)
		if err != nil {
			t.Fatalf("step %d: fresh Get(%s): %v", step, proc, err)
		}
		if got, exp := fmt.Sprint(storedSeqs(chain), missing), fmt.Sprint(storedSeqs(want), wantMissing); got != exp {
			t.Fatalf("step %d: %s reads %s on the handle, %s on a fresh one", step, proc, got, exp)
		}
		read := map[int][]byte{}
		for i, el := range chain {
			if !bytes.Equal(el.Data, want[i].Data) {
				t.Fatalf("step %d: %s seq %d differs between the handle and a fresh one", step, proc, el.Seq)
			}
			read[el.Seq] = el.Data
		}
		for seq, data := range h.acked[proc] {
			if got, ok := read[seq]; !ok || !bytes.Equal(got, data) {
				t.Fatalf("step %d: acked %s seq %d reads back %d bytes (present %v), want %d", step, proc, seq, len(got), ok, len(data))
			}
		}
		n, err := h.fs.Bytes(proc)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := fresh.Bytes(proc); err != nil || m != n {
			t.Fatalf("step %d: %s Bytes %d on the handle, %d (%v) on a fresh one", step, proc, n, m, err)
		}
	}
}

func storedSeqs(chain []Stored) []int {
	seqs := make([]int, len(chain))
	for i, el := range chain {
		seqs[i] = el.Seq
	}
	return seqs
}
