package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

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

// TestGroupCommitCrashWindows injects a crash into every manifest window of
// a coalesced two-element commit of the older manifest protocol (seqs 2 and
// 3 batched after 0 and 1 were committed solo) and reopens its wreckage
// with the current store: the batch's names were pinned before the
// manifest write began, so the whole batch is adopted.
func TestGroupCommitCrashWindows(t *testing.T) {
	// The two solo commits perform 2 data and 2 manifest WriteFiles and
	// Renames and 4 SyncDirs; the batch is WriteFile 5, 6 (data) and 7
	// (manifest), Rename 7 (manifest), SyncDir 5 (data) and 6 (manifest).
	cases := []struct {
		name string
		op   Op
		n    int
		part int
		lose bool
	}{
		{name: "manifest write torn", op: OpWriteFile, n: 7, part: 7},
		{name: "manifest rename never applied", op: OpRename, n: 7, part: -1},
		{name: "manifest dir fsync loses manifest rename", op: OpSyncDir, n: 6, part: -1, lose: true},
		{name: "manifest dir fsync crash rename survived", op: OpSyncDir, n: 6, part: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := gcFrames(t)
			dir := t.TempDir()
			fault := &FaultFS{
				Inner: OSFS{}, CrashOp: tc.op, CrashN: tc.n,
				PartialBytes: tc.part, LoseUnsyncedRenames: tc.lose,
			}
			for seq := 0; seq < 2; seq++ {
				if err := legacyCommit(fault, dir, gcProc, frames, seq); err != nil {
					t.Fatalf("setup commit %d: %v", seq, err)
				}
			}
			if err := legacyCommit(fault, dir, gcProc, frames, 2, 3); !errors.Is(err, ErrCrashed) {
				t.Fatalf("batch commit = %v, want simulated crash", err)
			}
			if got := recoverSeqs(t, dir, frames); fmt.Sprint(got) != "[0 1 2 3]" {
				t.Fatalf("recovered seqs %v, want [0 1 2 3]", got)
			}
		})
	}
}
