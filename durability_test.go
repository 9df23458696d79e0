package aic

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// buildProcessChain makes a small full+delta chain via the public facade.
func buildProcessChain(t *testing.T) (*Process, [][]byte) {
	t.Helper()
	p := NewProcess(256)
	p.Write(0, 0, []byte("base page zero"))
	p.Write(1, 0, []byte("base page one"))
	chain := [][]byte{p.FullCheckpoint()}
	for step := 0; step < 3; step++ {
		p.Write(uint64(step%2), step*8, []byte("delta!"))
		enc, _ := p.DeltaCheckpoint()
		chain = append(chain, enc)
	}
	return p, chain
}

func TestRestoreLatestGoodPublicIntact(t *testing.T) {
	p, chain := buildProcessChain(t)
	im, rep, err := RestoreLatestGood(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Matches(p) {
		t.Fatal("intact chain must restore the live image")
	}
	if rep.LastSeq != len(chain)-1 || len(rep.Discarded) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRestoreLatestGoodPublicCorruptTail(t *testing.T) {
	_, chain := buildProcessChain(t)
	// Tear the last two elements: the restore must back up to position 1.
	chain[2] = chain[2][:len(chain[2])/2]
	chain[3] = []byte("junk")
	im, rep, err := RestoreLatestGood(chain)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastSeq != 1 || len(rep.Corrupt) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	want, err := RestoreImage(chain[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !im.as.Equal(want.as) {
		t.Fatal("prefix image mismatch")
	}
	// RestoreImage on the same damaged chain fails hard — the contrast
	// RestoreLatestGood exists for.
	if _, err := RestoreImage(chain); err == nil {
		t.Fatal("RestoreImage accepted a corrupt chain")
	}
}

func TestRestoreLatestGoodPublicErrors(t *testing.T) {
	if _, _, err := RestoreLatestGood(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, _, err := RestoreLatestGood([][]byte{[]byte("junk")}); err == nil {
		t.Fatal("anchorless chain accepted")
	}
}

func TestCheckpointDirScrubAndRestoreLatestGood(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenCheckpointDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, chain := buildProcessChain(t)
	for seq, enc := range chain {
		if err := store.Append(context.Background(), "job", seq, enc); err != nil {
			t.Fatal(err)
		}
	}
	procs, err := store.Procs(context.Background())
	if err != nil || len(procs) != 1 || procs[0] != "job" {
		t.Fatalf("procs = %v, %v", procs, err)
	}
	rep, err := store.Scrub(context.Background(), "job", false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store not clean: %+v", rep)
	}

	// Corrupt the tail on disk; the store must self-heal and restore the
	// newest intact prefix.
	name := filepath.Join(dir, "job", "ckpt-00000003.aic")
	if err := os.WriteFile(name, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = store.Scrub(context.Background(), "job", true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 3 {
		t.Fatalf("scrub report = %+v", rep)
	}
	im, good, err := store.RestoreLatestGood(context.Background(), "job")
	if err != nil {
		t.Fatal(err)
	}
	if good.LastSeq != 2 {
		t.Fatalf("restored through %d, want 2", good.LastSeq)
	}
	want, err := RestoreImage(chain[:3])
	if err != nil {
		t.Fatal(err)
	}
	if !im.as.Equal(want.as) {
		t.Fatal("prefix image mismatch")
	}
}

func TestCheckpointDirRestoreLatestGoodEmpty(t *testing.T) {
	store, err := OpenCheckpointDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.RestoreLatestGood(context.Background(), "nobody"); err == nil {
		t.Fatal("empty process restored")
	}
}
