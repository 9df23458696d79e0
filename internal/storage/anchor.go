package storage

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
)

// ErrCompactRaced reports a ReplaceAnchor whose view of the chain went
// stale before the flip: a Truncate, Delete or competing compaction
// changed the prefix between the compactor's copy phase and its flip
// phase. The store is untouched; the compactor just retries on a fresh
// read of the chain. Match with errors.Is.
var ErrCompactRaced = errors.New("storage: compaction raced a chain mutation")

// AnchorReplacer is the optional Store refinement the online compactor
// needs: atomically replace a chain's prefix with an equivalent full
// checkpoint. FSStore implements it.
type AnchorReplacer interface {
	ReplaceAnchor(ctx context.Context, proc string, anchorSeq int, full []byte, drop []int) error
}

var _ AnchorReplacer = (*FSStore)(nil)

// ReplaceAnchor is the compactor's flip: overwrite the element at
// anchorSeq with full — a checkpoint that must restore to exactly the
// state the chain's prefix through anchorSeq restores to — and drop every
// element below it. drop is the compactor's view of the seqs strictly
// below anchorSeq; if the committed chain disagrees (a writer truncated or
// deleted concurrently) nothing is changed and ErrCompactRaced is
// returned.
//
// The flip is crash-safe at every step because RestoreLatestGood anchors
// at the NEWEST intact full checkpoint: the equivalent full is renamed
// over the old element and pinned by a directory fsync before any prefix
// element is unlinked, so a crash leaves either the old chain or the new
// anchor (with or without the prefix below it) — never the prefix gone
// and the old delta still at anchorSeq. The prefix then goes through the
// common removal protocol. The heavy work (reading the prefix,
// synthesizing full) happens before this call, outside the chain's commit
// token — writers only wait for the rename and unlinks below.
func (fs *FSStore) ReplaceAnchor(ctx context.Context, proc string, anchorSeq int, full []byte, drop []int) error {
	if err := ValidateProcName(proc); err != nil {
		return err
	}
	st, err := fs.lockProc(ctx, proc)
	if err != nil {
		return err
	}
	defer st.unlock()
	view, err := fs.loadView(st, proc)
	if err != nil {
		return err
	}
	at, have := view.find(anchorSeq)
	if !have {
		return fmt.Errorf("%w: seq %d no longer in %s's chain", ErrCompactRaced, anchorSeq, proc)
	}
	below := map[int]bool{}
	for _, el := range view.elems[:at] {
		below[el.seq] = true
	}
	if len(drop) != len(below) {
		return fmt.Errorf("%w: %s has %d elements below %d, compactor saw %d", ErrCompactRaced, proc, len(below), anchorSeq, len(drop))
	}
	for _, seq := range drop {
		if !below[seq] {
			return fmt.Errorf("%w: seq %d not below anchor in %s's chain", ErrCompactRaced, seq, proc)
		}
	}

	// Collect the chunk references the dropped recipes (and the old anchor
	// file, about to be overwritten) hold, before anything is removed.
	var dead []recipeRefs
	if fs.dedup != nil {
		for _, seq := range drop {
			if rr, ok := fs.readRecipeRefs(proc, seq); ok {
				dead = append(dead, rr)
			}
		}
		if rr, ok := fs.readRecipeRefs(proc, anchorSeq); ok {
			dead = append(dead, rr)
		}
	}

	fileData, release, err := fs.dedupEncode(full)
	if err != nil {
		return err
	}
	dir := fs.procDir(proc)
	if err := stageWrite(fs.fsys, filepath.Join(dir, ckptFile(anchorSeq)), fileData, 0o644); err != nil {
		release()
		st.invalidate()
		return err
	}
	if err := fs.fsys.SyncDir(dir); err != nil {
		// The rename may or may not have landed, and either file restores
		// the same image; the next listing decides which one is committed.
		// Both recipes' references stay counted — releasing the new one's
		// could let GC take the chunks of a durable anchor.
		st.invalidate()
		return fmt.Errorf("storage: %w", err)
	}
	next := &chainView{elems: append([]viewElem(nil), view.elems[at:]...)}
	next.elems[0].size = len(fileData)
	names := make([]string, 0, len(drop))
	for _, seq := range drop {
		names = append(names, ckptFile(seq))
	}
	return fs.removeCommitted(st, proc, names, next, dead)
}
