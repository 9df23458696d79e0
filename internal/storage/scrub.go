package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aic/internal/ckpt"
)

// legacyManifestName is the per-proc manifest stores kept before the
// directory listing became the chain. Nothing reads it; Scrub clears it as
// a stray.
const legacyManifestName = "manifest.json"

// ScrubReport classifies every disagreement Scrub found between a process's
// committed chain and its on-disk files.
type ScrubReport struct {
	Proc string
	// Missing lists committed seqs whose data files no longer exist.
	Missing []int
	// Corrupt lists seqs whose data files exist but fail ckpt.Decode (bad
	// magic, torn write, CRC mismatch) or carry the wrong sequence number.
	Corrupt []int
	// Orphaned lists decodable data files in the directory that this store
	// handle never committed (written behind its back). They are removed on
	// repair so the store only ever restores what it acknowledged.
	Orphaned []int
	// StrayRemoved lists leftover temp files from interrupted writes, and
	// the manifest file older stores kept.
	StrayRemoved []string
	// Unknown lists unrecognized file names, which Scrub never touches.
	Unknown []string
	// Repaired reports whether repairs were applied (Scrub ran with
	// repair=true and found something to fix).
	Repaired bool
}

// Clean reports whether the committed chain and directory agreed exactly.
func (r *ScrubReport) Clean() bool {
	return len(r.Missing) == 0 && len(r.Corrupt) == 0 && len(r.Orphaned) == 0 &&
		len(r.StrayRemoved) == 0
}

// Merge folds o's findings into r (lists concatenate, flags OR): one report
// for a peer group's replicas, or for a peer's base and stripe chains.
func (r *ScrubReport) Merge(o *ScrubReport) {
	r.Missing = append(r.Missing, o.Missing...)
	r.Corrupt = append(r.Corrupt, o.Corrupt...)
	r.Orphaned = append(r.Orphaned, o.Orphaned...)
	r.StrayRemoved = append(r.StrayRemoved, o.StrayRemoved...)
	r.Unknown = append(r.Unknown, o.Unknown...)
	r.Repaired = r.Repaired || o.Repaired
}

// String renders the report in fsck style.
func (r *ScrubReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("%s: clean", r.Proc)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", r.Proc)
	add := func(label string, seqs []int) {
		if len(seqs) > 0 {
			fmt.Fprintf(&b, " %s=%v", label, seqs)
		}
	}
	add("missing", r.Missing)
	add("corrupt", r.Corrupt)
	add("orphaned", r.Orphaned)
	if len(r.StrayRemoved) > 0 {
		fmt.Fprintf(&b, " stray=%v", r.StrayRemoved)
	}
	if len(r.Unknown) > 0 {
		fmt.Fprintf(&b, " unknown=%v", r.Unknown)
	}
	if r.Repaired {
		b.WriteString(" (repaired)")
	}
	return b.String()
}

// parseCkptName inverts ckptFile, rejecting anything that does not
// round-trip exactly.
func parseCkptName(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, "ckpt-%d.aic", &seq); err != nil {
		return 0, false
	}
	if ckptFile(seq) != name {
		return 0, false
	}
	return seq, true
}

// Scrub cross-checks proc's committed chain against its on-disk files and
// each file's frame integrity (ckpt.Decode verifies the CRC-32C trailer),
// classifying missing, orphaned and corrupt entries. A handle that has not
// touched proc yet lists the directory first, so on a freshly opened store
// every decodable file is committed and nothing is orphaned. With repair
// set it brings chain and directory back into exact agreement — deleting
// corrupt files, orphans and strays under the removal protocol (unlink,
// directory fsync, then release chunk references) and dropping dead
// entries. Scrub never repairs chain-level damage (gaps, lost anchors) —
// that is RestoreLatestGood's job.
func (fs *FSStore) Scrub(ctx context.Context, proc string, repair bool) (*ScrubReport, error) {
	if err := ValidateProcName(proc); err != nil {
		return nil, err
	}
	st, err := fs.lockProc(ctx, proc)
	if err != nil {
		return nil, err
	}
	defer st.unlock()
	view, err := fs.loadView(st, proc)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{Proc: proc}
	dir := fs.procDir(proc)
	entries, err := fs.fsys.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: %w", err)
	}

	// Survey the directory: which checkpoint files exist, and are they
	// intact? A file may be a dedup recipe — validity then means the recipe
	// resolves (all chunk bodies present and hash-clean) AND the resolved
	// payload decodes; rcp records the reference footprint of parseable
	// recipes so a repair that removes one can release its chunk refs.
	type fileState struct {
		size  int
		valid bool
		rcp   *recipeRefs
	}
	onDisk := map[int]fileState{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || name == legacyManifestName {
			rep.StrayRemoved = append(rep.StrayRemoved, name)
			continue
		}
		seq, ok := parseCkptName(name)
		if !ok {
			rep.Unknown = append(rep.Unknown, name)
			continue
		}
		data, err := fs.fsys.ReadFile(filepath.Join(dir, name))
		fst := fileState{size: len(data)}
		if err == nil {
			resolved := data
			if isRecipe(data) {
				var r *parsedRecipe
				if r, err = parseRecipe(data); err == nil {
					rr := r.refs()
					fst.rcp = &rr
					resolved, err = fs.resolveRecipe(r)
				}
			}
			if err == nil {
				if c, derr := ckpt.Decode(resolved); derr == nil && c.Seq == seq {
					fst.valid = true
				}
			}
		}
		onDisk[seq] = fst
	}

	// Cross-check committed entries against files.
	next := &chainView{}
	var dead []recipeRefs
	for _, el := range view.elems {
		fst, exists := onDisk[el.seq]
		delete(onDisk, el.seq)
		switch {
		case !exists:
			rep.Missing = append(rep.Missing, el.seq)
		case !fst.valid:
			rep.Corrupt = append(rep.Corrupt, el.seq)
			if fs.dedup != nil && fst.rcp != nil {
				dead = append(dead, *fst.rcp)
			}
		default:
			next.elems = append(next.elems, viewElem{seq: el.seq, size: fst.size})
		}
	}
	// Files this handle never committed: corrupt leftovers carry no
	// references, and intact ones are orphans.
	for seq, fst := range onDisk {
		if fst.valid {
			rep.Orphaned = append(rep.Orphaned, seq)
		} else {
			rep.Corrupt = append(rep.Corrupt, seq)
		}
	}
	sort.Ints(rep.Corrupt)
	sort.Ints(rep.Orphaned)

	if !repair || rep.Clean() {
		return rep, nil
	}
	var names []string
	for _, seq := range rep.Corrupt {
		names = append(names, ckptFile(seq))
	}
	for _, seq := range rep.Orphaned {
		names = append(names, ckptFile(seq))
	}
	names = append(names, rep.StrayRemoved...)
	if err := fs.removeCommitted(st, proc, names, next, dead); err != nil {
		return rep, err
	}
	rep.Repaired = true
	return rep, nil
}
