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

// ScrubReport classifies every disagreement Scrub found between a process's
// manifest and its on-disk files.
type ScrubReport struct {
	Proc string
	// ManifestRebuilt is set when the manifest itself was unreadable or
	// corrupt and membership had to be reconstructed from the surviving
	// data files.
	ManifestRebuilt bool
	// Missing lists manifest seqs whose data files no longer exist.
	Missing []int
	// Corrupt lists seqs whose data files exist but fail ckpt.Decode (bad
	// magic, torn write, CRC mismatch) or carry the wrong sequence number.
	Corrupt []int
	// Orphaned lists decodable data files the manifest does not reference —
	// trailing writes that crashed before the manifest commit and were
	// never acknowledged to the writer. They are removed on repair so the
	// store only ever restores acknowledged state.
	Orphaned []int
	// Adopted lists files re-listed into a rebuilt manifest (only when
	// ManifestRebuilt: with the ack record gone, preserving data is the
	// safe choice).
	Adopted []int
	// SizeFixed lists seqs whose manifest size disagreed with the (valid)
	// file.
	SizeFixed []int
	// StrayRemoved lists leftover temp files from interrupted writes.
	StrayRemoved []string
	// Unknown lists unrecognized file names, which Scrub never touches.
	Unknown []string
	// Repaired reports whether repairs were applied (Scrub ran with
	// repair=true and found something to fix).
	Repaired bool
}

// Clean reports whether the manifest and directory agreed exactly.
func (r *ScrubReport) Clean() bool {
	return !r.ManifestRebuilt && len(r.Missing) == 0 && len(r.Corrupt) == 0 &&
		len(r.Orphaned) == 0 && len(r.Adopted) == 0 && len(r.SizeFixed) == 0 &&
		len(r.StrayRemoved) == 0
}

// Merge folds o's findings into r (lists concatenate, flags OR): one report
// for a peer group's replicas, or for a peer's base and stripe chains.
func (r *ScrubReport) Merge(o *ScrubReport) {
	r.ManifestRebuilt = r.ManifestRebuilt || o.ManifestRebuilt
	r.Missing = append(r.Missing, o.Missing...)
	r.Corrupt = append(r.Corrupt, o.Corrupt...)
	r.Orphaned = append(r.Orphaned, o.Orphaned...)
	r.Adopted = append(r.Adopted, o.Adopted...)
	r.SizeFixed = append(r.SizeFixed, o.SizeFixed...)
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
	if r.ManifestRebuilt {
		b.WriteString(" manifest-rebuilt")
	}
	add := func(label string, seqs []int) {
		if len(seqs) > 0 {
			fmt.Fprintf(&b, " %s=%v", label, seqs)
		}
	}
	add("missing", r.Missing)
	add("corrupt", r.Corrupt)
	add("orphaned", r.Orphaned)
	add("adopted", r.Adopted)
	add("size-fixed", r.SizeFixed)
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

// Scrub cross-checks proc's manifest against its on-disk files and each
// file's frame integrity (ckpt.Decode verifies the CRC-32C trailer),
// classifying missing, orphaned and corrupt entries. With repair set it
// brings manifest and directory back into exact agreement: dropping dead
// entries, deleting corrupt files and unacknowledged orphans, clearing
// stray temp files, and rebuilding the manifest wholesale when it was
// itself destroyed. Scrub never repairs chain-level damage (gaps, lost
// anchors) — that is RestoreLatestGood's job.
func (fs *FSStore) Scrub(ctx context.Context, proc string, repair bool) (*ScrubReport, error) {
	if err := ValidateProcName(proc); err != nil {
		return nil, err
	}
	st, err := fs.lockProc(ctx, proc)
	if err != nil {
		return nil, err
	}
	defer st.unlock()
	rep := &ScrubReport{Proc: proc}
	dir := fs.procDir(proc)
	entries, err := fs.fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}

	m, merr := fs.loadManifest(proc)
	if merr != nil {
		rep.ManifestRebuilt = true
		m = &manifest{Proc: proc, Sizes: map[string]int{}}
	}
	listed := make(map[int]bool, len(m.Seqs))
	for _, seq := range m.Seqs {
		listed[seq] = true
	}

	// Survey the directory: which checkpoint files exist, and are they
	// intact? A file may be a dedup recipe — validity then means the recipe
	// resolves (all chunk bodies present and hash-clean) AND the resolved
	// payload decodes; refs records the reference footprint of parseable
	// recipes so a repair that removes one can release its chunk refs.
	type fileState struct {
		size  int
		valid bool
		rcp   *recipeRefs
	}
	onDisk := map[int]fileState{}
	var strays []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == "manifest.json" {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			strays = append(strays, name)
			continue
		}
		seq, ok := parseCkptName(name)
		if !ok {
			rep.Unknown = append(rep.Unknown, name)
			continue
		}
		data, err := fs.fsys.ReadFile(filepath.Join(dir, name))
		st := fileState{size: len(data)}
		if err == nil {
			if isRecipe(data) {
				if r, perr := parseRecipe(data); perr == nil {
					rr := r.refs()
					st.rcp = &rr
				}
			}
			if resolved, rerr := fs.resolveData(data); rerr == nil {
				if c, derr := ckpt.Decode(resolved); derr == nil && c.Seq == seq {
					st.valid = true
				}
			}
		}
		onDisk[seq] = st
	}

	// Cross-check manifest entries against files.
	keep := &manifest{Proc: proc, Sizes: map[string]int{}}
	for _, seq := range m.Seqs {
		st, exists := onDisk[seq]
		switch {
		case !exists:
			rep.Missing = append(rep.Missing, seq)
		case !st.valid:
			rep.Corrupt = append(rep.Corrupt, seq)
		default:
			if m.Sizes[ckptFile(seq)] != st.size {
				rep.SizeFixed = append(rep.SizeFixed, seq)
			}
			keep.Seqs = append(keep.Seqs, seq)
			keep.Sizes[ckptFile(seq)] = st.size
		}
	}
	// Files the manifest does not know about.
	var unlisted []int
	for seq := range onDisk {
		if !listed[seq] {
			unlisted = append(unlisted, seq)
		}
	}
	sort.Ints(unlisted)
	for _, seq := range unlisted {
		st := onDisk[seq]
		switch {
		case !st.valid:
			rep.Corrupt = append(rep.Corrupt, seq)
		case rep.ManifestRebuilt:
			rep.Adopted = append(rep.Adopted, seq)
			keep.Seqs = append(keep.Seqs, seq)
			keep.Sizes[ckptFile(seq)] = st.size
		default:
			rep.Orphaned = append(rep.Orphaned, seq)
		}
	}
	sort.Ints(rep.Corrupt)
	sort.Ints(keep.Seqs)
	rep.StrayRemoved = strays

	if !repair || rep.Clean() {
		return rep, nil
	}

	// Apply repairs: purge files the repaired manifest will not reference,
	// then commit the manifest with the usual durability discipline.
	// Removing a manifest-listed recipe releases its chunk references
	// (after the removal, per the dedup ordering invariant); orphans never
	// contributed committed references, so they release nothing.
	var dead []recipeRefs
	for _, seq := range rep.Corrupt {
		if st, exists := onDisk[seq]; exists {
			if err := fs.fsys.Remove(filepath.Join(dir, ckptFile(seq))); err != nil && !os.IsNotExist(err) {
				return rep, fmt.Errorf("storage: %w", err)
			}
			if fs.dedup != nil && listed[seq] && st.rcp != nil {
				dead = append(dead, *st.rcp)
			}
		}
	}
	for _, seq := range rep.Orphaned {
		if err := fs.fsys.Remove(filepath.Join(dir, ckptFile(seq))); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("storage: %w", err)
		}
	}
	for _, name := range strays {
		if err := fs.fsys.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("storage: %w", err)
		}
	}
	if err := fs.saveManifest(st, proc, keep); err != nil {
		return rep, err
	}
	fs.dedupRelease(dead)
	rep.Repaired = true
	return rep, nil
}
