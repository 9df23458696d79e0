package storage

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"aic/internal/delta"
	"aic/internal/par"
)

// Chunk-level content-addressed dedup for FSStore.
//
// With dedup enabled, a committed checkpoint's data file holds a *recipe*
// instead of the payload: the payload's length, the ordered (length,
// chunk-ID) list produced by the content-defined chunker in internal/delta,
// and the SHA-256 of that list. Chunk bodies live once each under
// <root>/chunks!/<sha256-hex>.chk, shared by every recipe — across seqs,
// procs, tenants (tenancy is a key prefix over one flat store) and ring
// replicas that land on the same store. Reads are dedup-agnostic: Get,
// GetElem and Scrub detect the recipe magic and resolve it back to the
// exact original bytes (verifying every chunk body against its ID, and the
// list hash), so a store reopened without EnableDedup still restores
// byte-identically. Each byte is hashed once on either path: a chunk ID is
// the SHA-256 of the chunk, and since every body is checked against its ID,
// the list hash binds the payload as strongly as a payload hash would.
// Chunks are hashed (and, on a read, fetched and placed) on every core.
//
// Refcounts live in memory only: the recipes are the one durable record of
// which chunks are referenced, and EnableDedup rebuilds the counts from
// every committed recipe. GC safety follows two ordering invariants, both
// enforced under the chunk token (a capacity-1 channel, the same
// no-I/O-under-mutex discipline as procState.tok):
//
//  1. Chunk bodies are durable (staged + directory fsync) and their
//     refcounts bumped BEFORE the recipe referencing them is committed;
//     refcounts are decremented only AFTER the recipe's removal is durable
//     (unlink + directory fsync). So no recipe a crash could bring back is
//     ever uncounted.
//  2. GCChunks deletes only chunk files whose refcount is zero (or which
//     no index entry claims), holding the same token Put's bump holds — so
//     a chunk needed by any committed or in-flight recipe is never
//     collected.

// chunkDirName is the chunk store directory under the FSStore root. The
// trailing bare "!" is deliberate: no proc name escapes to it
// (unescapeProcDir rejects it), so List skips the directory and no
// process chain can ever collide with the chunk store.
const chunkDirName = "chunks!"

// legacyIndexName is the refcount index file stores wrote before the
// counts became memory-only. Nothing reads it; GCChunks removes it.
const legacyIndexName = "index.json"

// recipeMagic distinguishes a recipe file from a raw payload. The magic is
// reserved at the FSStore boundary: a payload beginning with these bytes
// must itself be a valid recipe (dedup-enabled stores always wrap payloads
// above MinPayload, so the collision cannot arise from library traffic).
// An AICRCPS2 recipe's hash field is the list hash (see listHash).
var recipeMagic = [8]byte{'A', 'I', 'C', 'R', 'C', 'P', 'S', '2'}

// recipeMagicV1 marks the recipes stores wrote before the list hash: the
// same layout, with the SHA-256 of the whole payload in the hash field.
// They stay readable; nothing writes them.
var recipeMagicV1 = [8]byte{'A', 'I', 'C', 'R', 'C', 'P', 'S', '1'}

// recipeEntryMin is the fewest bytes one chunk entry takes: a one-byte
// length uvarint and the chunk ID. It bounds a parsed recipe's chunk count
// before anything is sized by it.
const recipeEntryMin = 1 + sha256.Size

// chunkID is a chunk's content address: the SHA-256 of its bytes.
type chunkID [sha256.Size]byte

// DedupConfig parameterizes FSStore chunk-level dedup. The zero value
// selects the delta package's default chunk geometry and stores payloads
// smaller than one minimum chunk raw (a recipe would cost more than it
// saves there).
type DedupConfig struct {
	// MinChunk/AvgChunk/MaxChunk are the content-defined chunking bounds,
	// with delta.ChunkConfig defaulting semantics.
	MinChunk, AvgChunk, MaxChunk int
	// MinPayload is the smallest payload worth chunking; smaller ones are
	// stored verbatim. Defaults to the effective MinChunk.
	MinPayload int
}

func (c DedupConfig) withDefaults() DedupConfig {
	norm := delta.ChunkConfig{Min: c.MinChunk, Avg: c.AvgChunk, Max: c.MaxChunk}.Normalized()
	c.MinChunk, c.AvgChunk, c.MaxChunk = norm.Min, norm.Avg, norm.Max
	if c.MinPayload <= 0 {
		c.MinPayload = c.MinChunk
	}
	return c
}

func (c DedupConfig) chunkConfig() delta.ChunkConfig {
	return delta.ChunkConfig{Min: c.MinChunk, Avg: c.AvgChunk, Max: c.MaxChunk}
}

// chunkEntry is one chunk's index state. Refs counts recipe occurrences
// (a recipe referencing the same chunk twice holds two references).
type chunkEntry struct {
	Refs int
	Len  int
}

// chunkIndex is the in-memory refcount index plus the live byte counters
// behind DedupStats. All fields are guarded by tok.
type chunkIndex struct {
	cfg DedupConfig

	// tok is a capacity-1 token serializing every index mutation and every
	// chunk-directory write/unlink; chunk-file *reads* (resolve) are
	// tokenless — chunk bodies are immutable while referenced, and GC only
	// unlinks refcount-zero chunks under this token.
	tok chan struct{}

	refs     map[chunkID]*chunkEntry
	logical  int64 // sum of live recipes' payload lengths
	physical int64 // sum of on-disk chunk body lengths
}

func (ix *chunkIndex) lock()   { ix.tok <- struct{}{} }
func (ix *chunkIndex) unlock() { <-ix.tok }

// recipeRefs is the reference footprint of one parsed recipe: what a
// removal must give back.
type recipeRefs struct {
	total int
	ids   []chunkID
}

// chunkDir returns the chunk store directory.
func (fs *FSStore) chunkDir() string { return filepath.Join(fs.root, chunkDirName) }

// chunkPath returns a chunk body's file path.
func (fs *FSStore) chunkPath(id chunkID) string {
	return filepath.Join(fs.chunkDir(), hex.EncodeToString(id[:])+".chk")
}

// parseChunkName inverts chunkPath's base name.
func parseChunkName(name string) (chunkID, bool) {
	var id chunkID
	if !strings.HasSuffix(name, ".chk") || len(name) != 2*len(id)+4 {
		return id, false
	}
	raw, err := hex.DecodeString(name[:2*len(id)])
	if err != nil {
		return id, false
	}
	copy(id[:], raw)
	return id, true
}

// isRecipe reports whether a stored data file holds a recipe, in either
// format.
func isRecipe(data []byte) bool {
	if len(data) < len(recipeMagic) {
		return false
	}
	m := string(data[:len(recipeMagic)])
	return m == string(recipeMagic[:]) || m == string(recipeMagicV1[:])
}

// encodeRecipe serializes an AICRCPS2 recipe: magic, payload length, list
// hash, chunk count, per-chunk (length, ID) pairs, CRC-32C trailer.
func encodeRecipe(lens []int, ids []chunkID) []byte {
	total := 0
	for _, l := range lens {
		total += l
	}
	out := make([]byte, 0, len(recipeMagic)+8+sha256.Size+len(ids)*(sha256.Size+3)+8)
	out = append(out, recipeMagic[:]...)
	out = binary.AppendUvarint(out, uint64(total))
	hashAt := len(out)
	out = append(out, make([]byte, sha256.Size)...)
	out = binary.AppendUvarint(out, uint64(len(ids)))
	entriesAt := len(out)
	for i, id := range ids {
		out = binary.AppendUvarint(out, uint64(lens[i]))
		out = append(out, id[:]...)
	}
	sum := listHash(out[len(recipeMagic):hashAt], out[entriesAt:])
	copy(out[hashAt:], sum[:])
	crc := crc32.Checksum(out, crcCastagnoli)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// listHash is an AICRCPS2 recipe's hash field: the SHA-256 of the payload
// length uvarint followed by the entries, each a length uvarint and a chunk
// ID, as the recipe encodes them.
func listHash(totalField, entries []byte) chunkID {
	h := sha256.New()
	h.Write(totalField)
	h.Write(entries)
	var sum chunkID
	h.Sum(sum[:0])
	return sum
}

var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// parsedRecipe is a decoded recipe file.
type parsedRecipe struct {
	total int
	sum   chunkID // the list hash, or an AICRCPS1 recipe's payload hash
	v1    bool    // sum is the payload hash, checked once the payload is resolved
	lens  []int
	ids   []chunkID
}

func (r *parsedRecipe) refs() recipeRefs { return recipeRefs{total: r.total, ids: r.ids} }

// parseRecipe decodes a recipe file, verifying its CRC trailer and, for an
// AICRCPS2 recipe, its list hash. Nothing is sized by a count or length
// the bytes cannot pay for: the chunk count is at most one per
// recipeEntryMin bytes left, and every chunk length is at most
// delta.MaxChunkCeiling, so total ≤ chunk count × ceiling.
func parseRecipe(data []byte) (*parsedRecipe, error) {
	if !isRecipe(data) || len(data) < len(recipeMagic)+sha256.Size+4+2 {
		return nil, fmt.Errorf("storage: not a recipe")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcCastagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("storage: recipe checksum mismatch")
	}
	p := body[len(recipeMagic):]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("storage: truncated recipe varint")
		}
		p = p[n:]
		return v, nil
	}
	r := &parsedRecipe{v1: string(data[:len(recipeMagicV1)]) == string(recipeMagicV1[:])}
	total, err := next()
	if err != nil {
		return nil, err
	}
	totalField := body[len(recipeMagic) : len(body)-len(p)]
	if len(p) < sha256.Size {
		return nil, fmt.Errorf("storage: truncated recipe hash")
	}
	copy(r.sum[:], p)
	p = p[sha256.Size:]
	n, err := next()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p)/recipeEntryMin) {
		return nil, fmt.Errorf("storage: recipe chunk count %d overflows its %d entry bytes", n, len(p))
	}
	entries := p
	r.lens = make([]int, n)
	r.ids = make([]chunkID, n)
	var sum uint64
	for i := range r.ids {
		l, err := next()
		if err != nil {
			return nil, err
		}
		if l > delta.MaxChunkCeiling {
			return nil, fmt.Errorf("storage: recipe chunk length %d above the %d-byte ceiling", l, delta.MaxChunkCeiling)
		}
		if len(p) < sha256.Size {
			return nil, fmt.Errorf("storage: truncated recipe entry")
		}
		r.lens[i] = int(l)
		copy(r.ids[i][:], p)
		p = p[sha256.Size:]
		sum += l
	}
	if len(p) != 0 || sum != total {
		return nil, fmt.Errorf("storage: recipe length mismatch")
	}
	r.total = int(total)
	if !r.v1 && listHash(totalField, entries) != r.sum {
		return nil, fmt.Errorf("storage: recipe list hash mismatch")
	}
	return r, nil
}

// EnableDedup turns on chunk-level content-addressed dedup for every
// subsequent Put. Like SetMetrics it must run right after construction,
// before the store is shared: it lists every chain once and builds the
// chunk refcounts from the committed recipes — the only record of them.
// Existing raw (pre-dedup) files stay readable unchanged.
func (fs *FSStore) EnableDedup(ctx context.Context, cfg DedupConfig) error {
	if fs.dedup != nil {
		return fmt.Errorf("storage: dedup already enabled")
	}
	if err := fs.fsys.MkdirAll(fs.chunkDir(), 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	// Chunk fsyncs pin names inside the chunk directory; this pins the
	// directory's own entry, which MkdirAll may just have created.
	if err := fs.fsys.SyncDir(fs.root); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	ix := &chunkIndex{
		cfg:  cfg.withDefaults(),
		tok:  make(chan struct{}, 1),
		refs: make(map[chunkID]*chunkEntry),
	}
	// Ground truth: every committed recipe contributes references.
	procs, err := fs.List(ctx)
	if err != nil {
		return err
	}
	for _, proc := range procs {
		if err := ctx.Err(); err != nil {
			return err
		}
		view, err := fs.committed(ctx, proc)
		if err != nil {
			continue // Scrub's problem; an unlistable chain holds no committed refs
		}
		for _, el := range view.elems {
			data, err := fs.fsys.ReadFile(ElemPath(fs.root, proc, el.seq))
			if err != nil || !isRecipe(data) {
				continue
			}
			r, err := parseRecipe(data)
			if err != nil {
				continue
			}
			ix.logical += int64(r.total)
			for i, id := range r.ids {
				e := ix.refs[id]
				if e == nil {
					e = &chunkEntry{Len: r.lens[i]}
					ix.refs[id] = e
				}
				e.Refs++
			}
		}
	}
	// Physical bytes: whatever chunk bodies are on disk, referenced or not
	// (orphans stay counted until GCChunks reclaims them).
	entries, err := fs.fsys.ReadDir(fs.chunkDir())
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: %w", err)
	}
	for _, e := range entries {
		id, ok := parseChunkName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		ix.physical += info.Size()
		if ent := ix.refs[id]; ent != nil {
			ent.Len = int(info.Size())
		}
	}
	fs.dedup = ix
	ix.lock()
	defer ix.unlock()
	fs.observeDedup()
	return nil
}

// observeDedup publishes the live dedup gauges. Caller holds the chunk
// token; nil-safe on the metrics side.
func (fs *FSStore) observeDedup() {
	if fs.met == nil {
		return
	}
	ix := fs.dedup
	fs.met.dedupLogical.Set(float64(ix.logical))
	fs.met.dedupPhysical.Set(float64(ix.physical))
	if ix.physical > 0 {
		fs.met.dedupRatio.Set(float64(ix.logical) / float64(ix.physical))
	}
}

// dedupEncode turns a payload into its committed file form. With dedup
// off, or below MinPayload, that is the payload itself. Otherwise the
// payload is chunked, new chunk bodies are staged and pinned with one
// directory fsync, and refcounts are bumped — all before the returned
// recipe bytes are staged into any chain, per ordering invariant (1)
// above. The returned release func (never nil) undoes the reference bumps
// if the caller's commit subsequently fails (the chunk bodies stay behind
// for GC).
func (fs *FSStore) dedupEncode(data []byte) ([]byte, func(), error) {
	ix := fs.dedup
	if ix == nil || len(data) < ix.cfg.MinPayload {
		return data, func() {}, nil
	}
	chunks := delta.Chunks(data, ix.cfg.chunkConfig())
	lens := make([]int, len(chunks))
	ids := make([]chunkID, len(chunks))
	_ = par.For(0, len(chunks), func(_, i int) error {
		c := chunks[i]
		lens[i] = c.Len
		ids[i] = sha256.Sum256(data[c.Off : c.Off+c.Len])
		return nil
	})

	ix.lock()
	defer ix.unlock()
	var stagedNew []chunkID
	unstage := func() {
		for _, id := range stagedNew {
			_ = fs.fsys.Remove(fs.chunkPath(id))
		}
	}
	seen := make(map[chunkID]bool, len(ids))
	var newBytes int64
	for i, c := range chunks {
		id := ids[i]
		if seen[id] || ix.refs[id] != nil {
			continue
		}
		seen[id] = true
		if err := stageWrite(fs.fsys, fs.chunkPath(id), data[c.Off:c.Off+c.Len], 0o644); err != nil {
			unstage()
			return nil, nil, err
		}
		stagedNew = append(stagedNew, id)
		newBytes += int64(c.Len)
	}
	if len(stagedNew) > 0 {
		if err := fs.fsys.SyncDir(fs.chunkDir()); err != nil {
			unstage()
			return nil, nil, fmt.Errorf("storage: %w", err)
		}
	}
	for i, id := range ids {
		e := ix.refs[id]
		if e == nil {
			e = &chunkEntry{Len: lens[i]}
			ix.refs[id] = e
		}
		e.Refs++
	}
	ix.logical += int64(len(data))
	ix.physical += newBytes
	fs.observeDedup()
	rr := recipeRefs{total: len(data), ids: ids}
	release := func() { fs.dedupRelease([]recipeRefs{rr}) }
	return encodeRecipe(lens, ids), release, nil
}

// dedupRelease gives back the references of removed (or never-committed)
// recipes: decrement after the removal is durable, never before, per
// ordering invariant (1). Zero-ref entries stay in the index until
// GCChunks unlinks their bodies.
func (fs *FSStore) dedupRelease(dead []recipeRefs) {
	ix := fs.dedup
	if ix == nil || len(dead) == 0 {
		return
	}
	ix.lock()
	defer ix.unlock()
	for _, rr := range dead {
		ix.logical -= int64(rr.total)
		for _, id := range rr.ids {
			if e := ix.refs[id]; e != nil && e.Refs > 0 {
				e.Refs--
			}
		}
	}
	fs.observeDedup()
}

// readRecipeRefs loads (proc, seq)'s data file and, when it is a parseable
// recipe, returns its reference footprint. Used by removal paths to know
// what to release after the removal commits.
func (fs *FSStore) readRecipeRefs(proc string, seq int) (recipeRefs, bool) {
	data, err := fs.fsys.ReadFile(ElemPath(fs.root, proc, seq))
	if err != nil || !isRecipe(data) {
		return recipeRefs{}, false
	}
	r, err := parseRecipe(data)
	if err != nil {
		return recipeRefs{}, false
	}
	return r.refs(), true
}

// resolveData maps a stored data file back to its logical payload: raw
// files pass through, recipes are reassembled from their chunk bodies (see
// resolveRecipe). It needs no index and no token — reads work on stores
// that never called EnableDedup.
func (fs *FSStore) resolveData(data []byte) ([]byte, error) {
	if !isRecipe(data) {
		return data, nil
	}
	r, err := parseRecipe(data)
	if err != nil {
		return nil, err
	}
	return fs.resolveRecipe(r)
}

// resolveRecipe reads every chunk body of a parsed recipe, checks it
// against its length and ID, and places it at its offset in a payload
// buffer sized once. parseRecipe has checked the list hash; an AICRCPS1
// recipe's payload hash is checked here, over the placed payload.
func (fs *FSStore) resolveRecipe(r *parsedRecipe) ([]byte, error) {
	out := make([]byte, r.total)
	offs := make([]int, len(r.lens))
	for i, off := 0, 0; i < len(r.lens); i++ {
		offs[i] = off
		off += r.lens[i]
	}
	err := par.For(0, len(r.ids), func(_, i int) error {
		id := r.ids[i]
		b, err := fs.fsys.ReadFile(fs.chunkPath(id))
		if err != nil {
			return fmt.Errorf("storage: chunk %s: %w", hex.EncodeToString(id[:4]), err)
		}
		if len(b) != r.lens[i] || sha256.Sum256(b) != id {
			return fmt.Errorf("storage: chunk %s: content mismatch", hex.EncodeToString(id[:4]))
		}
		copy(out[offs[i]:], b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if r.v1 && sha256.Sum256(out) != r.sum {
		return nil, fmt.Errorf("storage: recipe payload hash mismatch")
	}
	return out, nil
}

// GCChunks unlinks every chunk body no live recipe references — zero
// refcount, or on disk with no index entry at all (a crash between chunk
// staging and recipe commit leaves those) — plus temp leftovers and the
// index file older stores kept, then pins the unlinks with one directory
// fsync. It holds the chunk token, so it cannot race an in-flight Put's
// reference bump; a chunk any committed or queued recipe needs is never
// collected. Returns the number of chunk files removed and the bytes
// reclaimed.
func (fs *FSStore) GCChunks(ctx context.Context) (removed int, reclaimed int64, err error) {
	ix := fs.dedup
	if ix == nil {
		return 0, 0, nil
	}
	select {
	case ix.tok <- struct{}{}:
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
	defer ix.unlock()
	entries, err := fs.fsys.ReadDir(fs.chunkDir())
	if err != nil {
		return 0, 0, fmt.Errorf("storage: %w", err)
	}
	unlinked := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || name == legacyIndexName {
			if rerr := fs.fsys.Remove(filepath.Join(fs.chunkDir(), name)); rerr == nil {
				unlinked = true
			}
			continue
		}
		id, ok := parseChunkName(name)
		if !ok {
			continue
		}
		ent := ix.refs[id]
		if ent != nil && ent.Refs > 0 {
			continue
		}
		size := int64(0)
		if ent != nil {
			size = int64(ent.Len)
		} else if info, ierr := e.Info(); ierr == nil {
			size = info.Size()
		}
		if rerr := fs.fsys.Remove(filepath.Join(fs.chunkDir(), name)); rerr != nil && !os.IsNotExist(rerr) {
			return removed, reclaimed, fmt.Errorf("storage: %w", rerr)
		}
		unlinked = true
		delete(ix.refs, id)
		removed++
		reclaimed += size
	}
	// Drop zero-ref entries whose bodies were already gone.
	for id, ent := range ix.refs {
		if ent.Refs <= 0 {
			delete(ix.refs, id)
		}
	}
	ix.physical -= reclaimed
	if ix.physical < 0 {
		ix.physical = 0
	}
	if unlinked {
		if err := fs.fsys.SyncDir(fs.chunkDir()); err != nil {
			return removed, reclaimed, fmt.Errorf("storage: %w", err)
		}
	}
	if fs.met != nil {
		fs.met.dedupReclaimed.Add(float64(removed))
	}
	fs.observeDedup()
	return removed, reclaimed, nil
}

// DedupStats is a point-in-time summary of the chunk store.
type DedupStats struct {
	// Enabled reports whether EnableDedup has run on this store handle.
	Enabled bool
	// Chunks is the number of live index entries (refcount > 0 plus
	// zero-ref entries awaiting GC).
	Chunks int
	// LogicalBytes is the payload bytes of every live recipe — what the
	// store would hold without dedup.
	LogicalBytes int64
	// PhysicalBytes is the chunk bytes actually on disk.
	PhysicalBytes int64
}

// Ratio is the dedup ratio (logical over physical); 0 when nothing is
// stored.
func (s DedupStats) Ratio() float64 {
	if s.PhysicalBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

// DedupStats reports the chunk store's current footprint. A zero-value
// (Enabled=false) result means dedup is off.
func (fs *FSStore) DedupStats(ctx context.Context) (DedupStats, error) {
	ix := fs.dedup
	if ix == nil {
		return DedupStats{}, nil
	}
	select {
	case ix.tok <- struct{}{}:
	case <-ctx.Done():
		return DedupStats{}, ctx.Err()
	}
	defer ix.unlock()
	return DedupStats{
		Enabled:       true,
		Chunks:        len(ix.refs),
		LogicalBytes:  ix.logical,
		PhysicalBytes: ix.physical,
	}, nil
}
