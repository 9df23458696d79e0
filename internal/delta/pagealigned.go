package delta

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Page payload modes of the page-aligned stream.
const (
	PageRaw   = 0x00 // page stored verbatim (no previous version existed)
	PageDelta = 0x01 // page stored as a delta against its previous version
	PageXOR   = 0x02 // page stored as XOR+RLE against its previous version
)

// PageUpdate is one dirty page to be checkpointed. Old is the page's content
// in the previous checkpoint, or nil when the page is new there (a dirty but
// not hot page) — such pages are stored raw, exactly as Xdelta3-PA does.
type PageUpdate struct {
	Index uint64
	Old   []byte
	New   []byte
}

// sortUpdates returns updates in ascending index order — the order the
// encoder emits and the decoder enforces. Updates already in that order (a
// dirty-page list is) come back as they are; others are sorted in a copy.
func sortUpdates(updates []PageUpdate) []PageUpdate {
	less := func(a, b PageUpdate) int { return cmp.Compare(a.Index, b.Index) }
	if slices.IsSortedFunc(updates, less) {
		return updates
	}
	sorted := slices.Clone(updates)
	slices.SortFunc(sorted, less)
	return sorted
}

// appendPageHead codes one page update and appends its frame to dst —
// index, mode byte, payload length, and for a delta page the delta — all
// but a raw page's payload, which is u.New itself: the assembler copies it
// straight into the stream. It reports the mode emitted, and is the unit of
// work every encode shares, whatever its worker count.
func appendPageHead(e *Encoder, dst []byte, u PageUpdate, blockSize int) ([]byte, byte) {
	dst = binary.AppendUvarint(dst, u.Index)
	if u.Old != nil {
		var d []byte
		if len(u.Old) == len(u.New) {
			d = e.encodeAligned(u.Old, u.New, blockSize)
		} else {
			d = e.Encode(u.Old, u.New, blockSize)
		}
		if len(d) < len(u.New) {
			dst = append(dst, PageDelta)
			dst = binary.AppendUvarint(dst, uint64(len(d)))
			return append(dst, d...), PageDelta
		}
		// Delta did not pay off (page rewritten with unrelated data):
		// fall back to raw storage, as real delta compressors do.
	}
	dst = append(dst, PageRaw)
	return binary.AppendUvarint(dst, uint64(len(u.New))), PageRaw
}

// alignedGap is the shortest equal run the aligned fast path codes as a
// copy at its own offset. A copy of a page offset costs at most four bytes
// and splits the surrounding literal (two more), so from eight equal bytes
// on it is cheaper than carrying the run inside the literal.
const alignedGap = 8

// encodeAligned is the page-aligned fast path for a source and target page
// of equal length: it produces a stream in Encode's format into the
// Encoder's buffer, valid until the next call. Both versions share offsets,
// so a word-at-a-time compare finds the byte-exact differing spans; equal
// runs of at least alignedGap become copies at the same offset, and only
// the literal stretches between them are coded — short ones as literals,
// long ones (shifted or inserted content) through the general block
// matcher, whose source index is built at most once, on the first long
// stretch.
func (e *Encoder) encodeAligned(source, target []byte, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	out := binary.AppendUvarint(e.buf[:0], uint64(len(target)))
	indexed := false
	// flush codes the pending literal stretch target[lo:hi].
	flush := func(lo, hi int) {
		if hi-lo < 2*blockSize {
			out = appendLiteral(out, target[lo:hi])
			return
		}
		if !indexed {
			e.indexSource(source, blockSize)
			indexed = true
		}
		out = e.appendMatched(out, source, target[:hi], lo, blockSize)
	}
	litStart := 0
	for i := 0; i < len(target); {
		eq := i + commonPrefixLen(target[i:], source[i:])
		if eq-i >= alignedGap {
			flush(litStart, i)
			out = appendCopy(out, i, eq-i)
			litStart = eq
		}
		i = eq + diffPrefixLen(target[eq:], source[eq:])
	}
	flush(litStart, len(target))
	e.buf = append(out, opEnd)
	return e.buf
}

// EncodePageAlignedXOR is the simple-compressor ablation: hot pages are
// XOR+RLE-coded against their previous versions (as in earlier compressed-
// difference checkpointing) instead of rsync-delta-coded; the framing is
// identical to EncodePageAlignedParallelStats.
func EncodePageAlignedXOR(updates []PageUpdate) []byte {
	sorted := sortUpdates(updates)
	out := make([]byte, 0, 64)
	out = binary.AppendUvarint(out, uint64(len(sorted)))
	for _, u := range sorted {
		out = binary.AppendUvarint(out, u.Index)
		var payload []byte
		mode := byte(PageRaw)
		if u.Old != nil && len(u.Old) == len(u.New) {
			if x, err := EncodeXOR(u.Old, u.New); err == nil && len(x) < len(u.New) {
				mode, payload = PageXOR, x
			}
		}
		if payload == nil {
			payload = u.New
		}
		out = append(out, mode)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	return out
}

// pageFrame is one parsed (but not yet decoded) page entry of the
// page-aligned stream.
type pageFrame struct {
	idx     uint64
	mode    byte
	payload []byte
}

// scanPageFrames splits a page-aligned stream into frames, validating the
// framing: varint integrity, payload bounds, known modes, and strictly
// ascending page indexes (both encoders emit ascending unique indexes, so
// duplicates or reordering can only be corruption). A frame's payload
// aliases the stream, unless it crosses a piece boundary.
func scanPageFrames(r *Pieces) ([]pageFrame, error) {
	count, ok := r.Uvarint()
	if !ok {
		return nil, fmt.Errorf("%w: missing page count", ErrCorrupt)
	}
	capHint := count
	if capHint > 1<<16 {
		capHint = 1 << 16 // corrupt counts must not drive huge allocations
	}
	frames := make([]pageFrame, 0, capHint)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		idx, ok := r.Uvarint()
		if !ok {
			return nil, fmt.Errorf("%w: bad page index", ErrCorrupt)
		}
		if i > 0 && idx <= prev {
			return nil, fmt.Errorf("%w: page index %d after %d breaks ascending order", ErrCorrupt, idx, prev)
		}
		prev = idx
		mode, ok := r.Byte()
		if !ok {
			return nil, fmt.Errorf("%w: missing page mode", ErrCorrupt)
		}
		if mode != PageRaw && mode != PageDelta && mode != PageXOR {
			return nil, fmt.Errorf("%w: unknown page mode %#x", ErrCorrupt, mode)
		}
		plen, ok := r.Uvarint()
		if !ok || plen > uint64(r.Len()) {
			return nil, fmt.Errorf("%w: bad payload length for page %d", ErrCorrupt, idx)
		}
		payload, _ := r.Next(int(plen))
		frames = append(frames, pageFrame{idx: idx, mode: mode, payload: payload})
	}
	return frames, nil
}

// decodeFrameInto materializes one page from its frame into dst's backing
// array when the page fits there (into a new buffer otherwise). dst is
// never read and must not overlap any page fetchOld returns.
func decodeFrameInto(dst []byte, f pageFrame, fetchOld func(index uint64) []byte) ([]byte, error) {
	switch f.mode {
	case PageRaw:
		return append(dst[:0], f.payload...), nil
	case PageDelta, PageXOR:
		old := fetchOld(f.idx)
		if old == nil {
			return nil, fmt.Errorf("delta: page %d needs missing previous version", f.idx)
		}
		var decoded []byte
		var err error
		if f.mode == PageDelta {
			decoded, err = decodeInto(dst, old, f.payload)
		} else {
			decoded, err = decodeXORInto(dst, old, f.payload)
		}
		if err != nil {
			return nil, fmt.Errorf("page %d: %w", f.idx, err)
		}
		return decoded, nil
	default:
		return nil, fmt.Errorf("%w: unknown page mode %#x", ErrCorrupt, f.mode)
	}
}

// Stats summarizes a compression operation for the predictor feedback loop
// and for the Table 3 / Fig. 2 experiments.
type Stats struct {
	InputBytes  int // bytes of target data considered
	OutputBytes int // bytes of compressed stream produced
	HotPages    int // pages actually emitted as deltas
	RawPages    int // pages stored verbatim (new pages and failed deltas)
}

// count accrues one page into the stats given the mode the encoder actually
// emitted — a hot page whose delta did not pay off counts as raw.
func (s *Stats) count(u PageUpdate, mode byte) {
	s.InputBytes += len(u.New)
	if mode == PageDelta || mode == PageXOR {
		s.HotPages++
	} else {
		s.RawPages++
	}
}

// Ratio returns OutputBytes/InputBytes, the paper's compression ratio
// (lower is better); 0 input yields 0.
func (s Stats) Ratio() float64 {
	if s.InputBytes == 0 {
		return 0
	}
	return float64(s.OutputBytes) / float64(s.InputBytes)
}
