package delta

import (
	"bytes"
	"encoding/binary"

	"aic/internal/par"
)

// This file is the concurrent half of the Xdelta3-PA pipeline: the paper's
// design runs checkpoint compression on dedicated cores of a multicore node
// (Section III), and because every page of the page-aligned stream is
// delta-coded independently, the encode fans out embarrassingly, through
// par.For like the decode. Workers code each page's frame head (and a delta
// page's delta) into their arenas; one assembler writes the stream in
// ascending index order, copying a raw page's bytes once, straight from the
// update into the output — so the stream is byte-identical whatever the
// worker count, and the serial encode is the same assembler with its one
// worker run inline.

// EncodePageAlignedParallelStats produces the Xdelta3-PA stream for the
// given page updates: each hot page (Old present) is delta-compressed
// against its old version independently, enabling the per-page cost
// estimation the AIC predictor relies on. Pages are emitted in ascending
// index order; page indexes must be unique (duplicates would be rejected on
// decode). Up to parallelism workers encode (≤ 0 selects GOMAXPROCS; 1 is
// the serial path), and the stream is byte-identical at every worker count.
// Page updates may alias shared memory: workers only read them. The stats
// count the modes actually emitted — a page with a previous version whose
// delta fell back to raw storage counts as raw — and do not depend on the
// worker count either.
func EncodePageAlignedParallelStats(updates []PageUpdate, blockSize, parallelism int) ([]byte, Stats) {
	return EncodePageAlignedInto(updates, blockSize, parallelism, nil, 0)
}

// EncodePageAlignedInto is EncodePageAlignedParallelStats writing the stream
// into an enclosing frame: once the stream's length n is known, head(n)
// returns the bytes that precede it (a nil head: none), and the result is
// those bytes and the stream in one buffer, allocated once with room for
// tail more bytes and not zeroed first. Stats.OutputBytes is n, so the
// stream is the result's last OutputBytes bytes.
func EncodePageAlignedInto(updates []PageUpdate, blockSize, parallelism int, head func(n int) []byte, tail int) ([]byte, Stats) {
	sorted := sortUpdates(updates)
	heads := make([]pageHead, len(sorted))
	workers := make([]encodeWorker, par.Workers(parallelism, len(sorted)))
	for w := range workers {
		workers[w] = encodeWorker{arena: getArena(), enc: GetEncoder()}
	}
	_ = par.For(len(workers), len(sorted), func(w, i int) error {
		ew := &workers[w]
		ew.scratch, heads[i].mode = appendPageHead(ew.enc, ew.scratch[:0], sorted[i], blockSize)
		heads[i].head = ew.arena.copyFrame(ew.scratch)
		return nil
	})

	// Assemble: the head, the count, then each page's head and — for a raw
	// page — its bytes, in ascending index order, joined into one buffer.
	pieces := make([][]byte, 2, 2*len(sorted)+3)
	pieces[1] = binary.AppendUvarint(nil, uint64(len(sorted)))
	n := len(pieces[1])
	var st Stats
	for i, h := range heads {
		pieces = append(pieces, h.head)
		n += len(h.head)
		if h.mode == PageRaw {
			pieces = append(pieces, sorted[i].New)
			n += len(sorted[i].New)
		}
		st.count(sorted[i], h.mode)
	}
	if head != nil {
		pieces[0] = head(n)
	}
	out := bytes.Join(append(pieces, make([]byte, tail)), nil)
	// The heads are copied out; the arenas (and their chunks) can be
	// recycled for the next encode run.
	for _, ew := range workers {
		putArena(ew.arena)
		PutEncoder(ew.enc)
	}
	st.OutputBytes = n
	return out[:len(out)-tail], st
}

// encodeWorker is one encode worker's state: the arena its pages' heads
// are copied into, its encoder, and the head buffer it reuses.
type encodeWorker struct {
	arena   *frameArena
	enc     *Encoder
	scratch []byte
}

// pageHead is a worker's output for one page: the frame head
// appendPageHead coded, in the worker's arena, and the mode it emitted.
type pageHead struct {
	head []byte
	mode byte
}

// DecodePageAlignedParallel reverses EncodePageAlignedParallelStats using up to
// parallelism workers (≤ 0 selects GOMAXPROCS): DecodePageAlignedInto with
// each page in a new buffer, returned as a map from page index to content.
// fetchOld must be safe for concurrent calls (a pure read of previous
// checkpoint state qualifies).
//
//aiclint:ignore testonly only bench calls it (its delta.decode_ms); ROADMAP 1(f) moves bench onto the product path and deletes it
func DecodePageAlignedParallel(stream []byte, fetchOld func(index uint64) []byte, parallelism int) (map[uint64][]byte, error) {
	decoded, err := DecodePageAlignedInto(stream, fetchOld, parallelism, func(n int) [][]byte { return make([][]byte, n) })
	if err != nil {
		return nil, err
	}
	pages := make(map[uint64][]byte, len(decoded))
	for _, p := range decoded {
		pages[p.Index] = p.Data
	}
	return pages, nil
}

// Page is one decoded page of a page-aligned stream.
type Page struct {
	Index uint64
	Data  []byte
}

// DecodePageAlignedInto is the one page-aligned decoder: it reverses
// EncodePageAlignedParallelStats into buffers the caller supplies, and
// returns the pages in stream order (ascending index). Once the stream's
// framing validates, take(n) is called once and must return n buffers; page
// i is decoded into buffer i's backing array when it fits the buffer's
// capacity, and into a new buffer otherwise. A buffer's contents are never
// read, but no buffer may overlap a page fetchOld can return: a delta op
// reads the previous version while the page is being written.
//
// The frame scan and all framing validation run up front on the calling
// goroutine; only the per-page decodes fan out, across up to parallelism
// workers (≤ 0 selects GOMAXPROCS, 1 decodes on the calling goroutine
// alone), so fetchOld must be safe for concurrent calls. When pages fail,
// the error of the first failing page in stream order is returned.
func DecodePageAlignedInto(stream []byte, fetchOld func(index uint64) []byte, parallelism int, take func(n int) [][]byte) ([]Page, error) {
	r := NewPieces(stream)
	return DecodePiecesInto(&r, fetchOld, parallelism, take)
}

// DecodePiecesInto is DecodePageAlignedInto over the stream r reads, held
// in one piece or across several: a page's bytes are decoded where they lie
// (see Pieces).
func DecodePiecesInto(r *Pieces, fetchOld func(index uint64) []byte, parallelism int, take func(n int) [][]byte) ([]Page, error) {
	frames, err := scanPageFrames(r)
	if err != nil {
		return nil, err
	}
	bufs, pages := take(len(frames)), make([]Page, len(frames))
	err = par.For(parallelism, len(frames), func(_, i int) error {
		data, err := decodeFrameInto(bufs[i], frames[i], fetchOld)
		if err != nil {
			return err
		}
		pages[i] = Page{Index: frames[i].idx, Data: data}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pages, nil
}
