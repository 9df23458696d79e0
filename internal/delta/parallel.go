package delta

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the concurrent half of the Xdelta3-PA pipeline: the paper's
// design runs checkpoint compression on dedicated cores of a multicore node
// (Section III), and because every page of the page-aligned stream is
// delta-coded independently, the encode fans out embarrassingly. Workers
// code each page's frame head (and a delta page's delta) into their arenas;
// one assembler writes the stream in ascending index order, copying a raw
// page's bytes once, straight from the update into the output — so the
// stream is byte-identical whatever the worker count, and the serial encode
// is the same assembler with its one worker run inline.

// resolveParallelism normalizes a worker-count knob: n ≤ 0 selects
// GOMAXPROCS, and the count never exceeds the number of work items.
func resolveParallelism(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

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
	parallelism = resolveParallelism(parallelism, len(sorted))
	arenas := make([]*frameArena, parallelism)
	var next atomic.Int64
	work := func(ar *frameArena) {
		e := GetEncoder()
		defer PutEncoder(e)
		var scratch []byte // reused head buffer; heads get arena copies
		for {
			i := int(next.Add(1)) - 1
			if i >= len(sorted) {
				return
			}
			scratch, heads[i].mode = appendPageHead(e, scratch[:0], sorted[i], blockSize)
			heads[i].head = ar.copyFrame(scratch)
		}
	}
	var wg sync.WaitGroup
	for w := range arenas {
		arenas[w] = getArena()
		if w > 0 {
			wg.Add(1)
			go func(ar *frameArena) {
				defer wg.Done()
				work(ar)
			}(arenas[w])
		}
	}
	work(arenas[0]) // the calling goroutine is the first worker
	wg.Wait()

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
	for _, ar := range arenas {
		putArena(ar)
	}
	st.OutputBytes = n
	return out[:len(out)-tail], st
}

// pageHead is a worker's output for one page: the frame head
// appendPageHead coded, in the worker's arena, and the mode it emitted.
type pageHead struct {
	head []byte
	mode byte
}

// DecodePageAlignedParallel reverses EncodePageAlignedParallelStats using up to
// parallelism workers (≤ 0 selects GOMAXPROCS). The frame scan and all
// validation run up front on the calling goroutine; only the per-page
// payload decodes fan out, so fetchOld must be safe for concurrent calls
// (a pure read of previous checkpoint state qualifies).
func DecodePageAlignedParallel(stream []byte, fetchOld func(index uint64) []byte, parallelism int) (map[uint64][]byte, error) {
	frames, err := scanPageFrames(stream)
	if err != nil {
		return nil, err
	}
	parallelism = resolveParallelism(parallelism, len(frames))
	if parallelism <= 1 {
		return decodeFrames(frames, fetchOld)
	}

	decoded := make([][]byte, len(frames))
	errs := make([]error, len(frames))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(frames) {
					return
				}
				decoded[i], errs[i] = decodeFrame(frames[i], fetchOld)
			}
		}()
	}
	wg.Wait()

	pages := make(map[uint64][]byte, len(frames))
	for i, f := range frames {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pages[f.idx] = decoded[i]
	}
	return pages, nil
}
