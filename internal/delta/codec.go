// Package delta implements the delta-compression substrate of AIC: an
// rsync-style block-hash codec in the family of Xdelta3 (weak rolling hash
// to find candidate blocks, strong hash to confirm, greedy forward match
// extension, COPY/ADD instruction stream), an XOR+run-length baseline as
// used by earlier compressed-difference checkpointing, and the page-aligned
// wrapper (Xdelta3-PA) that differences each hot page against its previous
// checkpointed version. The wrapper codes an equal-length page with an
// aligned fast path: a word-at-a-time compare copies equal runs at their own
// offsets and hash-searches only long differing spans, emitting the same
// stream format, so the decoder is shared.
package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// DefaultBlockSize is the source-block granularity of the codec. Small
// blocks favour the 4-KiB-page-aligned use; whole-image callers pass a
// larger size.
const DefaultBlockSize = 64

// Instruction opcodes of the delta stream.
const (
	opEnd  = 0x00
	opCopy = 0x01
	opAdd  = 0x02
	opRun  = 0x03 // run-length literal: one byte value repeated N times
)

// runThreshold is the minimum same-byte run worth encoding as opRun
// (shorter runs cost more in opcodes than they save).
const runThreshold = 24

var (
	// ErrCorrupt reports a malformed delta stream.
	ErrCorrupt = errors.New("delta: corrupt stream")
	// ErrLengthMismatch reports XOR inputs of different lengths.
	ErrLengthMismatch = errors.New("delta: source/target length mismatch")
	// ErrTooLarge reports a stream whose declared target exceeds
	// MaxDecodeTarget.
	ErrTooLarge = errors.New("delta: declared target exceeds decode limit")
)

// MaxDecodeTarget bounds the output size Decode will produce, protecting
// against decompression bombs in corrupt or hostile streams. The default
// comfortably covers this library's checkpoints (full images are ≤ tens of
// MiB); raise it for larger payloads.
var MaxDecodeTarget uint64 = 1 << 28

// weakHash is a rolling Adler-style checksum over a fixed window.
type weakHash struct {
	a, b uint32
	n    uint32
}

func newWeakHash(window []byte) weakHash {
	// Unrolled 8-wide: with s = Σ c_i and t = Σ i·c_i the checksum halves
	// are a = s and b = n·s − t, so the loop reduces to two running sums
	// whose per-chunk weights are compile-time constants — no per-byte
	// multiply, and the eight loads per iteration vectorize.
	var s, t uint32
	i := 0
	for ; i+8 <= len(window); i += 8 {
		w := window[i : i+8 : i+8]
		c0, c1, c2, c3 := uint32(w[0]), uint32(w[1]), uint32(w[2]), uint32(w[3])
		c4, c5, c6, c7 := uint32(w[4]), uint32(w[5]), uint32(w[6]), uint32(w[7])
		cs := c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7
		t += uint32(i)*cs + c1 + 2*c2 + 3*c3 + 4*c4 + 5*c5 + 6*c6 + 7*c7
		s += cs
	}
	for ; i < len(window); i++ {
		c := uint32(window[i])
		s += c
		t += uint32(i) * c
	}
	n := uint32(len(window))
	return weakHash{a: s, b: n*s - t, n: n}
}

// roll returns h slid one byte: out leaves the window, in enters.
func (h weakHash) roll(out, in byte) weakHash {
	h.a += uint32(in) - uint32(out)
	h.b += h.a - h.n*uint32(out)
	return h
}

func (h weakHash) sum() uint32 { return (h.b&0xffff)<<16 | (h.a & 0xffff) }

// strongHash is a word-at-a-time FNV-style hash: eight bytes enter the
// multiply chain per step instead of one, followed by a finalizer that
// mixes word-level structure back across the lanes. Collision quality only
// needs to be good enough to pre-filter — candidate blocks are confirmed by
// byte comparison before they are used — and the encoder's output depends
// only on that byte comparison, so the hash function is free to change
// without affecting the stream format.
func strongHash(p []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for len(p) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(p)) * prime
		p = p[8:]
	}
	for _, c := range p {
		h = (h ^ uint64(c)) * prime
	}
	// splitmix64-style avalanche: word-wide XORs above leave low bytes
	// correlated; two shift-xor-multiply rounds spread them.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h
}

// Encoder is a reusable delta encoder: it owns the weak-hash source index
// and the output scratch buffer, so repeated encodes — the per-page hot
// loop of the page-aligned wrapper — stop allocating once warm. The zero
// value is ready to use. An Encoder is not safe for concurrent use; draw
// one per goroutine from GetEncoder/PutEncoder instead.
//
// The index maps each weak hash to its lowest-offset source block, and
// each block links to the next block of the same hash, so a chain ascends
// in offset and match selection is deterministic. A presence filter stands
// in front of the map: a rewritten page, whose every probe misses, pays a
// bit test per byte instead of a map lookup.
type Encoder struct {
	heads  map[uint32]int32 // weak hash → first block of its chain
	filter presence         // every weak hash in heads
	chain  []chainEntry     // entry i is the source block at i·blockSize
	buf    []byte           // output scratch for Encode
}

// chainEntry is one indexed source block: its strong hash and the next
// block with the same weak hash (-1 ends the chain).
type chainEntry struct {
	strong uint64
	next   int32
}

// presence is a filter over a set of weak hashes with no false negatives:
// a clear bit proves a hash absent, a set bit only says it may be present.
// A hash picks its bit by a multiplicative mix, since the hash's low half
// is a byte sum whose values cluster, and the product's top bits depend on
// every input bit.
type presence struct {
	bits  []uint64
	shift uint // a hash's bit is w·presenceMul >> shift
}

const (
	presenceMul         = 0x9E3779B1 // the mix: 2^32 over the golden ratio
	presenceBitsPerHash = 32         // at most one absent hash in 32 finds its bit set
)

// reset empties the filter and sizes it for n hashes: the power of two of
// at least presenceBitsPerHash·n bits, and one word at least. It reuses
// the bits of earlier sizes.
func (p *presence) reset(n int) {
	logBits := min(32, max(6, bits.Len(uint(max(n, 1)*presenceBitsPerHash-1))))
	p.shift = uint(32 - logBits)
	words := 1 << (logBits - 6)
	p.bits = slices.Grow(p.bits[:0], words)[:words]
	clear(p.bits)
}

// bit is the filter bit of weak hash w. The mask changes nothing (shift
// is at most 26); it spares the compiler the case of a shift past 31.
func (p presence) bit(w uint32) uint32 { return w * presenceMul >> (p.shift & 31) }

func (p *presence) add(w uint32) {
	i := p.bit(w)
	p.bits[i/64] |= 1 << (i % 64)
}

// mayHold reports whether w may have been added: false means it was not.
func (p presence) mayHold(w uint32) bool {
	i := p.bit(w)
	return p.bits[i/64]&(1<<(i%64)) != 0
}

// encoderPool recycles Encoders across pages and goroutines; the parallel
// page-aligned encoder draws one per worker.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled Encoder for burst use; return it with
// PutEncoder when done.
func GetEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// PutEncoder returns an Encoder to the pool. Buffers previously returned by
// its Encode method must no longer be referenced.
func PutEncoder(e *Encoder) { encoderPool.Put(e) }

// indexSource (re)builds the weak-hash index over source blocks, reusing
// the map, filter and candidate arena of previous encodes. Blocks are
// walked from last to first and each is prepended to its hash's chain, so
// a head is its hash's lowest offset and every chain ascends.
func (e *Encoder) indexSource(source []byte, blockSize int) {
	n := len(source) / blockSize
	if e.heads == nil {
		e.heads = make(map[uint32]int32, n+1)
	} else {
		clear(e.heads)
	}
	e.filter.reset(n)
	e.chain = slices.Grow(e.chain[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		blk := source[i*blockSize : (i+1)*blockSize]
		w := newWeakHash(blk).sum()
		next, ok := e.heads[w]
		if !ok {
			next = -1
		}
		e.chain[i] = chainEntry{strong: strongHash(blk), next: next}
		e.heads[w] = int32(i)
		e.filter.add(w)
	}
}

// Encode produces a delta that reconstructs target from source. blockSize
// ≤ 0 selects DefaultBlockSize. The stream begins with the target length so
// Decode can pre-allocate and validate.
func Encode(source, target []byte, blockSize int) []byte {
	e := GetEncoder()
	out := append([]byte(nil), e.Encode(source, target, blockSize)...)
	PutEncoder(e)
	return out
}

// Encode produces the delta into the Encoder's internal buffer and returns
// it. The returned slice is valid only until the next call on this Encoder;
// callers that keep the stream must copy it (or use AppendEncode).
func (e *Encoder) Encode(source, target []byte, blockSize int) []byte {
	e.buf = e.AppendEncode(e.buf[:0], source, target, blockSize)
	return e.buf
}

// AppendEncode appends the delta stream reconstructing target from source
// to dst and returns the extended slice. It is the allocation-free core of
// Encode: byte-for-byte the same stream, without fresh output buffers or a
// fresh source index per call.
func (e *Encoder) AppendEncode(dst, source, target []byte, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	out := binary.AppendUvarint(dst, uint64(len(target)))
	if len(target) == 0 {
		return append(out, opEnd)
	}
	e.indexSource(source, blockSize)
	out = e.appendMatched(out, source, target, 0, blockSize)
	return append(out, opEnd)
}

// appendMatched appends the instructions rebuilding target[lo:] from source:
// a rolling weak hash over the span finds candidate source blocks in the
// index (built by indexSource over the same source and blockSize), matches
// extend forward and backward byte-exactly within the span, and what no
// match covers becomes literals. It is the one match loop behind both the
// general encoder (the whole target) and the aligned fast path (one long
// differing span, target cut at the span's end).
func (e *Encoder) appendMatched(out, source, target []byte, lo, blockSize int) []byte {
	pos, litStart := lo, lo
	if len(e.chain) > 0 && len(target)-lo >= blockSize {
		h := newWeakHash(target[pos : pos+blockSize])
		for pos+blockSize <= len(target) {
			pos, h = e.skipAbsent(h, target, pos, blockSize)
			match := -1
			if head, ok := e.heads[h.sum()]; ok {
				win := target[pos : pos+blockSize]
				sh := strongHash(win)
				for id := head; id >= 0; id = e.chain[id].next {
					off := int(id) * blockSize
					if e.chain[id].strong == sh && bytes.Equal(source[off:off+blockSize], win) {
						match = off
						break
					}
				}
			}
			if match < 0 {
				if pos+blockSize < len(target) {
					h = h.roll(target[pos], target[pos+blockSize])
				}
				pos++
				continue
			}
			// Extend the match forward beyond the block, and backward into
			// the pending literal (matches rarely begin exactly on a block
			// boundary).
			length := blockSize + commonPrefixLen(target[pos+blockSize:], source[match+blockSize:])
			back := 0
			for pos-back > litStart && match-back > 0 &&
				target[pos-back-1] == source[match-back-1] {
				back++
			}
			out = appendLiteral(out, target[litStart:pos-back])
			out = appendCopy(out, match-back, length+back)
			pos += length
			litStart = pos
			if pos+blockSize <= len(target) {
				h = newWeakHash(target[pos : pos+blockSize])
			}
		}
	}
	return appendLiteral(out, target[litStart:])
}

// skipAbsent rolls h, the weak hash of the window at pos, forward over
// target for as long as the filter proves no source block has the
// window's hash, and returns the window it stopped at and its hash: the
// first window that may match, or the last window, which the caller
// probes in full. It is appendMatched's miss path, kept apart so that its
// state stays in registers.
func (e *Encoder) skipAbsent(h weakHash, target []byte, pos, blockSize int) (int, weakHash) {
	for filter := e.filter; pos+blockSize < len(target) && !filter.mayHold(h.sum()); pos++ {
		h = h.roll(target[pos], target[pos+blockSize])
	}
	return pos, h
}

func appendCopy(out []byte, offset, length int) []byte {
	out = append(out, opCopy)
	out = binary.AppendUvarint(out, uint64(offset))
	return binary.AppendUvarint(out, uint64(length))
}

// appendLiteral emits lit, splitting literal stretches around long
// same-byte runs and coding the runs with opRun (zeroed or constant-filled
// regions are common in freshly allocated pages).
//
// The scan skips a word at a time: a run of runThreshold bytes starting
// anywhere in [i, k], k = i+runThreshold-8, covers the whole word at k, so
// when that word holds two byte values no such run starts there and the
// scan resumes at k+1. A run straddling k+1 started in [i, k] (the scan
// never leaves a long run straddling i), so it is short, and the
// byte-at-a-time step from k+1 sees only its shorter tail: the runs
// emitted are exactly the maximal ones of runThreshold or more.
func appendLiteral(out, lit []byte) []byte {
	start := 0
	i := 0
	for i < len(lit) {
		if k := i + runThreshold - 8; k+8 <= len(lit) {
			if w := binary.LittleEndian.Uint64(lit[k:]); w != bits.RotateLeft64(w, 8) {
				i = k + 1
				continue
			}
		}
		j := i + 1
		for j < len(lit) && lit[j] == lit[i] {
			j++
		}
		if j-i >= runThreshold {
			out = appendPlain(out, lit[start:i])
			out = append(out, opRun)
			out = binary.AppendUvarint(out, uint64(j-i))
			out = append(out, lit[i])
			start = j
		}
		i = j
	}
	return appendPlain(out, lit[start:])
}

func appendPlain(out, lit []byte) []byte {
	if len(lit) == 0 {
		return out
	}
	out = append(out, opAdd)
	out = binary.AppendUvarint(out, uint64(len(lit)))
	return append(out, lit...)
}

// commonPrefixLen returns the length of the longest common prefix of a and
// b, comparing eight bytes per step; the first differing word pinpoints the
// mismatch via its trailing zero bits. It drives forward match extension,
// where matches regularly run hundreds of bytes past the seed block.
func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < n; i++ {
		if a[i] != b[i] {
			break
		}
	}
	return i
}

// diffPrefixLen returns the length of the longest prefix over which a and b
// differ at every byte — the counterpart of commonPrefixLen. Eight bytes are
// XORed per step; the first zero byte of the XOR, the first equal byte, is
// found with the classic has-zero-byte bit trick, whose lowest flagged byte
// is always exact.
func diffPrefixLen(a, b []byte) int {
	const lows, highs = 0x0101010101010101, 0x8080808080808080
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if z := (x - lows) &^ x & highs; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for ; i < n; i++ {
		if a[i] == b[i] {
			break
		}
	}
	return i
}

// Decode reconstructs the target from source and a delta stream produced by
// Encode. It validates all offsets and the declared target length.
func Decode(source, delta []byte) ([]byte, error) { return decodeInto(nil, source, delta) }

// decodeInto is Decode writing the target into dst's backing array when the
// declared length fits its capacity, and into a new buffer otherwise. It
// never reads dst, so dst may hold anything, but it must not overlap
// source: a COPY op reads source while the output is being written.
func decodeInto(dst, source, delta []byte) ([]byte, error) {
	targetLen, n := binary.Uvarint(delta)
	if n <= 0 {
		return nil, fmt.Errorf("%w: missing target length", ErrCorrupt)
	}
	delta = delta[n:]
	if targetLen > MaxDecodeTarget {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, targetLen, MaxDecodeTarget)
	}
	out := dst[:0]
	if out == nil || uint64(cap(out)) < targetLen { // Decode returns a non-nil slice, even when empty
		// Cap the pre-allocation: a corrupt header must not drive a huge
		// allocation before validation fails.
		out = make([]byte, 0, min(targetLen, 1<<20))
	}
	for {
		if len(delta) == 0 {
			return nil, fmt.Errorf("%w: missing end marker", ErrCorrupt)
		}
		if uint64(len(out)) > targetLen {
			return nil, fmt.Errorf("%w: output exceeds declared length %d", ErrCorrupt, targetLen)
		}
		op := delta[0]
		delta = delta[1:]
		switch op {
		case opEnd:
			if uint64(len(out)) != targetLen {
				return nil, fmt.Errorf("%w: declared length %d, decoded %d", ErrCorrupt, targetLen, len(out))
			}
			return out, nil
		case opCopy:
			off, n := binary.Uvarint(delta)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad copy offset", ErrCorrupt)
			}
			delta = delta[n:]
			length, n := binary.Uvarint(delta)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad copy length", ErrCorrupt)
			}
			delta = delta[n:]
			end := off + length
			if end < off || end > uint64(len(source)) {
				return nil, fmt.Errorf("%w: copy [%d,%d) outside source of %d", ErrCorrupt, off, end, len(source))
			}
			if length > targetLen-uint64(len(out)) {
				return nil, fmt.Errorf("%w: copy overruns declared length %d", ErrCorrupt, targetLen)
			}
			out = append(out, source[off:end]...)
		case opAdd:
			length, n := binary.Uvarint(delta)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad add length", ErrCorrupt)
			}
			delta = delta[n:]
			if length > uint64(len(delta)) {
				return nil, fmt.Errorf("%w: add of %d exceeds stream", ErrCorrupt, length)
			}
			if length > targetLen-uint64(len(out)) {
				return nil, fmt.Errorf("%w: add overruns declared length %d", ErrCorrupt, targetLen)
			}
			out = append(out, delta[:length]...)
			delta = delta[length:]
		case opRun:
			length, n := binary.Uvarint(delta)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad run length", ErrCorrupt)
			}
			delta = delta[n:]
			if len(delta) == 0 {
				return nil, fmt.Errorf("%w: missing run value", ErrCorrupt)
			}
			if length > targetLen-uint64(len(out)) {
				return nil, fmt.Errorf("%w: run of %d exceeds target %d", ErrCorrupt, length, targetLen)
			}
			v := delta[0]
			delta = delta[1:]
			for k := uint64(0); k < length; k++ {
				out = append(out, v)
			}
		default:
			return nil, fmt.Errorf("%w: unknown opcode %#x", ErrCorrupt, op)
		}
	}
}

// EncodeXOR is the simple baseline used by earlier incremental-checkpoint
// compression (Plank's compressed differences): XOR the equal-length images
// and run-length encode the zero runs. The stream alternates
// (zero-run-length, literal-length, literal XOR bytes).
func EncodeXOR(source, target []byte) ([]byte, error) {
	if len(source) != len(target) {
		return nil, ErrLengthMismatch
	}
	out := make([]byte, 0, 16)
	out = binary.AppendUvarint(out, uint64(len(target)))
	i := 0
	for i < len(target) {
		zs := i
		for i < len(target) && source[i] == target[i] {
			i++
		}
		out = binary.AppendUvarint(out, uint64(i-zs))
		ls := i
		for i < len(target) && source[i] != target[i] {
			i++
		}
		out = binary.AppendUvarint(out, uint64(i-ls))
		for j := ls; j < i; j++ {
			out = append(out, source[j]^target[j])
		}
	}
	return out, nil
}

// decodeXORInto reverses EncodeXOR given the same source image, writing
// the target into dst's backing array when it fits, as decodeInto does;
// dst must not overlap source.
func decodeXORInto(dst, source, stream []byte) ([]byte, error) {
	total, n := binary.Uvarint(stream)
	if n <= 0 {
		return nil, fmt.Errorf("%w: missing length", ErrCorrupt)
	}
	if total != uint64(len(source)) {
		return nil, ErrLengthMismatch
	}
	stream = stream[n:]
	out := dst[:0]
	if out == nil || uint64(cap(out)) < total {
		out = make([]byte, 0, total)
	}
	for uint64(len(out)) < total {
		zrun, n := binary.Uvarint(stream)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad zero run", ErrCorrupt)
		}
		stream = stream[n:]
		if uint64(len(out))+zrun > total {
			return nil, fmt.Errorf("%w: zero run overflows", ErrCorrupt)
		}
		out = append(out, source[len(out):uint64(len(out))+zrun]...)
		lrun, n := binary.Uvarint(stream)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad literal run", ErrCorrupt)
		}
		stream = stream[n:]
		if lrun > uint64(len(stream)) || uint64(len(out))+lrun > total {
			return nil, fmt.Errorf("%w: literal run overflows", ErrCorrupt)
		}
		for j := uint64(0); j < lrun; j++ {
			out = append(out, source[len(out)]^stream[j])
		}
		stream = stream[lrun:]
	}
	return out, nil
}
