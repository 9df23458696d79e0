package delta

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refEncoder is the codec's match machinery before the source index had a
// presence filter and before literals were scanned a word at a time: two
// maps (chain head and tail per weak hash) into a candidate arena linked in
// insertion order, a map probe at every target position, and a byte-at-a-
// time run scan. It is kept, unoptimized, as the reference the live encoder
// must match byte for byte.
type refEncoder struct {
	heads map[uint32]int32
	tails map[uint32]int32
	chain []refChainEntry
}

type refChainEntry struct {
	strong uint64
	offset int
	next   int32
}

func (e *refEncoder) indexSource(source []byte, blockSize int) {
	e.chain = e.chain[:0]
	e.heads = map[uint32]int32{}
	e.tails = map[uint32]int32{}
	for off := 0; off+blockSize <= len(source); off += blockSize {
		blk := source[off : off+blockSize]
		w := newWeakHash(blk).sum()
		id := int32(len(e.chain))
		e.chain = append(e.chain, refChainEntry{strong: strongHash(blk), offset: off, next: -1})
		if tail, ok := e.tails[w]; ok {
			e.chain[tail].next = id
		} else {
			e.heads[w] = id
		}
		e.tails[w] = id
	}
}

func (e *refEncoder) appendMatched(out, source, target []byte, lo, blockSize int) []byte {
	pos, litStart := lo, lo
	if len(e.chain) > 0 && len(target)-lo >= blockSize {
		h := newWeakHash(target[pos : pos+blockSize])
		for pos+blockSize <= len(target) {
			match := -1
			if head, ok := e.heads[h.sum()]; ok {
				win := target[pos : pos+blockSize]
				sh := strongHash(win)
				for id := head; id >= 0; id = e.chain[id].next {
					c := e.chain[id]
					if c.strong == sh && bytes.Equal(source[c.offset:c.offset+blockSize], win) {
						match = c.offset
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
			length := blockSize + commonPrefixLen(target[pos+blockSize:], source[match+blockSize:])
			back := 0
			for pos-back > litStart && match-back > 0 &&
				target[pos-back-1] == source[match-back-1] {
				back++
			}
			out = refAppendLiteral(out, target[litStart:pos-back])
			out = appendCopy(out, match-back, length+back)
			pos += length
			litStart = pos
			if pos+blockSize <= len(target) {
				h = newWeakHash(target[pos : pos+blockSize])
			}
		}
	}
	return refAppendLiteral(out, target[litStart:])
}

func refAppendLiteral(out, lit []byte) []byte {
	start := 0
	i := 0
	for i < len(lit) {
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

// encode is AppendEncode over the reference machinery.
func (e *refEncoder) encode(source, target []byte, blockSize int) []byte {
	out := binary.AppendUvarint(nil, uint64(len(target)))
	if len(target) == 0 {
		return append(out, opEnd)
	}
	e.indexSource(source, blockSize)
	out = e.appendMatched(out, source, target, 0, blockSize)
	return append(out, opEnd)
}

// encodeAligned is Encoder.encodeAligned over the reference machinery.
func (e *refEncoder) encodeAligned(source, target []byte, blockSize int) []byte {
	out := binary.AppendUvarint(nil, uint64(len(target)))
	indexed := false
	flush := func(lo, hi int) {
		if hi-lo < 2*blockSize {
			out = refAppendLiteral(out, target[lo:hi])
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
	return append(out, opEnd)
}

// FuzzEncodeMatchesReference derives a general pair (source, target) and an
// equal-length pair (source, target laid over source's prefix) from the
// fuzz input, and requires AppendEncode and encodeAligned to emit the
// reference encoder's bytes at the fuzzed block size. One Encoder serves
// every call, so a filter or arena left over from a larger source is
// exercised too.
func FuzzEncodeMatchesReference(f *testing.F) {
	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i * 131 >> 3)
	}
	shifted := append(append([]byte("inserted"), page[:200]...), page[300:]...)
	f.Add(page, shifted, uint8(15))
	f.Add(page, bytes.Repeat([]byte{0}, 300), uint8(7))
	f.Add(bytes.Repeat([]byte("ab"), 100), append(bytes.Repeat([]byte{9}, 25), bytes.Repeat([]byte("ab"), 60)...), uint8(3))
	f.Add([]byte{}, []byte("target only"), uint8(0))
	f.Add([]byte("source"), []byte{}, uint8(1))
	var e Encoder
	var ref refEncoder
	f.Fuzz(func(t *testing.T, src, tgt []byte, bsRaw uint8) {
		bs := int(bsRaw%64) + 1
		check := func(what string, got, want []byte) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s at block size %d: %d B stream differs from the reference's %d B", what, bs, len(got), len(want))
			}
		}
		check("AppendEncode", e.AppendEncode(nil, src, tgt, bs), ref.encode(src, tgt, bs))
		aligned := append(bytes.Clone(tgt[:min(len(tgt), len(src))]), src[min(len(tgt), len(src)):]...)
		check("encodeAligned", e.encodeAligned(src, aligned, bs), ref.encodeAligned(src, aligned, bs))
	})
}

// TestAppendLiteralRunBoundaries places a same-byte run one short of, at,
// and one past runThreshold after a lead-in of every length mod 8 — short
// and past one word skip — both inside the literal and ending it, among
// bytes that never repeat their neighbour. appendLiteral must emit the
// reference's bytes, with an opRun exactly when the run reaches
// runThreshold.
func TestAppendLiteralRunBoundaries(t *testing.T) {
	const fill = 0x5A
	mixed := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i%2 + 1)
		}
		return b
	}
	for _, n := range []int{runThreshold - 1, runThreshold, runThreshold + 1} {
		for _, lead := range []int{0, 1, 2, 3, 4, 5, 6, 7, 24, 25, 26, 27, 28, 29, 30, 31} {
			for _, trail := range []int{0, 16} {
				lit := append(append(mixed(lead), bytes.Repeat([]byte{fill}, n)...), mixed(trail)...)
				got, want := appendLiteral(nil, lit), refAppendLiteral(nil, lit)
				if !bytes.Equal(got, want) {
					t.Fatalf("run of %d at %d, %d B after: % x, reference % x", n, lead, trail, got, want)
				}
				if hasRun := bytes.Contains(got, []byte{opRun, byte(n), fill}); hasRun != (n >= runThreshold) {
					t.Fatalf("run of %d at %d, %d B after: opRun emitted = %v", n, lead, trail, hasRun)
				}
			}
		}
	}
}
