package delta

import (
	"bytes"
	"fmt"
	"testing"

	"aic/internal/numeric"
)

// alignedShape is one old/new page pair for the aligned fast path. inPlace
// marks edits that keep every byte at its offset, where the fast path must
// never lose to the general encoder.
type alignedShape struct {
	name     string
	old, new []byte
	inPlace  bool
}

func randomPage(rng *numeric.RNG) []byte {
	p := make([]byte, testPageSize)
	rng.Bytes(p)
	return p
}

// editInPlace overwrites n random spans of width bytes, as the end-to-end
// benchmark's hot pages are edited every interval.
func editInPlace(rng *numeric.RNG, old []byte, n, width int) []byte {
	out := append([]byte(nil), old...)
	for k := 0; k < n; k++ {
		rng.Bytes(out[rng.Intn(len(out)-width):][:width])
	}
	return out
}

// insertAt shifts old right by len(ins) from off on, keeping the page size.
func insertAt(old []byte, off int, ins []byte) []byte {
	out := append(append(append([]byte(nil), old[:off]...), ins...), old[off:]...)
	return out[:len(old)]
}

func alignedShapes() []alignedShape {
	rng := numeric.NewRNG(25)
	var shapes []alignedShape
	for s := 0; s < 8; s++ {
		old := randomPage(rng)
		shapes = append(shapes, alignedShape{
			name: fmt.Sprintf("in-place-4x64B/%d", s), old: old, new: editInPlace(rng, old, 4, 64), inPlace: true,
		})
	}
	for _, k := range []int{1, 7, 63, 300} {
		ins := make([]byte, k)
		rng.Bytes(ins)
		old := randomPage(rng)
		shapes = append(shapes,
			alignedShape{name: fmt.Sprintf("insert-head/k=%d", k), old: old, new: insertAt(old, 100, ins)},
			alignedShape{name: fmt.Sprintf("insert-tail/k=%d", k), old: old, new: insertAt(old, testPageSize-500, ins)},
		)
	}
	old := randomPage(rng)
	shapes = append(shapes, alignedShape{
		name: "swapped-halves", old: old,
		new: append(append([]byte(nil), old[testPageSize/2:]...), old[:testPageSize/2]...),
	})
	old = randomPage(rng)
	flipped := append([]byte(nil), old...)
	for k := 0; k < 12; k++ {
		flipped[rng.Intn(testPageSize)] ^= 1 << rng.Intn(8)
	}
	shapes = append(shapes, alignedShape{name: "sparse-bit-flips", old: old, new: flipped})
	zero := make([]byte, testPageSize)
	shapes = append(shapes, alignedShape{name: "zero-page-one-64B-edit", old: zero, new: editInPlace(rng, zero, 1, 64)})
	shapes = append(shapes, alignedShape{name: "total-rewrite", old: randomPage(rng), new: randomPage(rng)})
	return shapes
}

// TestAlignedFastPathShapes pins the fast path against the general encoder
// on the page shapes that matter: it must decode byte-exactly everywhere,
// never lose on in-place edits, and elsewhere cost at most the two bytes an
// absolute copy offset can add over the general path's match to an earlier
// identical block.
func TestAlignedFastPathShapes(t *testing.T) {
	var e Encoder
	for _, s := range alignedShapes() {
		t.Run(s.name, func(t *testing.T) {
			fast := append([]byte(nil), e.encodeAligned(s.old, s.new, DefaultBlockSize)...)
			general := Encode(s.old, s.new, DefaultBlockSize)
			got, err := Decode(s.old, fast)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, s.new) {
				t.Fatal("fast-path stream does not decode to the new page")
			}
			slack := 2
			if s.inPlace {
				slack = 0
			}
			if len(fast) > len(general)+slack {
				t.Fatalf("fast path %d B, general encoder %d B (slack %d)", len(fast), len(general), slack)
			}
			t.Logf("fast %d B, general %d B", len(fast), len(general))
		})
	}
}

// TestAlignedFastPathReusedEncoderAllocs: a warm Encoder takes the fast
// path without allocating, also on a page whose long differing span builds
// the source index.
func TestAlignedFastPathReusedEncoderAllocs(t *testing.T) {
	rng := numeric.NewRNG(26)
	old := randomPage(rng)
	edited := editInPlace(rng, old, 4, 64)
	ins := make([]byte, 7)
	rng.Bytes(ins)
	inserted := insertAt(old, 100, ins)
	var e Encoder
	for _, pg := range []struct {
		name string
		new  []byte
	}{{"in-place", edited}, {"lazy-index", inserted}} {
		e.encodeAligned(old, pg.new, DefaultBlockSize) // warm
		if n := testing.AllocsPerRun(50, func() { e.encodeAligned(old, pg.new, DefaultBlockSize) }); n != 0 {
			t.Errorf("%s: %v allocs per fast-path encode, want 0", pg.name, n)
		}
	}
}

// TestDiffPrefixLen checks the word-at-a-time has-zero-byte scan against a
// byte loop, on XOR patterns that stress its borrow chain (0x01 and 0x80
// next to equal bytes) across word boundaries.
func TestDiffPrefixLen(t *testing.T) {
	rng := numeric.NewRNG(27)
	patterns := []byte{0x01, 0x80, 0x81, 0xff}
	for iter := 0; iter < 5000; iter++ {
		a := make([]byte, rng.Intn(40))
		rng.Bytes(a)
		b := append([]byte(nil), a...)
		for i := range b {
			if rng.Intn(8) > 0 { // else the byte stays equal
				b[i] ^= patterns[rng.Intn(len(patterns))]
			}
		}
		want := 0
		for want < len(a) && a[want] != b[want] {
			want++
		}
		if got := diffPrefixLen(a, b); got != want {
			t.Fatalf("diffPrefixLen(%x, %x) = %d, want %d", a, b, got, want)
		}
	}
}
