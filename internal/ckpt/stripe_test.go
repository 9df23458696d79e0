package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/numeric"
)

func TestStripeRoundTrip(t *testing.T) {
	obj := bytes.Repeat([]byte("checkpoint bytes "), 100)
	man, parts, err := SplitStripes(7, obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts: %d", len(parts))
	}
	// Every frame passes the ordinary decoder (scrub compatibility) and
	// reports the labelled seq.
	for _, frame := range append([][]byte{man}, parts...) {
		if !IsStripe(frame) {
			t.Fatal("IsStripe false for a stripe frame")
		}
		if seq, err := PeekSeq(frame); err != nil || seq != 7 {
			t.Fatalf("PeekSeq = (%d, %v)", seq, err)
		}
		if _, err := Decode(frame); err != nil {
			t.Fatalf("Decode: %v", err)
		}
	}
	mf, err := DecodeStripe(man)
	if err != nil || !mf.Manifest || mf.Count != 3 {
		t.Fatalf("manifest: %+v, %v", mf, err)
	}
	// Reassembly accepts parts in any order.
	var sfs []*StripeFrame
	for _, i := range []int{2, 0, 1} {
		sf, err := DecodeStripe(parts[i])
		if err != nil || sf.Manifest || sf.Index != i {
			t.Fatalf("part %d: %+v, %v", i, sf, err)
		}
		sfs = append(sfs, sf)
	}
	got, err := ReassembleStripes(mf, sfs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("reassembled object differs")
	}
}

func TestStripeReassemblyRejectsDamage(t *testing.T) {
	obj := bytes.Repeat([]byte{0xAB}, 1000)
	man, parts, err := SplitStripes(1, obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	mf, _ := DecodeStripe(man)
	p0, _ := DecodeStripe(parts[0])
	p1, _ := DecodeStripe(parts[1])
	if _, err := ReassembleStripes(mf, []*StripeFrame{p0}); err == nil {
		t.Fatal("missing stripe accepted")
	}
	if _, err := ReassembleStripes(mf, []*StripeFrame{p0, p0}); err == nil {
		t.Fatal("duplicate stripe accepted")
	}
	p1.Part = append([]byte{0xFF}, p1.Part[1:]...)
	if _, err := ReassembleStripes(mf, []*StripeFrame{p0, p1}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("tampered stripe: %v, want ErrChecksum", err)
	}
}

// TestStripeNotReplayable pins the Restore boundary: stripe frames decode
// (scrub sees intact elements) but never replay as process state.
func TestStripeNotReplayable(t *testing.T) {
	man, parts, err := SplitStripes(0, bytes.Repeat([]byte{1}, 64), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range append([][]byte{man}, parts...) {
		c, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore([]*Checkpoint{c}); err == nil {
			t.Fatal("stripe frame replayed as a checkpoint")
		}
	}
}

// fullFrame encodes a full checkpoint at seq 5 of four 512-byte pages
// filled with fill: frames of different fills have the same size.
func fullFrame(fill byte) []byte {
	as := memsim.New(512)
	for i := uint64(0); i < 4; i++ {
		as.Write(i, 0, bytes.Repeat([]byte{fill + byte(i)}, 512), 0)
	}
	c := NewBuilder(512, 0, 16).FullCheckpoint(as)
	c.Seq = 5
	return c.Encode()
}

// decodeSet decodes a manifest and its parts, failing the test on error.
func decodeSet(t *testing.T, man []byte, parts [][]byte) (*StripeFrame, []*StripeFrame) {
	t.Helper()
	mf, err := DecodeStripe(man)
	if err != nil {
		t.Fatal(err)
	}
	sfs := make([]*StripeFrame, len(parts))
	for i, p := range parts {
		if sfs[i], err = DecodeStripe(p); err != nil {
			t.Fatal(err)
		}
	}
	return mf, sfs
}

func TestDecodeStripedMatchesDecode(t *testing.T) {
	frame := fullFrame(1)
	man, parts, err := SplitStripes(5, frame, 3)
	if err != nil {
		t.Fatal(err)
	}
	mf, sfs := decodeSet(t, man, parts)
	c, err := DecodeStriped(mf, []*StripeFrame{sfs[1], sfs[2], sfs[0]})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Encode(), frame) || c.Seq != want.Seq || c.Kind != want.Kind ||
		!bytes.Equal(c.CPUState, want.CPUState) || c.Size() != want.Size() || c.Payload != nil {
		t.Fatal("DecodeStriped differs from Decode of the unstriped frame")
	}
	var joined []byte
	for _, span := range c.spans {
		joined = append(joined, span...)
		if !aliasesAny(span, parts) {
			t.Fatal("the payload does not alias the stripe parts")
		}
	}
	if !bytes.Equal(joined, want.Payload) {
		t.Fatal("the payload spans differ from Decode's payload")
	}
}

// aliasesAny reports whether b lies inside one of frames.
func aliasesAny(b []byte, frames [][]byte) bool {
	for _, f := range frames {
		for k := range f {
			if &f[k] == &b[0] {
				return k+len(b) <= len(f)
			}
		}
	}
	return false
}

// TestDecodeStripedRejects: stripe sets whose every part is a well-formed
// frame, which the one-pass reassembly must still refuse.
func TestDecodeStripedRejects(t *testing.T) {
	a, b := fullFrame(1), fullFrame(101)
	if len(a) != len(b) || bytes.Equal(a, b) {
		t.Fatal("want two different frames of one size")
	}
	resplit := func(obj []byte, sum uint32) ([]byte, [][]byte) {
		per := (len(obj) + 1) / 2
		return EncodeStripeManifest(5, 2, int64(len(obj)), sum), [][]byte{
			EncodeStripePart(5, 0, 2, int64(len(obj)), sum, obj[:per]),
			EncodeStripePart(5, 1, 2, int64(len(obj)), sum, obj[per:]),
		}
	}
	aMan, aParts, err := SplitStripes(5, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, bParts, err := SplitStripes(5, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	residue := crc32.Checksum(a, crcTable)
	if residue != crc32.Checksum(b, crcTable) {
		t.Fatal("the CRC-32C of a frame ending in its own CRC-32C should be one residue")
	}
	flipped := bytes.Clone(a)
	flipped[len(flipped)/2+3] ^= 0x10
	mixed := append(bytes.Clone(a[:(len(a)+1)/2]), b[(len(b)+1)/2:]...)
	fMan, fParts := resplit(flipped, residue)
	sMan, sParts := resplit(a, residue^1)
	hMan, hParts := resplit(mixed, crc32.Checksum(mixed, crcTable))

	rows := []struct {
		name        string
		man         []byte
		parts       [][]byte
		want        error
		reassembles bool // ReassembleStripes, which checks only Sum, accepts it
	}{
		// Part 1's payload byte flipped, its part CRC recomputed: the part
		// decodes, the object does not.
		{"flipped payload, part CRC recomputed", fMan, fParts, ErrChecksum, false},
		// Every part agrees with the manifest, and all carry a wrong Sum.
		{"manifest Sum disagrees with the parts' bytes", sMan, sParts, ErrChecksum, false},
		// The manifest alone carries a different Sum.
		{"manifest Sum disagrees with the parts' Sum", EncodeStripeManifest(5, 2, int64(len(a)), residue^1), aParts, ErrBadCheckpoint, false},
		// Two same-size frames of one seq share Total and Sum (the residue),
		// so the parts pass every geometry check.
		{"mixed from two frames", aMan, [][]byte{aParts[0], bParts[1]}, ErrChecksum, false},
		// The same mix under a manifest whose Sum was computed over the mix:
		// Sum passes, so only the frame trailer catches it.
		{"mixed from two frames, Sum over the mix", hMan, hParts, ErrChecksum, true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			mf, sfs := decodeSet(t, r.man, r.parts)
			if _, err := DecodeStriped(mf, sfs); !errors.Is(err, r.want) {
				t.Fatalf("DecodeStriped: %v, want %v", err, r.want)
			}
			if _, err := ReassembleStripes(mf, sfs); (err == nil) != r.reassembles {
				t.Fatalf("ReassembleStripes: %v, want accepted = %v", err, r.reassembles)
			}
		})
	}
}

// TestDecodeStripeBounds pins DecodeStripe's geometry rules: a Count no
// larger than the object's Total (SplitStripes refuses a larger one) and no
// larger than maxStripes, whatever the frame's CRC says.
func TestDecodeStripeBounds(t *testing.T) {
	part := []byte("0123456789")
	rows := []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"manifest, count = total", EncodeStripeManifest(1, 10, 10, 0), true},
		{"manifest, count = maxStripes", EncodeStripeManifest(1, maxStripes, 1<<20, 0), true},
		{"part, last index", EncodeStripePart(1, 9, 10, 10, 0, part), true},
		{"manifest, count 0", EncodeStripeManifest(1, 0, 10, 0), false},
		{"manifest, count > total", EncodeStripeManifest(1, 11, 10, 0), false},
		{"manifest, count = maxStripes+1", EncodeStripeManifest(1, maxStripes+1, 1<<20, 0), false},
		{"manifest, count 1<<40", EncodeStripeManifest(1, 1<<40, 1<<41, 0), false},
		{"part, count > total", EncodeStripePart(1, 0, 11, 10, 0, part), false},
		{"part, count = maxStripes+1", EncodeStripePart(1, 0, maxStripes+1, 1<<20, 0, part), false},
		{"part, index = count", EncodeStripePart(1, 10, 10, 10, 0, part), false},
		{"manifest, total > MaxInt64", EncodeStripeManifest(1, 2, -1, 0), false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			sf, err := DecodeStripe(r.frame)
			if r.ok && err != nil {
				t.Fatalf("DecodeStripe: %v", err)
			}
			if !r.ok && !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("DecodeStripe = %+v, %v; want ErrBadCheckpoint", sf, err)
			}
		})
	}
	if _, _, err := SplitStripes(1, make([]byte, 2*maxStripes), maxStripes+1); err == nil {
		t.Fatal("SplitStripes wrote a stripe set DecodeStripe rejects")
	}
}

// cutTestFrames are small frames of every shape a restore replays — a full
// raw frame, a delta frame holding a raw, a delta and an XOR page, an empty
// payload, and a header with CPU state and a freed list — as the seq-1000
// elements that follow base, the full frame at seq 999. Seq 1000, page
// index 300 and freed index 200 are two-byte uvarints, so some cut splits
// each one.
func cutTestFrames() (base *Checkpoint, frames map[string][]byte) {
	const ps = 64
	as := memsim.New(ps)
	for i := uint64(0); i < 4; i++ {
		as.Write(i, 0, bytes.Repeat([]byte{byte(7*i + 1), byte(i)}, ps/2), 0)
	}
	b := NewBuilder(ps, 0, 5)
	full := b.FullCheckpoint(as)
	full = &Checkpoint{Seq: 999, Kind: Full, PageSize: ps, CPUState: full.CPUState, Payload: full.Payload}
	edited := func(i uint64) []byte {
		p := bytes.Clone(as.Page(i))
		p[10], p[11] = 0xEE, 0xEF
		return p
	}
	var stream []byte
	stream = binary.AppendUvarint(stream, 3)
	entry := func(enc []byte, mode byte) {
		if enc[0] != 1 || enc[2] != mode { // one page; its index is one byte
			panic(fmt.Sprintf("page coded as mode %d, want %d", enc[2], mode))
		}
		stream = append(stream, enc[1:]...)
	}
	entry(delta.EncodePageAlignedXOR([]delta.PageUpdate{{Index: 1, New: bytes.Repeat([]byte{9}, ps)}}), delta.PageRaw)
	enc, _ := delta.EncodePageAlignedParallelStats([]delta.PageUpdate{{Index: 2, Old: as.Page(2), New: edited(2)}}, 0, 1)
	entry(enc, delta.PageDelta)
	entry(delta.EncodePageAlignedXOR([]delta.PageUpdate{{Index: 3, Old: as.Page(3), New: edited(3)}}), delta.PageXOR)
	rawList := binary.AppendUvarint(binary.AppendUvarint([]byte{1}, 300), 0)
	rawList = append(rawList[:len(rawList)-1], bytes.Repeat([]byte{0x5A}, ps)...)
	frames = map[string][]byte{
		"full raw": full.Encode(),
		"raw, delta and XOR pages": (&Checkpoint{Seq: 1000, Kind: IncrementalDelta, PageSize: ps,
			CPUState: []byte("cpu"), Payload: stream}).Encode(),
		"empty payload": (&Checkpoint{Seq: 1000, Kind: Incremental, PageSize: ps}).Encode(),
		"CPU state and freed list": (&Checkpoint{Seq: 1000, Kind: Incremental, PageSize: ps,
			CPUState: bytes.Repeat([]byte("regs"), 5), Freed: []uint64{0, 200}, Payload: rawList}).Encode(),
	}
	return full, frames
}

// cutSet re-cuts obj at the given offsets into len(cuts)+1 stripe parts —
// the last ones empty when a cut reaches the end — and decodes them with
// their manifest.
func cutSet(obj []byte, cuts ...int) (*StripeFrame, []*StripeFrame, [][]byte) {
	n, sum := len(cuts)+1, crc32.Checksum(obj, crcTable)
	stored := make([][]byte, n)
	for i := range stored {
		lo, hi := 0, len(obj)
		if i > 0 {
			lo = cuts[i-1]
		}
		if i < len(cuts) {
			hi = cuts[i]
		}
		stored[i] = EncodeStripePart(7, i, n, int64(len(obj)), sum, obj[lo:hi])
	}
	man, err := DecodeStripe(EncodeStripeManifest(7, n, int64(len(obj)), sum))
	if err != nil {
		panic(err)
	}
	parts := make([]*StripeFrame, n)
	for i, p := range stored {
		if parts[i], err = DecodeStripe(p); err != nil {
			panic(err)
		}
	}
	return man, parts, stored
}

// replay restores c, after base unless c is a full checkpoint.
func replay(base, c *Checkpoint) (*memsim.AddressSpace, error) {
	if c.Kind == Full {
		return Restore([]*Checkpoint{c})
	}
	return Restore([]*Checkpoint{base, c})
}

// sameDecode reports how DecodeStriped's checkpoint got differs from
// Decode's want of the joined frame, replay after base included unless
// base is nil ("" if it does not).
func sameDecode(base, got, want *Checkpoint, frame []byte) string {
	switch {
	case got.Seq != want.Seq || got.Kind != want.Kind || got.PageSize != want.PageSize:
		return "header fields differ"
	case !bytes.Equal(got.CPUState, want.CPUState) || !slices.Equal(got.Freed, want.Freed):
		return "CPU state or freed list differs"
	case !bytes.Equal(got.Encode(), frame) || got.Size() != want.Size():
		return "encoding differs"
	case base == nil:
		return ""
	}
	gotAS, gotErr := replay(base, got)
	wantAS, wantErr := replay(base, want)
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("replay: %v, want %v", gotErr, wantErr)
	case gotErr == nil && !gotAS.Equal(wantAS):
		return "replayed image differs"
	}
	return ""
}

// TestDecodeStripedEveryCut re-cuts each of cutTestFrames at every byte
// offset into 2 parts and at every pair of offsets into 3, so that some cut
// splits every header uvarint, the CPU state, each page head and body and
// the trailer across a part boundary, and some leave a last part shorter
// than the 4-byte trailer. DecodeStriped and a replay must equal Decode
// and a replay of the joined frame. DecodeStriped reads no byte to check
// the object, so every 2-part cut is also checked to reject a flipped
// byte: in a stored part (its trailer fails), and in the object re-cut with
// fresh part trailers (the folded part CRCs fail). A StripeFrame that did
// not come from DecodeStripe is rejected too.
func TestDecodeStripedEveryCut(t *testing.T) {
	base, frames := cutTestFrames()
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			want, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			check := func(cuts ...int) {
				man, parts, _ := cutSet(frame, cuts...)
				got, err := DecodeStriped(man, parts)
				if err != nil {
					t.Fatalf("cuts %v: %v", cuts, err)
				}
				if diff := sameDecode(base, got, want, frame); diff != "" {
					t.Fatalf("cuts %v: %s", cuts, diff)
				}
			}
			for i := 0; i <= len(frame); i++ {
				check(i)
				for j := i; j <= len(frame); j++ {
					check(i, j)
				}
			}
			for i := 0; i <= len(frame); i++ {
				_, _, stored := cutSet(frame, i)
				for k, p := range stored {
					for at := range p {
						p[at] ^= 0x01
						_, err := DecodeStripe(p)
						p[at] ^= 0x01
						if err == nil {
							t.Fatalf("cut %d: part %d with byte %d flipped decodes", i, k, at)
						}
					}
				}
				for at := range frame {
					flipped := bytes.Clone(frame)
					flipped[at] ^= 0x01
					// Sum over the flipped object, so only the trailer
					// residue catches it; then the residue, as SplitStripes
					// writes for any frame.
					man, parts, _ := cutSet(flipped, i)
					if _, err := DecodeStriped(man, parts); !errors.Is(err, ErrChecksum) {
						t.Fatalf("cut %d: object with byte %d flipped decodes: %v", i, at, err)
					}
					man.Sum, parts[0].Sum, parts[1].Sum = frameResidue, frameResidue, frameResidue
					if _, err := DecodeStriped(man, parts); !errors.Is(err, ErrChecksum) {
						t.Fatalf("cut %d: object with byte %d flipped decodes under the residue Sum: %v", i, at, err)
					}
				}
			}
			man, parts, _ := cutSet(frame, len(frame)/2)
			forged := *parts[1]
			parts[1] = &StripeFrame{Seq: forged.Seq, Index: forged.Index, Count: forged.Count,
				Total: forged.Total, Sum: forged.Sum, Part: forged.Part}
			if _, err := DecodeStriped(man, parts); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("a StripeFrame not from DecodeStripe: %v, want ErrBadCheckpoint", err)
			}
		})
	}
}

// TestDecodeStripedAllocatesNoObjectBuffer guards the restore of a striped
// element against a reassembly copy: DecodeStriped allocates a few small
// slices, not the object, and DecodeStriped then Restore allocates the
// restored pages and bookkeeping, not a second object-sized buffer.
func TestDecodeStripedAllocatesNoObjectBuffer(t *testing.T) {
	const pages, ps = 256, 4096
	as := memsim.New(ps)
	idxs := make([]uint64, pages)
	for i := range idxs {
		idxs[i] = uint64(i)
	}
	writeRandomPages(as, numeric.NewRNG(35), idxs, 0)
	frame := NewBuilder(ps, 0, 64).FullCheckpoint(as).Encode()
	man, parts, _ := cutSet(frame, len(frame)/3, 2*len(frame)/3)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var c *Checkpoint
	if n := allocated(func() {
		var err error
		if c, err = DecodeStriped(man, parts); err != nil {
			t.Fatal(err)
		}
	}); n > 16<<10 {
		t.Errorf("DecodeStriped allocated %d bytes for a %d-byte object, want ≤ 16 KiB", n, len(frame))
	}
	if n := allocated(func() {
		got, err := Restore([]*Checkpoint{c})
		if err != nil || !got.Equal(as) {
			t.Fatalf("restore: %v", err)
		}
	}); n > pages*ps+256<<10 {
		t.Errorf("Restore from the parts allocated %d bytes for %d bytes of pages, want ≤ the pages + 256 KiB", n, pages*ps)
	}
}
