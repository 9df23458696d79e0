package ckpt

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"aic/internal/memsim"
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
	data, c, err := DecodeStriped(mf, []*StripeFrame{sfs[1], sfs[2], sfs[0]})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, frame) || c.Seq != want.Seq || c.Kind != want.Kind ||
		!bytes.Equal(c.CPUState, want.CPUState) || !bytes.Equal(c.Payload, want.Payload) {
		t.Fatal("DecodeStriped differs from Decode of the unstriped frame")
	}
	if !bytes.Equal(c.Payload, data[len(data)-4-len(c.Payload):len(data)-4]) || &c.Payload[0] != &data[len(data)-4-len(c.Payload)] {
		t.Fatal("the payload does not alias the reassembled frame")
	}
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
			if _, _, err := DecodeStriped(mf, sfs); !errors.Is(err, r.want) {
				t.Fatalf("DecodeStriped: %v, want %v", err, r.want)
			}
			if _, err := ReassembleStripes(mf, sfs); (err == nil) != r.reassembles {
				t.Fatalf("ReassembleStripes: %v, want accepted = %v", err, r.reassembles)
			}
		})
	}
}
