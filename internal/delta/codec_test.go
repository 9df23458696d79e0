package delta

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"aic/internal/numeric"
)

func TestEncodeDecodeRoundTripBasic(t *testing.T) {
	source := []byte("the quick brown fox jumps over the lazy dog, again and again and again")
	target := []byte("the quick brown cat jumps over the lazy dog, again and again and AGAIN")
	d := Encode(source, target, 8)
	got, err := Decode(source, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip failed:\n got %q\nwant %q", got, target)
	}
}

func TestEncodeIdenticalInputIsTiny(t *testing.T) {
	rng := numeric.NewRNG(1)
	data := make([]byte, 64*1024)
	rng.Bytes(data)
	d := Encode(data, data, DefaultBlockSize)
	if len(d) > 64 {
		t.Fatalf("delta of identical 64 KiB images is %d bytes", len(d))
	}
	got, err := Decode(data, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode mismatch")
	}
}

func TestEncodeUnrelatedInputNearTargetSize(t *testing.T) {
	rng := numeric.NewRNG(2)
	source := make([]byte, 16*1024)
	target := make([]byte, 16*1024)
	rng.Bytes(source)
	rng.Bytes(target)
	d := Encode(source, target, DefaultBlockSize)
	if len(d) < len(target) {
		t.Fatalf("random target compressed to %d < %d — impossible", len(d), len(target))
	}
	if len(d) > len(target)+len(target)/100+64 {
		t.Fatalf("overhead too large: %d for %d target", len(d), len(target))
	}
	got, err := Decode(source, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, target) {
		t.Fatal("decode mismatch")
	}
}

func TestEncodeSparseModification(t *testing.T) {
	// A page with a handful of modified bytes must compress drastically.
	rng := numeric.NewRNG(3)
	source := make([]byte, 4096)
	rng.Bytes(source)
	target := append([]byte(nil), source...)
	for _, off := range []int{100, 2000, 3905} {
		target[off] ^= 0xff
	}
	d := Encode(source, target, DefaultBlockSize)
	if len(d) > 600 {
		t.Fatalf("sparse modification produced %d-byte delta", len(d))
	}
	got, err := Decode(source, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, target) {
		t.Fatal("decode mismatch")
	}
}

func TestEncodeShiftedContent(t *testing.T) {
	// rsync-family codecs find matches at arbitrary offsets: content moved
	// by a non-block-multiple must still compress well.
	rng := numeric.NewRNG(4)
	source := make([]byte, 8192)
	rng.Bytes(source)
	target := append([]byte("odd-length-prefix:"), source...)
	d := Encode(source, target, DefaultBlockSize)
	if len(d) > 1024 {
		t.Fatalf("shifted content produced %d-byte delta", len(d))
	}
	got, err := Decode(source, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, target) {
		t.Fatal("decode mismatch")
	}
}

func TestEncodeEmptyCases(t *testing.T) {
	for _, tc := range []struct{ src, tgt []byte }{
		{nil, nil},
		{[]byte("abc"), nil},
		{nil, []byte("abc")},
		{[]byte("abc"), []byte("abc")},
	} {
		d := Encode(tc.src, tc.tgt, DefaultBlockSize)
		got, err := Decode(tc.src, d)
		if err != nil {
			t.Fatalf("src=%q tgt=%q: %v", tc.src, tc.tgt, err)
		}
		if !bytes.Equal(got, tc.tgt) && !(len(got) == 0 && len(tc.tgt) == 0) {
			t.Fatalf("src=%q tgt=%q: got %q", tc.src, tc.tgt, got)
		}
	}
}

func TestEncodeTargetShorterThanBlock(t *testing.T) {
	source := []byte("0123456789abcdef0123456789abcdef")
	target := []byte("xyz")
	d := Encode(source, target, 16)
	got, err := Decode(source, d)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("got %q err %v", got, err)
	}
}

// Property: Decode(source, Encode(source, target)) == target for arbitrary
// byte slices and block sizes.
func TestRoundTripProperty(t *testing.T) {
	f := func(source, target []byte, bsRaw uint8) bool {
		bs := int(bsRaw%128) + 1
		d := Encode(source, target, bs)
		got, err := Decode(source, d)
		if err != nil {
			return false
		}
		if len(got) == 0 && len(target) == 0 {
			return true
		}
		return bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: round trip over structured inputs (partially shared content),
// the regime the codec actually runs in.
func TestRoundTripSharedContentProperty(t *testing.T) {
	rng := numeric.NewRNG(5)
	f := func(seed uint32) bool {
		r := numeric.NewRNG(uint64(seed))
		n := 512 + r.Intn(8192)
		source := make([]byte, n)
		rng.Bytes(source)
		target := append([]byte(nil), source...)
		// Random splice edits.
		for e := 0; e < 1+r.Intn(5); e++ {
			off := r.Intn(len(target))
			span := r.Intn(len(target) - off)
			chunk := make([]byte, span)
			r.Bytes(chunk)
			copy(target[off:], chunk)
		}
		d := Encode(source, target, DefaultBlockSize)
		got, err := Decode(source, d)
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruptStreams(t *testing.T) {
	source := []byte("some source bytes for copy ops")
	cases := map[string][]byte{
		"empty":              {},
		"truncated header":   {0x80},
		"no end marker":      {0x05},
		"unknown opcode":     {0x00, 0xAA},
		"length mismatch":    {0x05, opEnd},
		"copy out of bounds": append([]byte{0x05, opCopy}, 0x63, 0x05, opEnd),
		"add beyond stream":  {0x05, opAdd, 0x7f, 0x01, opEnd},
	}
	for name, stream := range cases {
		if _, err := Decode(source, stream); err == nil {
			t.Fatalf("%s: corrupt stream accepted", name)
		}
	}
}

func TestDecodeFuzzResilience(t *testing.T) {
	// Randomly mutated valid streams must never panic; they either decode
	// (harmlessly) or return an error.
	rng := numeric.NewRNG(6)
	source := make([]byte, 2048)
	rng.Bytes(source)
	target := append([]byte(nil), source...)
	copy(target[512:], make([]byte, 64))
	valid := Encode(source, target, DefaultBlockSize)
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on mutated stream: %v", r)
				}
			}()
			_, _ = Decode(source, mut)
		}()
	}
}

func TestXORRoundTrip(t *testing.T) {
	rng := numeric.NewRNG(7)
	source := make([]byte, 4096)
	rng.Bytes(source)
	target := append([]byte(nil), source...)
	for _, off := range []int{0, 17, 4095} {
		target[off] ^= 0x55
	}
	stream, err := EncodeXOR(source, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) > 128 {
		t.Fatalf("XOR-RLE of 3 changed bytes is %d bytes", len(stream))
	}
	got, err := decodeXORInto(nil, source, stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, target) {
		t.Fatal("XOR round trip mismatch")
	}
}

func TestXORRoundTripProperty(t *testing.T) {
	f := func(source []byte, flips []uint16) bool {
		target := append([]byte(nil), source...)
		for _, fo := range flips {
			if len(target) == 0 {
				break
			}
			target[int(fo)%len(target)] ^= 0xA5
		}
		stream, err := EncodeXOR(source, target)
		if err != nil {
			return false
		}
		got, err := decodeXORInto(nil, source, stream)
		if err != nil {
			return false
		}
		return bytes.Equal(got, target) || (len(got) == 0 && len(target) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestXORLengthMismatch(t *testing.T) {
	if _, err := EncodeXOR([]byte("ab"), []byte("abc")); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := decodeXORInto(nil, []byte("ab"), []byte{0x05}); err == nil {
		t.Fatal("mismatched decode accepted")
	}
}

func TestBackwardExtensionImprovesAlignment(t *testing.T) {
	// A match starting mid-block: the backward extension must absorb the
	// aligned prefix into the COPY instead of emitting it as a literal.
	rng := numeric.NewRNG(42)
	source := make([]byte, 8192)
	rng.Bytes(source)
	// Target: first 10 bytes replaced, rest identical — the first block
	// boundary match begins at 64, but bytes 10..63 also match.
	target := append([]byte(nil), source...)
	chunk := make([]byte, 10)
	rng.Bytes(chunk)
	copy(target, chunk)
	d := Encode(source, target, 64)
	// With backward extension the literal is ~10 bytes + opcodes; without
	// it, at least a full block of literals leaks through.
	if len(d) > 64 {
		t.Fatalf("delta %d bytes; backward extension not effective", len(d))
	}
	got, err := Decode(source, d)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestRunLengthLiterals(t *testing.T) {
	// A target that is mostly a fresh zeroed region (no match in source):
	// the run coder must collapse it.
	rng := numeric.NewRNG(50)
	source := make([]byte, 4096)
	rng.Bytes(source)
	target := make([]byte, 4096) // all zeros, nothing matches source blocks
	d := Encode(source, target, DefaultBlockSize)
	if len(d) > 64 {
		t.Fatalf("zero page encoded in %d bytes", len(d))
	}
	got, err := Decode(source, d)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("round trip: %v", err)
	}
	// Mixed literal: random head, long constant tail.
	target2 := make([]byte, 4096)
	rng.Bytes(target2[:1024])
	for i := 1024; i < 4096; i++ {
		target2[i] = 0x7F
	}
	d2 := Encode(source, target2, DefaultBlockSize)
	if len(d2) > 1200 {
		t.Fatalf("mixed page encoded in %d bytes", len(d2))
	}
	got2, err := Decode(source, d2)
	if err != nil || !bytes.Equal(got2, target2) {
		t.Fatalf("mixed round trip: %v", err)
	}
}

func TestRunOpcodeCorruption(t *testing.T) {
	// Hand-built streams exercising opRun's validation.
	source := []byte{}
	// target length 5, run of 999999 exceeds it.
	bad := []byte{0x05, opRun, 0xBF, 0x84, 0x3D, 0xFF, opEnd}
	if _, err := Decode(source, bad); err == nil {
		t.Fatal("oversized run accepted")
	}
	// Missing run value byte.
	bad2 := []byte{0x05, opRun, 0x05}
	if _, err := Decode(source, bad2); err == nil {
		t.Fatal("truncated run accepted")
	}
}

func TestDecodeBombRejected(t *testing.T) {
	// A header declaring an absurd target must be rejected before any
	// large allocation (the fuzz-found decompression bomb).
	bomb := []byte{0xce, 0xce, 0xce, 0xce, 0xce, 0xce, 0x30, opRun, 0x96, 0xd8, 0x94, 0xda, 0x30}
	if _, err := Decode(nil, bomb); err == nil {
		t.Fatal("decompression bomb accepted")
	}
}
