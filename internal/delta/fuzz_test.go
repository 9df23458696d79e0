package delta

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

func uvarintHead(stream []byte) (uint64, int) { return binary.Uvarint(stream) }

// Native fuzz targets: run as regression tests over the seed corpus in
// normal `go test`, and as coverage-guided fuzzers under `go test -fuzz`.

func FuzzDecode(f *testing.F) {
	source := []byte("seed source content 0123456789 seed source content")
	f.Add(source, Encode(source, source, 8))
	f.Add(source, Encode(source, []byte("unrelated"), 8))
	f.Add([]byte{}, []byte{0x00})
	f.Add(source, []byte{0x05, opRun, 0x05, 0xAA, opEnd})
	f.Fuzz(func(t *testing.T, src, stream []byte) {
		// Must never panic; errors are fine. A successful decode must match
		// the stream's declared target length exactly (Decode's contract),
		// which also bounds memory: run-length opcodes may legitimately
		// expand far beyond the stream size, but never beyond the header.
		out, err := Decode(src, stream)
		if err == nil {
			declared, n := uvarintHead(stream)
			if n <= 0 || uint64(len(out)) != declared {
				t.Fatalf("decoded %d bytes, header declares %d", len(out), declared)
			}
		}
		// Decoding into a garbage-filled buffer must agree on acceptance
		// and on every byte.
		into, ierr := decodeInto(garbage(len(src)), src, stream)
		if (err == nil) != (ierr == nil) || !bytes.Equal(out, into) {
			t.Fatalf("decodeInto disagrees with Decode: err=%v, into err=%v", err, ierr)
		}
	})
}

// garbage returns a buffer of n bytes that are not zero, so a decoder that
// read its output buffer before writing it would be caught.
func garbage(n int) []byte { return bytes.Repeat([]byte{0xE7}, n) }

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("source"), []byte("target"), uint8(8))
	f.Add([]byte(""), []byte("only target"), uint8(4))
	f.Add(bytes.Repeat([]byte{0}, 512), bytes.Repeat([]byte{0}, 512), uint8(64))
	f.Fuzz(func(t *testing.T, src, tgt []byte, bsRaw uint8) {
		bs := int(bsRaw%128) + 1
		stream := Encode(src, tgt, bs)
		got, err := Decode(src, stream)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !bytes.Equal(got, tgt) && !(len(got) == 0 && len(tgt) == 0) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(tgt))
		}
	})
}

// FuzzPageAlignedParallel derives a page set from the fuzz input and checks
// the two hard invariants of the parallel pipeline: the parallel stream is
// byte-identical to the serial one, and both decoders reproduce the pages.
func FuzzPageAlignedParallel(f *testing.F) {
	f.Add([]byte("seed page content"), uint8(2), uint8(64))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(7), uint8(16))
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, pRaw, szRaw uint8) {
		workers := int(pRaw%8) + 1
		pageSize := int(szRaw%96) + 8
		var updates []PageUpdate
		olds := map[uint64][]byte{}
		for i := 0; len(data) > 0; i++ {
			n := pageSize
			if n > len(data) {
				n = len(data)
			}
			newPage := data[:n]
			data = data[n:]
			u := PageUpdate{Index: uint64(i), New: newPage}
			switch i % 3 {
			case 0: // similar old version
				old := append([]byte(nil), newPage...)
				old[0] ^= 0xFF
				u.Old = old
				olds[u.Index] = old
			case 1: // unrelated old version
				old := bytes.Repeat([]byte{0xA5}, n)
				u.Old = old
				olds[u.Index] = old
			}
			updates = append(updates, u)
		}
		serial := encodePA(updates, 16, 1)
		parallel := encodePA(updates, 16, workers)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("parallel stream differs from serial (%d vs %d bytes)", len(parallel), len(serial))
		}
		fetch := func(idx uint64) []byte { return olds[idx] }
		want, err := DecodePageAlignedParallel(serial, fetch, 1)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		got, err := DecodePageAlignedParallel(serial, fetch, workers)
		if err != nil {
			t.Fatalf("parallel decode of own encoding rejected: %v", err)
		}
		for _, u := range updates {
			if !bytes.Equal(want[u.Index], u.New) || !bytes.Equal(got[u.Index], u.New) {
				t.Fatalf("page %d round trip mismatch", u.Index)
			}
		}
	})
}

// FuzzPageAlignedFastPath derives an equal-length old/new page pair from
// the fuzz input — the old page, then an edit list of in-place overwrites
// and right/left shifts — and checks the aligned fast path end to end: the
// page's stream round-trips through Decode and through both page-aligned
// decoders, and a page frame is never larger than the raw frame of the same
// page.
func FuzzPageAlignedFastPath(f *testing.F) {
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 16), []byte{0, 0, 40, 9, 1, 0, 100, 7, 2, 0, 200, 3}, uint8(15))
	f.Add(make([]byte, 300), []byte{0, 0, 10, 64}, uint8(63))
	f.Add([]byte("short"), []byte{1, 0, 1, 2}, uint8(0))
	f.Fuzz(func(t *testing.T, old, edits []byte, bsRaw uint8) {
		bs := int(bsRaw%64) + 1
		n := len(old)
		page := append([]byte(nil), old...)
		for ; n > 0 && len(edits) >= 4; edits = edits[4:] {
			op, pos, k := edits[0]%3, (int(edits[1])<<8|int(edits[2]))%n, int(edits[3])
			k = min(k, n-pos)
			switch op {
			case 0: // overwrite in place
				for i := 0; i < k; i++ {
					page[pos+i] ^= byte(i + 1)
				}
			case 1: // insert k bytes at pos, shifting the rest right
				copy(page[pos+k:], page[pos:])
				for i := 0; i < k; i++ {
					page[pos+i] = byte(i * 7)
				}
			case 2: // delete k bytes at pos, shifting the rest left
				copy(page[pos:], page[pos+k:])
			}
		}
		var e Encoder
		got, err := Decode(old, e.encodeAligned(old, page, bs))
		if err != nil {
			t.Fatalf("fast-path stream rejected: %v", err)
		}
		if !bytes.Equal(got, page) {
			t.Fatal("fast-path stream does not decode to the new page")
		}
		u := PageUpdate{Index: 3, Old: old, New: page}
		if frame, raw := pageFrameLen(&e, u, bs), pageFrameLen(&e, PageUpdate{Index: 3, New: page}, bs); frame > raw {
			t.Fatalf("page frame %d B exceeds its raw frame %d B", frame, raw)
		}
		// The reverse edit as a second page gives the parallel decoder two
		// frames to fan out.
		stream := encodePA([]PageUpdate{u, {Index: 5, Old: page, New: old}}, bs, 1)
		fetch := func(idx uint64) []byte {
			if idx == 3 {
				return old
			}
			return page
		}
		serial, serr := DecodePageAlignedParallel(stream, fetch, 1)
		parallel, perr := DecodePageAlignedParallel(stream, fetch, 2)
		if serr != nil || perr != nil {
			t.Fatalf("own page-aligned stream rejected: serial %v, parallel %v", serr, perr)
		}
		for _, pages := range []map[uint64][]byte{serial, parallel} {
			if !bytes.Equal(pages[3], page) || !bytes.Equal(pages[5], old) {
				t.Fatal("page-aligned round trip mismatch")
			}
		}
	})
}

// FuzzDecodePageAligned feeds arbitrary streams to the serial and parallel
// map-returning decoders and to DecodePageAlignedInto fed garbage-filled
// buffers: none may panic, and they must agree on acceptance and content.
// A page that fits its buffer must have been decoded into it.
func FuzzDecodePageAligned(f *testing.F) {
	good := encodePA([]PageUpdate{
		{Index: 1, New: []byte("raw page")},
		{Index: 4, Old: bytes.Repeat([]byte{3}, 64), New: bytes.Repeat([]byte{3}, 64)},
	}, 16, 1)
	f.Add(good)
	f.Add([]byte{0x02, 0x04, PageRaw, 0x01, 0xFF, 0x04, PageRaw, 0x00}) // duplicate index
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, stream []byte) {
		old := bytes.Repeat([]byte{3}, 64)
		fetch := func(uint64) []byte { return old }
		want, serr := DecodePageAlignedParallel(stream, fetch, 1)
		got, perr := DecodePageAlignedParallel(stream, fetch, 4)
		var bufs [][]byte
		take := func(n int) [][]byte {
			bufs = make([][]byte, n)
			for i := range bufs {
				bufs[i] = garbage(i * 37 % 130) // some pages fit, some do not
			}
			return slices.Clone(bufs)
		}
		into, ierr := DecodePageAlignedInto(stream, fetch, 2, take)
		if (serr == nil) != (perr == nil) || (serr == nil) != (ierr == nil) {
			t.Fatalf("decoders disagree: serial err=%v, parallel err=%v, into err=%v", serr, perr, ierr)
		}
		if serr != nil {
			return
		}
		if len(want) != len(got) || len(want) != len(into) {
			t.Fatalf("decoders produced %d, %d and %d pages", len(want), len(got), len(into))
		}
		for idx, page := range want {
			if !bytes.Equal(got[idx], page) {
				t.Fatalf("page %d differs between decoders", idx)
			}
		}
		for i, p := range into {
			if !bytes.Equal(p.Data, want[p.Index]) {
				t.Fatalf("page %d differs from the map-returning decoders", p.Index)
			}
			if len(p.Data) > 0 && len(p.Data) <= cap(bufs[i]) && &p.Data[0] != &bufs[i][0] {
				t.Fatalf("page %d fits its buffer but was decoded elsewhere", p.Index)
			}
		}
	})
}

func FuzzXORRoundTrip(f *testing.F) {
	f.Add([]byte("samesize"), []byte("sameSIZE"))
	f.Fuzz(func(t *testing.T, src, tgt []byte) {
		if len(src) != len(tgt) {
			if _, err := EncodeXOR(src, tgt); err == nil {
				t.Fatal("length mismatch accepted")
			}
			return
		}
		stream, err := EncodeXOR(src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeXORInto(nil, src, stream)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tgt) && !(len(got) == 0 && len(tgt) == 0) {
			t.Fatal("XOR round trip mismatch")
		}
	})
}

// pageFrameLen is the length of u's frame in the page-aligned stream: its
// head, plus the page itself when it is stored raw.
func pageFrameLen(e *Encoder, u PageUpdate, blockSize int) int {
	head, mode := appendPageHead(e, nil, u, blockSize)
	if mode == PageRaw {
		return len(head) + len(u.New)
	}
	return len(head)
}
