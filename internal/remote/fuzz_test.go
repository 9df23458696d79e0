package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame parser. The parser sits
// directly on the network, so it must never panic and never allocate past
// the configured frame cap no matter what a corrupt or hostile peer sends.
// Valid frames must round-trip; everything else must come back as an error.
//
// It also asserts the CRC scope rule for every accepted kind: a data
// frame's or a sealed element's CRC covers its kind and its uvarint header
// field (the whole body when that field is malformed), any other frame's
// its whole body. A flipped byte inside the covered span is rejected; a
// flipped byte past it is accepted, as the same kind, carrying the flip.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames of each payload shape.
	var valid bytes.Buffer
	writeFrame(&valid, kindHello, []byte(`{"v":1}`))
	f.Add(valid.Bytes())
	valid.Reset()
	writeFrame(&valid, kindPutData, dataFrame(1<<20, bytes.Repeat([]byte{0xaa}, 512)))
	f.Add(valid.Bytes())
	valid.Reset()
	writeFrame(&valid, kindElem, elemFrame(7, []byte("checkpoint bytes")))
	f.Add(valid.Bytes())
	valid.Reset()
	writeFrame(&valid, kindElemSealed, elemFrame(300, []byte("sealed checkpoint bytes")))
	f.Add(valid.Bytes())
	valid.Reset()
	writeFrame(&valid, kindElemSealed, []byte{0x80, 0x80}) // malformed seq: the CRC covers it all
	f.Add(valid.Bytes())

	// Hostile length prefixes: huge, zero, and just past the cap.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge, 0xffffffff)
	f.Add(huge)
	zero := make([]byte, 8)
	f.Add(zero)
	past := make([]byte, 12)
	binary.LittleEndian.PutUint32(past, DefaultMaxFrame+1)
	f.Add(past)
	// Truncated header and torn body.
	f.Add([]byte{0x03})
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x42, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 1 << 16 // small cap so over-allocation is loud
		kind, payload, err := readFrame(bytes.NewReader(data), cap)
		if err != nil {
			return
		}
		// A parsed frame obeys the cap: kind+payload+CRC all came out of a
		// length the parser accepted, so the payload can never exceed it.
		if len(payload) > cap {
			t.Fatalf("payload %d bytes exceeds frame cap %d", len(payload), cap)
		}
		// An accepted frame re-encodes to exactly the bytes accepted, which
		// the parser accepts again with identical content.
		n := 1 + len(payload)
		raw := append([]byte(nil), data[:4+n+4]...)
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("kind 0x%02x re-encodes to other bytes than the frame accepted", kind)
		}
		kind2, payload2, err := readFrame(&buf, cap)
		if err != nil {
			t.Fatalf("re-parse of a valid frame failed: %v", err)
		}
		if kind2 != kind || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame did not round-trip: kind %02x/%02x, %d/%d payload bytes",
				kind, kind2, len(payload), len(payload2))
		}
		// The scope rule, spelled out: the span of the body (kind ++
		// payload) the CRC covers.
		covered := n
		if kind == kindPutData || kind == kindElemSealed {
			if _, un := binary.Uvarint(payload); un > 0 {
				covered = 1 + un
			}
		}
		// Flip the kind, the first bytes after it, the last covered byte,
		// and the first and last bytes past the span.
		flips := []int{covered - 1}
		for i := 0; i < min(covered, 12); i++ {
			flips = append(flips, i)
		}
		if covered < n {
			flips = append(flips, covered, n-1)
		}
		for _, i := range flips {
			raw[4+i] ^= 0x01
			kind3, payload3, err := readFrame(bytes.NewReader(raw), cap)
			switch {
			case i < covered && err == nil:
				t.Fatalf("kind 0x%02x: a flipped byte %d of %d covered was accepted", kind, i, covered)
			case i >= covered && err != nil:
				t.Fatalf("kind 0x%02x: a flipped byte %d past the %d covered was rejected: %v", kind, i, covered, err)
			case i >= covered && (kind3 != kind || !bytes.Equal(payload3, raw[5:4+n])):
				t.Fatalf("kind 0x%02x: a flipped byte %d past the span came back as kind 0x%02x, other bytes", kind, i, kind3)
			}
			raw[4+i] ^= 0x01
		}
		// The payload sub-parsers must not panic on arbitrary accepted
		// payloads either.
		switch kind {
		case kindPutData:
			splitDataFrame(payload)
		case kindElem, kindElemSealed:
			splitElemFrame(payload)
		}
	})
}

// TestReadFrameCapRejectsBeforeAllocating pins the allocation guard: a
// length prefix beyond the cap must be rejected from the 4 header bytes
// alone, before the parser tries to read (and allocate) the body.
func TestReadFrameCapRejectsBeforeAllocating(t *testing.T) {
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, DefaultMaxFrame+1)
	// countingReader fails the test if the parser reads past the header.
	r := &countingReader{r: bytes.NewReader(append(hdr, 0xff)), limit: 4, t: t}
	if _, _, err := readFrame(r, DefaultMaxFrame); err == nil {
		t.Fatal("frame over the cap was accepted")
	}
}

type countingReader struct {
	r     io.Reader
	n     int
	limit int
	t     *testing.T
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	if c.n > c.limit {
		c.t.Fatalf("parser read %d bytes; a rejected length must stop at %d", c.n, c.limit)
	}
	return n, err
}
