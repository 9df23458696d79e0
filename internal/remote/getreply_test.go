package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"

	"aic/internal/storage"
)

// appendElemFrame is the copying encoder the Get reply used before
// writeChain: one element frame of kind elem (uvarint seq ++ checkpoint
// bytes) built in one buffer. A kindElem frame's CRC covers the kind, the
// seq and the bytes; a kindElemSealed frame's only the kind and the seq.
// It is the golden reference the by-reference reply must match.
func appendElemFrame(dst []byte, elem byte, seq int, data []byte) []byte {
	var uv [binary.MaxVarintLen64]byte
	un := binary.PutUvarint(uv[:], uint64(seq))
	n := 1 + un + len(data)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(n))
	dst = append(dst, word[:]...)
	body := len(dst)
	dst = append(dst, elem)
	dst = append(dst, uv[:un]...)
	covered := len(dst)
	dst = append(dst, data...)
	if elem == kindElem {
		covered = len(dst)
	}
	binary.LittleEndian.PutUint32(word[:], crc32.Update(0, crcTable, dst[body:covered]))
	return append(dst, word[:]...)
}

// goldenChain is the reply writeChain must send, built the copying way.
func goldenChain(t *testing.T, hdr []byte, chain []storage.Stored, elem byte) []byte {
	t.Helper()
	want := appendFrame(nil, kindChain, hdr)
	for _, el := range chain {
		frame := appendElemFrame(nil, elem, el.Seq, el.Data)
		if !bytes.Equal(frame, appendFrame(nil, elem, elemFrame(el.Seq, el.Data))) {
			t.Fatalf("reference encoders disagree on seq %d", el.Seq)
		}
		want = append(want, frame...)
	}
	return want
}

// overTCP sends chain with writeChain over a loopback TCP connection — the
// vectored write a server connection takes — and returns what arrived.
func overTCP(t *testing.T, hdr []byte, chain []storage.Stored, elem byte) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sent <- err
			return
		}
		defer conn.Close()
		sent <- writeChain(conn, hdr, chain, elem)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWriteChainGolden pins the by-reference Get reply to the bytes the
// copying encoder produced, for element sizes around the old 256 KiB flush
// threshold, an 8 MiB element and one mixed chain, both through a plain
// writer (one Write per buffer) and through a TCP connection (writev). The
// sealed row sends the mixed chain as a sealed reply, whose element CRCs
// skip the bodies.
func TestWriteChainGolden(t *testing.T) {
	elem := func(seq, n int) storage.Stored {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + seq)
		}
		return storage.Stored{Seq: seq, Data: data}
	}
	sizes := []int{0, 1, 256<<10 - 1, 256 << 10, 256<<10 + 1, 8 << 20}
	type reply struct {
		chain []storage.Stored
		kind  byte // the element frames' kind
	}
	cases := map[string]reply{}
	var mixed []storage.Stored
	for i, n := range sizes {
		cases[fmt.Sprintf("size=%d", n)] = reply{[]storage.Stored{elem(i+1, n)}, kindElem}
		mixed = append(mixed, elem(1<<(7*i), n)) // seqs of 1 to 6 varint bytes
	}
	cases["mixed"] = reply{mixed, kindElem}
	cases["sealed mixed"] = reply{mixed, kindElemSealed}
	cases["empty chain"] = reply{nil, kindElem}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			hdr, err := json.Marshal(chainMsg{Count: len(tc.chain), Missing: []int{3}})
			if err != nil {
				t.Fatal(err)
			}
			want := goldenChain(t, hdr, tc.chain, tc.kind)
			var plain bytes.Buffer
			if err := writeChain(&plain, hdr, tc.chain, tc.kind); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain.Bytes(), want) {
				t.Fatalf("plain writer: %d bytes differ from the %d golden bytes", plain.Len(), len(want))
			}
			if got := overTCP(t, hdr, tc.chain, tc.kind); !bytes.Equal(got, want) {
				t.Fatalf("TCP: %d bytes differ from the %d golden bytes", len(got), len(want))
			}
		})
	}
}

// TestWriteChainSendsByReference: sending an 8 MiB chain allocates framing,
// not a copy of the chain.
func TestWriteChainSendsByReference(t *testing.T) {
	chain := []storage.Stored{
		{Seq: 1, Data: bytes.Repeat([]byte{1}, 4<<20)},
		{Seq: 2, Data: bytes.Repeat([]byte{2}, 4<<20)},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := writeChain(io.Discard, []byte(`{"count":2}`), chain, kindElem); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("writeChain allocated %d bytes for an 8 MiB chain", n)
	}
}
