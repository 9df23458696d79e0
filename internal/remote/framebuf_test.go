package remote

import (
	"bytes"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/storage"
)

// TestServerFrameBufferReuseKeepsStagedBytes stages two data frames of one
// size and different contents over one connection, so the server reads the
// second into the buffer the first arrived in, then commits: the stored
// object must be exactly the bytes sent.
func TestServerFrameBufferReuseKeepsStagedBytes(t *testing.T) {
	st, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: "reuse"})
	if err != nil {
		t.Fatal(err)
	}
	h := &putHarness{t: t, store: st, srv: NewServer(st, ServerConfig{})}
	c := &putConn{h: h}
	c.connect()
	defer c.disconnect()

	payload := append(bytes.Repeat([]byte{0x11}, 4000), bytes.Repeat([]byte{0xEE}, 4000)...)
	data := (&ckpt.Checkpoint{Seq: 0, Kind: ckpt.Full, PageSize: 64, Payload: payload}).Encode()
	c.send(kindPutBegin, mustJSON(t, putBeginMsg{procMsg: procMsg{Proc: fuzzProc}, Seq: 0, Size: int64(len(data)), CRC: objectCRC(data)}))
	if kind, reply := c.reply(); kind != kindPutOffset {
		t.Fatalf("PutBegin answered 0x%02x %s", kind, reply)
	}
	// The first chunk is one byte longer than half, which pays for the
	// second frame's longer offset: the second frame fits the first's buffer.
	cut := len(data)/2 + 1
	for _, span := range [][2]int{{0, cut}, {cut, len(data)}} {
		off := span[0]
		c.send(kindPutData, dataFrame(int64(off), data[off:span[1]]))
	}
	c.send(kindPutCommit, nil)
	if kind, reply := c.reply(); kind != kindPutDone {
		t.Fatalf("commit answered 0x%02x %s", kind, reply)
	}
	h.mustHold(&putObj{seq: 0, data: data}, "PutDone")
}

// TestReadFrameIntoRetainsOnlySmallBuffers: frames that fit the buffer are
// read into it; a frame above the retention bound gets a buffer of its own
// that the next small frames do not inherit; a small frame that outgrows
// the buffer replaces it.
func TestReadFrameIntoRetainsOnlySmallBuffers(t *testing.T) {
	var wire bytes.Buffer
	small := bytes.Repeat([]byte{1}, 100)
	big := bytes.Repeat([]byte{2}, maxRetainedFrame+1)
	for _, p := range [][]byte{small, big, small, small} {
		if err := writeFrame(&wire, kindPutData, p); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 512)
	first := &buf[:1][0]
	for i, want := range [][]byte{small, big, small, small} {
		kind, payload, err := readFrameInto(&wire, DefaultMaxFrame, &buf)
		if err != nil || kind != kindPutData || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: kind 0x%02x, %d bytes, %v", i, kind, len(payload), err)
		}
		if cap(buf) != 512 || &buf[:1][0] != first {
			t.Fatalf("frame %d: the retained buffer changed (cap %d)", i, cap(buf))
		}
	}

	// A small frame larger than the buffer grows it.
	wire.Reset()
	mid := bytes.Repeat([]byte{3}, 4096)
	if err := writeFrame(&wire, kindPutData, mid); err != nil {
		t.Fatal(err)
	}
	if _, payload, err := readFrameInto(&wire, DefaultMaxFrame, &buf); err != nil || !bytes.Equal(payload, mid) {
		t.Fatalf("mid frame: %v", err)
	}
	if cap(buf) < 4096 || cap(buf) > maxRetainedFrame {
		t.Fatalf("buffer cap %d after a %d-byte frame", cap(buf), len(mid))
	}
}
