package remote

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"

	"aic/internal/storage"
)

// TestAppendFrameMatchesWriteFrame pins the batched encoders to the wire
// format byte-for-byte: a burst must be indistinguishable from the
// same frames written one Write each. The Get reply's encoder, writeChain,
// has its own golden test (getreply_test.go).
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payload := []byte("payload bytes")
	var solo bytes.Buffer
	if err := writeFrame(&solo, kindChain, payload); err != nil {
		t.Fatal(err)
	}
	if got := appendFrame(nil, kindChain, payload); !bytes.Equal(got, solo.Bytes()) {
		t.Fatalf("appendFrame encodes %x, writeFrame %x", got, solo.Bytes())
	}

	var dataSolo bytes.Buffer
	chunk := bytes.Repeat([]byte{0xc3}, 300)
	if err := writeFrame(&dataSolo, kindPutData, dataFrame(1<<20, chunk)); err != nil {
		t.Fatal(err)
	}
	if got := appendDataFrame(nil, 1<<20, chunk); !bytes.Equal(got, dataSolo.Bytes()) {
		t.Fatal("appendDataFrame diverges from dataFrame+writeFrame")
	}

	// Two frames appended to one buffer parse back as two frames.
	burst := appendDataFrame(nil, 0, chunk)
	burst = appendDataFrame(burst, int64(len(chunk)), chunk)
	r := bytes.NewReader(burst)
	for i := 0; i < 2; i++ {
		kind, payload, err := readFrame(r, DefaultMaxFrame)
		if err != nil || kind != kindPutData {
			t.Fatalf("frame %d: kind 0x%02x err %v", i, kind, err)
		}
		off, got, err := splitDataFrame(payload)
		if err != nil || off != int64(i*len(chunk)) || !bytes.Equal(got, chunk) {
			t.Fatalf("frame %d decodes offset %d err %v", i, off, err)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after burst", r.Len())
	}
}

// writeCountDialer counts Write calls on the underlying connection.
type writeCountDialer struct {
	mu     sync.Mutex
	writes int
}

func (d *writeCountDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &writeCountConn{Conn: conn, d: d}, nil
}

type writeCountConn struct {
	net.Conn
	d *writeCountDialer
}

func (c *writeCountConn) Write(p []byte) (int, error) {
	c.d.mu.Lock()
	c.d.writes++
	c.d.mu.Unlock()
	return c.Conn.Write(p)
}

// TestPutWritesFixedBursts proves Put batches its data frames: a Put
// spanning many chunks issues one Write per putBurst frames, plus one each
// for the hello, the PutBegin and the commit, while the peer still receives
// the object intact.
func TestPutWritesFixedBursts(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	addr := startServer(t, backing)
	counter := &writeCountDialer{}
	cfg := testConfig() // chunkSize 128
	cfg.Dialer = counter
	rs := NewStore(addr, cfg)
	defer rs.Close()

	data := bytes.Repeat([]byte{0x5c, 0xa7}, 4<<10) // 8 KiB = 64 chunks
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatal(err)
	}
	counter.mu.Lock()
	writes := counter.writes
	counter.mu.Unlock()
	chunks := (len(data) + cfg.chunkSize - 1) / cfg.chunkSize
	if bound := (chunks+putBurst-1)/putBurst + 3; writes > bound {
		t.Fatalf("Put issued %d Write calls for %d chunks, want at most %d", writes, chunks, bound)
	}
	if got := mustGetBytes(t, backing, "p0", 0); !bytes.Equal(got, data) {
		t.Fatal("peer bytes differ after a bursted put")
	}
}

// TestReplicationPutIsSilentUntilCommit pins one reply per request: between
// PutBegin's offset and the commit's answer the server writes nothing, so
// the first frame the client reads after streaming a whole object and its
// commit is kindPutDone.
func TestReplicationPutIsSilentUntilCommit(t *testing.T) {
	st, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: "silent"})
	if err != nil {
		t.Fatal(err)
	}
	h := &putHarness{t: t, store: st, srv: NewServer(st, ServerConfig{})}
	c := &putConn{h: h}
	c.connect()
	defer c.disconnect()

	obj := fuzzObj(4)
	c.send(kindPutBegin, mustJSON(t, putBeginMsg{procMsg: procMsg{Proc: fuzzProc}, Seq: obj.seq, Size: int64(len(obj.data)), CRC: obj.crc}))
	if kind, reply := c.reply(); kind != kindPutOffset {
		t.Fatalf("PutBegin answered 0x%02x %s", kind, reply)
	}
	// Read while sending: a server that answered data frames would
	// otherwise block on the pipe and never reach the commit.
	replies := make(chan []byte, 1)
	go func() {
		var kinds []byte
		for {
			kind, _, err := readFrame(c.conn, DefaultMaxFrame)
			if err != nil {
				break
			}
			kinds = append(kinds, kind)
			if kind == kindPutDone || kind == kindErr {
				break
			}
		}
		replies <- kinds
	}()
	const chunk = 16
	frames := 0
	for off := 0; off < len(obj.data); off += chunk {
		c.send(kindPutData, dataFrame(int64(off), obj.data[off:min(off+chunk, len(obj.data))]))
		frames++
	}
	c.send(kindPutCommit, nil)
	if got := <-replies; !bytes.Equal(got, []byte{kindPutDone}) {
		t.Fatalf("after PutOffset, %d data frames and the commit, the server sent frames of kinds %x, want only PutDone", frames, got)
	}
	h.mustHold(&obj, "PutDone")
}
