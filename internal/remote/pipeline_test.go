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
// format byte-for-byte: a pipelined burst must be indistinguishable from the
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

// TestPutPipelinesWindowBursts proves the windowed transfer batches frames:
// a Put spanning many chunks must issue far fewer Write calls than chunks,
// while the peer still receives the object intact.
func TestPutPipelinesWindowBursts(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	addr := startServer(t, backing)
	counter := &writeCountDialer{}
	cfg := testConfig() // ChunkSize 128, Window 2
	cfg.Window = 8
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
	// 64 chunks at window 8 fit in ≤ 15 bursts (one full-window burst, then
	// half-window refills); hello, put-begin and commit add three more. The
	// pre-pipelining client needed a Write per chunk.
	if writes > 25 {
		t.Fatalf("Put issued %d Write calls for 64 chunks; pipelining regressed", writes)
	}
	if got := mustGetBytes(t, backing, "p0", 0); !bytes.Equal(got, data) {
		t.Fatal("peer bytes differ after pipelined put")
	}
}
