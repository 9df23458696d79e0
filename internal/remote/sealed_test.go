package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"

	"aic/internal/storage"
)

// flipDialer dials a peer and wraps each connection in a flipConn: of the
// frames of kind the client writes, over every connection the dialer
// makes, the first has byte at(n) of its body (kind ++ payload, n bytes)
// flipped in flight. sent counts, per connection, the frames of kind
// written.
type flipDialer struct {
	kind byte
	at   func(n int) int

	mu      sync.Mutex
	flipped bool
	sent    []int
}

func (d *flipDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return d.wrap(conn), nil
}

func (d *flipDialer) wrap(conn net.Conn) net.Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sent = append(d.sent, 0)
	return &flipConn{Conn: conn, d: d, id: len(d.sent) - 1}
}

// flipConn walks the frames it writes — a uint32 length n, n body bytes,
// a 4-byte CRC — and writes a copy carrying the flip.
type flipConn struct {
	net.Conn
	d    *flipDialer
	id   int    // the connection's index in d.sent
	hdr  []byte // the current frame's length bytes written so far
	n    int    // the current frame's body length
	pos  int    // body and CRC bytes written of the current frame
	flip int    // the body byte to flip in the current frame, or -1
}

func (c *flipConn) Write(p []byte) (int, error) {
	q := append([]byte(nil), p...)
	c.d.mu.Lock()
	for i := range q {
		if len(c.hdr) < 4 {
			if c.hdr = append(c.hdr, q[i]); len(c.hdr) == 4 {
				c.n, c.pos, c.flip = int(binary.LittleEndian.Uint32(c.hdr)), 0, -1
			}
			continue
		}
		if c.pos == 0 && q[i] == c.d.kind {
			c.d.sent[c.id]++
			if !c.d.flipped {
				c.d.flipped, c.flip = true, c.d.at(c.n)
			}
		}
		if c.pos == c.flip {
			q[i] ^= 0x10
		}
		if c.pos++; c.pos == c.n+4 {
			c.hdr = c.hdr[:0]
		}
	}
	c.d.mu.Unlock()
	return c.Conn.Write(q)
}

// TestDataFrameFlipFailsCommitAndRetries: a data frame's CRC no longer
// covers its chunk, so a byte flipped in one chunk in flight is staged;
// the commit's objectCRC check must catch it. The mismatch ends the
// connection and drops the staging, the client's retry resends the whole
// object from offset 0, and the peer stores exactly the bytes sent.
func TestDataFrameFlipFailsCommitAndRetries(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	d := &flipDialer{kind: kindPutData, at: func(n int) int { return n / 2 }}
	cfg := testConfig()
	cfg.Dialer = d
	rs := NewStore(startServer(t, backing), cfg)
	defer rs.Close()
	chain, _ := buildChain(t)
	obj := chain[0].Data
	if err := rs.Put(ctx, "p", 0, obj); err != nil {
		t.Fatal(err)
	}
	frames := (len(obj) + cfg.chunkSize - 1) / cfg.chunkSize
	if !d.flipped || len(d.sent) != 2 || d.sent[0] != frames || d.sent[1] != frames {
		t.Fatalf("flipped %t, data frames per connection %v; want the %d frames sent twice, on two connections",
			d.flipped, d.sent, frames)
	}
	got, _, err := backing.Get(ctx, "p")
	if err != nil || len(got) != 1 || !bytes.Equal(got[0].Data, obj) {
		t.Fatalf("peer holds %d elements (err %v), want exactly the object sent", len(got), err)
	}
}

// TestSealedFrameHeaderFlipRejected: the frame CRC of both kinds whose body
// is checked end to end still covers the kind and the header field — a
// data frame's offset, a sealed element's seq — so a flip of any of those
// bytes in flight is rejected at readFrameInto. A flip past the header is
// accepted there, carrying the flip, for the end-to-end check to catch.
func TestSealedFrameHeaderFlipRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   byte
		header int // kind byte plus the uvarint field
		frame  []byte
	}{
		{"data offset 0", kindPutData, 2, appendDataFrame(nil, 0, []byte("chunk bytes"))},
		{"data offset 1 MiB", kindPutData, 4, appendDataFrame(nil, 1<<20, []byte("chunk bytes"))},
		{"sealed seq 7", kindElemSealed, 2, appendFrame(nil, kindElemSealed, elemFrame(7, []byte("checkpoint bytes")))},
		{"sealed seq 300", kindElemSealed, 3, appendFrame(nil, kindElemSealed, elemFrame(300, []byte("checkpoint bytes")))},
	} {
		n := len(tc.frame) - 8
		for at := 0; at <= tc.header; at++ {
			client, server := net.Pipe()
			d := &flipDialer{kind: tc.kind, at: func(int) int { return at }}
			go func() {
				d.wrap(client).Write(tc.frame)
				client.Close()
			}()
			var buf []byte
			kind, payload, err := readFrameInto(server, DefaultMaxFrame, &buf)
			server.Close()
			switch {
			case !d.flipped:
				t.Fatalf("%s: byte %d was not flipped", tc.name, at)
			case at < tc.header && (err == nil || !strings.Contains(err.Error(), "CRC mismatch")):
				t.Errorf("%s: flipped header byte %d of %d read as kind 0x%02x, err %v; want a CRC mismatch",
					tc.name, at, tc.header, kind, err)
			case at == tc.header && (err != nil || kind != tc.kind || bytes.Equal(payload, tc.frame[5:4+n])):
				t.Errorf("%s: flipped body byte %d read as kind 0x%02x, err %v; want the frame, carrying the flip",
					tc.name, at, kind, err)
			}
		}
	}
}
