package aic

import (
	"context"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aic/internal/remote"
	"aic/internal/storage"
)

// kindElemSealed is the wire kind of an element answering a sealed Get, the
// only read whose frame CRC leaves the element's bytes to the reader.
const kindElemSealed = 0x4a

// sealedFlipDialer dials a peer and counts the sealed element frames the
// client reads from it. While *arm is set, it flips one byte in the middle
// of the next such frame's body — a byte of the checkpoint bytes, past the
// seq — and clears *arm, so one element, across all the peers sharing arm,
// arrives damaged.
type sealedFlipDialer struct {
	arm   *atomic.Bool
	elems atomic.Int64
}

func (d *sealedFlipDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &sealedFlipConn{Conn: conn, d: d}, nil
}

// sealedFlipConn walks the frames it reads: a uint32 length n, then n body
// bytes (kind ++ payload), then a 4-byte CRC. Only the connection's owner
// reads it, so its walk state needs no lock.
type sealedFlipConn struct {
	net.Conn
	d    *sealedFlipDialer
	hdr  []byte // the current frame's length bytes read so far
	n    int    // the current frame's body length
	pos  int    // body and CRC bytes read of the current frame
	flip bool   // the current frame is the one to damage
}

func (c *sealedFlipConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	for i := range p[:k] {
		if len(c.hdr) < 4 {
			if c.hdr = append(c.hdr, p[i]); len(c.hdr) == 4 {
				c.n, c.pos, c.flip = int(binary.LittleEndian.Uint32(c.hdr)), 0, false
			}
			continue
		}
		if c.pos == 0 && p[i] == kindElemSealed {
			c.d.elems.Add(1)
			c.flip = c.d.arm.CompareAndSwap(true, false)
		}
		if c.flip && c.pos == c.n/2 {
			p[i] ^= 0x10
		}
		if c.pos++; c.pos == c.n+4 {
			c.hdr = c.hdr[:0]
		}
	}
	return k, err
}

// TestReplicationSealedElementFlipFallsToNextReplica: a ring restore reads
// every element sealed, so the wire checks no element's bytes; the one
// check left, the frame's own CRC-32C in ckpt.Decode, must catch a byte
// the first replica's reply flipped in flight. The restore still returns
// the byte-identical image, and only the damaged seq is read again, from
// the next replica in placement order.
func TestReplicationSealedElementFlipFallsToNextReplica(t *testing.T) {
	ctx := context.Background()
	var arm atomic.Bool
	stores := make(map[string]Store)
	dialers := make(map[string]*sealedFlipDialer)
	for _, name := range []string{"a-peer", "b-peer", "c-peer"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := remote.NewServer(storage.NewMemStore(storage.Target{Name: name}), remote.ServerConfig{})
		go srv.Serve(ctx, ln)
		t.Cleanup(func() { srv.Close() })
		addr := ln.Addr().String()
		dialers[name] = &sealedFlipDialer{arm: &arm}
		stores[name] = remote.NewStore(addr, remote.Config{
			Dialer: dialers[name], Retries: -1, OpTimeout: 10 * time.Second,
		})
	}
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 3, WriteQuorum: 3})
	p, chain := buildProcessChain(t)
	ns := c.Namespace("acme")
	for seq, enc := range chain {
		if err := ns.Checkpoint(ctx, "web", seq, enc); err != nil {
			t.Fatalf("checkpoint %d: %v", seq, err)
		}
	}
	key, err := ns.key("web")
	if err != nil {
		t.Fatal(err)
	}
	placed, _, err := c.placement(key)
	if err != nil {
		t.Fatal(err)
	}

	arm.Store(true)
	im, rep, err := ns.Restore(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if arm.Load() {
		t.Fatal("no sealed element crossed the wire")
	}
	if !im.Matches(p) || rep.LastSeq != len(chain)-1 || len(rep.Corrupt) != 0 {
		t.Fatalf("restore = lastSeq %d, corrupt %v, image matches %t; want the whole chain, intact",
			rep.LastSeq, rep.Corrupt, im.Matches(p))
	}
	// The first replica sent the whole chain, one element of it damaged;
	// the next replica sent that one seq again, and the last sent nothing.
	want := []int64{int64(len(chain)), 1, 0}
	for i, name := range placed {
		if got := dialers[name].elems.Load(); got != want[i] {
			t.Errorf("replica %d (%s) sent %d sealed elements, want %d", i, name, got, want[i])
		}
	}
	if rep.Replica != -1 {
		t.Errorf("report names replica %d alone; the damaged seq came from another", rep.Replica)
	}
}
