package remote

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"aic/internal/ckpt"
	"aic/internal/storage"
)

// countingDialer measures the total bytes a clean operation moves in either
// direction, so the cut sweep can place a fault at every byte of the
// protocol exchange.
type countingDialer struct {
	mu    sync.Mutex
	total int64
}

func (d *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, d: d}, nil
}

func (d *countingDialer) Total() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

type countingConn struct {
	net.Conn
	d *countingDialer
}

func (c *countingConn) add(n int) {
	c.d.mu.Lock()
	c.d.total += int64(n)
	c.d.mu.Unlock()
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.add(n)
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.add(n)
	return n, err
}

// TestPutResumesAtEveryCutPoint kills the first connection after every
// possible byte count — tearing the transfer in every protocol state: the
// hello exchange, the offset negotiation, mid data frame, between frames,
// during commit and while the final ack is in flight — and requires the
// retried Put to leave the peer holding the exact bytes.
func TestPutResumesAtEveryCutPoint(t *testing.T) {
	data := bytes.Repeat([]byte{0xa5, 0x5a, 0x01, 0xfe}, 352) // 1408 bytes, 11 chunks

	// Pass 1: measure a clean run's total traffic.
	counter := &countingDialer{}
	cleanCfg := testConfig()
	cleanCfg.Dialer = counter
	cleanStore := storage.NewMemStore(storage.Target{Name: "clean"})
	cleanClient := NewStore(startServer(t, cleanStore), cleanCfg)
	if err := cleanClient.Put(ctx, "p0", 0, data); err != nil {
		t.Fatal(err)
	}
	cleanClient.Close()
	total := counter.Total()
	if total < int64(len(data)) {
		t.Fatalf("clean run moved only %d bytes", total)
	}

	// Pass 2: cut the first connection at every offset. A stride of 1 keeps
	// the sweep exhaustive; the final bytes of the done frame are included
	// because a client that dies while the last ack is in flight must
	// discover the commit landed via the idempotent resume path.
	for cut := int64(1); cut < total; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			backing := storage.NewMemStore(storage.Target{Name: "peer"})
			addr := startServer(t, backing)
			cfg := testConfig()
			fd := &FaultDialer{Plan: func(conn int) Fault {
				if conn == 1 {
					return Fault{CutAfterBytes: cut}
				}
				return Fault{}
			}}
			cfg.Dialer = fd
			rs := NewStore(addr, cfg)
			defer rs.Close()
			if err := rs.Put(ctx, "p0", 0, data); err != nil {
				t.Fatalf("put through cut at byte %d: %v", cut, err)
			}
			chain, missing, err := backing.Get(ctx, "p0")
			if err != nil || len(missing) != 0 || len(chain) != 1 {
				t.Fatalf("peer chain = %d elements, missing %v, err %v", len(chain), missing, err)
			}
			if !bytes.Equal(chain[0].Data, data) {
				t.Fatalf("peer bytes differ after cut at %d", cut)
			}
		})
	}
}

// TestResumeContinuesAtStagedOffset proves resumption is genuine: after a
// cut deep into the data stream, the second connection's traffic is far
// smaller than a full restart would need.
func TestResumeContinuesAtStagedOffset(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 8<<10) // 8 KiB, 64 chunks
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	addr := startServer(t, backing)

	counter := &countingDialer{}
	var afterCut int64
	cfg := testConfig()
	cfg.Dialer = &FaultDialer{
		Base: counter,
		Plan: func(conn int) Fault {
			if conn == 1 {
				return Fault{CutAfterBytes: 7 << 10} // die ~7/8 through
			}
			afterCut = counter.Total() // traffic before the resume began
			return Fault{}
		},
	}
	rs := NewStore(addr, cfg)
	defer rs.Close()
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatal(err)
	}
	resumed := counter.Total() - afterCut
	if resumed <= 0 {
		t.Fatal("no second connection observed")
	}
	// The resume must move well under half the object (it actually needs
	// only the last ~1 KiB plus control frames).
	if resumed > int64(len(data))/2 {
		t.Fatalf("resume moved %d bytes; transfer restarted instead of resuming", resumed)
	}
	if got := mustGetBytes(t, backing, "p0", 0); !bytes.Equal(got, data) {
		t.Fatal("stored bytes differ")
	}
}

// TestResumeNeverCommitsAnotherFramesBytes leaves a whole, uncommitted
// staging of frame A at (key, seq) and then Puts a different frame B of the
// same size there. Both frames have the same whole-object CRC-32C (each ends
// in its own), so a resume matched on that checksum would skip B's transfer
// and commit A's bytes as B's. The store must hold B.
func TestResumeNeverCommitsAnotherFramesBytes(t *testing.T) {
	frame := func(fill byte) []byte {
		return (&ckpt.Checkpoint{Seq: 0, Kind: ckpt.Full, PageSize: 64, Payload: bytes.Repeat([]byte{fill}, 256)}).Encode()
	}
	a, b := frame(0x11), frame(0xee)
	if len(a) != len(b) || bytes.Equal(a, b) {
		t.Fatal("want two distinct frames of one size")
	}
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	addr := startServer(t, backing)

	// A raw connection stages all of A and drops without committing.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if err := writeJSON(conn, kindHello, helloMsg{Version: protocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := expect(br, kindHelloOK); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(conn, kindPutBegin, putBeginMsg{procMsg: procMsg{Proc: "p0"}, Size: int64(len(a)), CRC: objectCRC(a)}); err != nil {
		t.Fatal(err)
	}
	if _, err := expect(br, kindPutOffset); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, kindPutData, dataFrame(0, a)); err != nil {
		t.Fatal(err)
	}
	// A data frame gets no reply: a second PutBegin of A reads back what
	// the server staged.
	if err := writeJSON(conn, kindPutBegin, putBeginMsg{procMsg: procMsg{Proc: "p0"}, Size: int64(len(a)), CRC: objectCRC(a)}); err != nil {
		t.Fatal(err)
	}
	var off putOffsetMsg
	if payload, err := expect(br, kindPutOffset); err != nil || decodeJSON(payload, &off) != nil || off.Offset != int64(len(a)) {
		t.Fatalf("staged %d of %d bytes: %v", off.Offset, len(a), err)
	}
	conn.Close()

	rs := NewStore(addr, testConfig())
	defer rs.Close()
	if err := rs.Put(ctx, "p0", 0, b); err != nil {
		t.Fatal(err)
	}
	if got := mustGetBytes(t, backing, "p0", 0); !bytes.Equal(got, b) {
		t.Fatalf("the store holds frame A's bytes after an acked Put of frame B")
	}
}

// TestResumeAfterMisplacedDataFrame: a data frame that is not at the staged
// offset ends the connection, as a malformed frame does, and keeps the
// staged prefix — the reconnect's PutBegin offers it, and the Put completes
// from there.
func TestResumeAfterMisplacedDataFrame(t *testing.T) {
	st, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: "misplaced"})
	if err != nil {
		t.Fatal(err)
	}
	h := &putHarness{t: t, store: st, srv: NewServer(st, ServerConfig{})}
	c := &putConn{h: h}
	c.connect()
	defer c.disconnect()

	obj := fuzzObj(4)
	begin := func() int64 {
		t.Helper()
		c.send(kindPutBegin, mustJSON(t, putBeginMsg{procMsg: procMsg{Proc: fuzzProc}, Seq: obj.seq, Size: int64(len(obj.data)), CRC: obj.crc}))
		kind, payload := c.reply()
		var off putOffsetMsg
		if kind != kindPutOffset || decodeJSON(payload, &off) != nil {
			t.Fatalf("PutBegin answered 0x%02x %s", kind, payload)
		}
		return off.Offset
	}
	const staged = 64
	if off := begin(); off != 0 {
		t.Fatalf("fresh PutBegin offers offset %d", off)
	}
	c.send(kindPutData, dataFrame(0, obj.data[:staged]))
	c.send(kindPutData, dataFrame(staged+1, obj.data[staged+1:2*staged]))
	select {
	case <-c.served:
	case <-time.After(5 * time.Second):
		t.Fatal("the server kept the connection open after a misplaced data frame")
	}
	c.disconnect()
	c.connect()
	if off := begin(); off != staged {
		t.Fatalf("the reconnect's PutBegin offers offset %d, want the staged %d", off, staged)
	}
	c.send(kindPutData, dataFrame(staged, obj.data[staged:]))
	c.send(kindPutCommit, nil)
	if kind, reply := c.reply(); kind != kindPutDone {
		t.Fatalf("commit answered 0x%02x %s", kind, reply)
	}
	h.mustHold(&obj, "PutDone")
}
