package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aic/internal/ckpt"
	"aic/internal/storage"
)

// Put-protocol fuzz operations. Each is two input bytes, (op, arg).
const (
	opBegin     = iota // PutBegin of object arg: seq arg%5, content variant arg/5%4
	opData             // next chunk: arg&3 picks its size, arg&4 corrupts it, arg&8 misplaces it
	opCommit           // PutCommit, of the open transfer or of none
	opCut              // sever the connection and reconnect
	opDelete           // Delete the chain
	opTruncate         // Truncate below seq arg%6
	opFlipScrub        // flip a bit of stored seq arg%5 on disk, then Scrub(repair)
	opNoHello          // a connection whose first frame is PutBegin of object arg
	numOps
)

const fuzzProc = "p"

// putObj is one object a PutBegin declares: its seq, its bytes and their CRC.
type putObj struct {
	seq  int
	data []byte
	crc  uint32
}

// fuzzObj is object arg: a real checkpoint frame of seq arg%5 in one of
// three contents, or a frame cut short (which a Scrub then reports corrupt).
// Variant 3 has variant 0's encoded size but other bytes, and — like every
// checkpoint frame — the same whole-object CRC-32C, so only a checksum that
// tells frames apart keeps a stale staging of one from committing as the
// other.
func fuzzObj(arg byte) putObj {
	seq, variant := int(arg%5), int(arg/5%4)
	c := &ckpt.Checkpoint{Seq: seq, Kind: ckpt.Full, PageSize: 64,
		Payload: bytes.Repeat([]byte{byte(seq)}, 160+48*seq)}
	switch variant {
	case 1:
		c.Kind, c.Payload = ckpt.Incremental, bytes.Repeat([]byte{byte(seq), 0xa5}, 70+24*seq)
	case 3:
		c.Payload = bytes.Repeat([]byte{^byte(seq)}, 160+48*seq)
	}
	data := c.Encode()
	if variant == 2 {
		data = data[:len(data)/2]
	}
	return putObj{seq: seq, data: data, crc: objectCRC(data)}
}

// putHarness is one server over an FSStore, driven over two in-memory
// connections, one request at a time.
type putHarness struct {
	t     *testing.T
	dir   string
	store *storage.FSStore
	srv   *Server
	conns [2]*putConn
	// staged models the server's staging pool: the transfer staged at each
	// seq, as the requests so far have left it.
	staged map[int]*stagedObj
}

// stagedObj is one modelled transfer: the object its PutBegin declared and
// the bytes the server has taken for it.
type stagedObj struct {
	obj putObj
	buf []byte
}

// putConn is the client end of one connection. It mirrors the state the
// server keeps for the connection: the transfer open on it, which a Delete,
// a Truncate or the other connection's PutBegin may have dropped from the
// pool since, and which the other connection may share.
type putConn struct {
	h      *putHarness
	conn   net.Conn
	served chan struct{} // closed when the server's side of conn returns

	open *stagedObj // the transfer the connection has open
}

func newPutHarness(t *testing.T) *putHarness {
	dir := t.TempDir()
	st, err := storage.NewFSStore(dir, storage.Target{Name: "fuzz"})
	if err != nil {
		t.Fatal(err)
	}
	// A staging pool of a few objects, so interleaved cut transfers reach
	// backpressure.
	h := &putHarness{t: t, dir: dir, store: st, srv: NewServer(st, ServerConfig{MaxStagingBytes: 1 << 10}),
		staged: make(map[int]*stagedObj)}
	for i := range h.conns {
		h.conns[i] = &putConn{h: h}
		h.conns[i].connect()
	}
	return h
}

func (h *putHarness) close() {
	for _, c := range h.conns {
		c.disconnect()
	}
}

// dial opens a connection to the server without a hello.
func (c *putConn) dial() {
	client, server := net.Pipe()
	c.conn, c.served = client, make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		c.h.srv.serveConn(context.Background(), server)
		server.Close()
	}(c.served)
	c.open = nil
}

func (c *putConn) connect() {
	c.dial()
	c.send(kindHello, mustJSON(c.h.t, helloMsg{Version: protocolVersion}))
	if kind, payload := c.reply(); kind != kindHelloOK {
		c.h.t.Fatalf("hello answered 0x%02x %s", kind, payload)
	}
}

func (c *putConn) disconnect() {
	c.conn.Close()
	<-c.served
}

// ended waits for the server to end the connection, then reconnects.
func (c *putConn) ended() {
	select {
	case <-c.served:
	case <-time.After(10 * time.Second):
		c.h.t.Fatal("the server kept the connection open")
	}
	c.disconnect()
	c.connect()
}

func (c *putConn) send(kind byte, payload []byte) {
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(c.conn, kind, payload); err != nil {
		c.h.t.Fatalf("send 0x%02x: %v", kind, err)
	}
}

// reply reads the one frame the server answers every request but a data
// frame with.
func (c *putConn) reply() (byte, []byte) {
	kind, payload, err := readFrame(c.conn, DefaultMaxFrame)
	if err != nil {
		c.h.t.Fatalf("reply: %v", err)
	}
	return kind, payload
}

func mustJSON(t *testing.T, msg any) []byte {
	payload, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// mustHold is the ack invariant: an ack of obj means the store lists its
// seq with exactly its bytes, now.
func (h *putHarness) mustHold(obj *putObj, ack string) {
	h.t.Helper()
	listed, chain, _, err := h.store.GetSeqs(context.Background(), fuzzProc, []int{obj.seq})
	if err != nil || len(chain) != 1 || !bytes.Equal(chain[0].Data, obj.data) {
		h.t.Fatalf("%s for seq %d (crc %08x), but the store lists %v and holds %d matching copies (err %v)",
			ack, obj.seq, obj.crc, listed, len(chain), err)
	}
}

// checkStaging is the staging invariant: the declared reservation is the
// sum of the staged transfers' sizes, so it is 0 once none is staged; the
// model's pool is the server's, seq for seq, staged byte for byte; and each
// transfer's running checksum is the objectCRC of its staged bytes.
func (h *putHarness) checkStaging() {
	h.t.Helper()
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	var sum int64
	for key, st := range h.srv.staging {
		sum += st.size
		if st.sum != objectCRC(st.buf) {
			h.t.Fatalf("seq %d stages %d bytes of objectCRC %08x, but its running checksum reads %08x", key.seq, len(st.buf), objectCRC(st.buf), st.sum)
		}
		if m := h.staged[key.seq]; m == nil || int64(len(m.obj.data)) != st.size || !bytes.Equal(m.buf, st.buf) {
			modelled := "nothing"
			if m != nil {
				modelled = fmt.Sprintf("%d of %d bytes", len(m.buf), len(m.obj.data))
			}
			h.t.Fatalf("the server stages %d of %d bytes at seq %d, the model %s", len(st.buf), st.size, key.seq, modelled)
		}
	}
	if len(h.staged) != len(h.srv.staging) {
		h.t.Fatalf("the server stages %d transfers, the model %d", len(h.srv.staging), len(h.staged))
	}
	if declared := h.srv.stagingDeclared; declared != sum {
		h.t.Fatalf("staging pool declares %d bytes for %d staged transfers of %d bytes", declared, len(h.srv.staging), sum)
	}
}

// unstage drops st from the modelled pool, if it is still the transfer
// staged at its seq.
func (h *putHarness) unstage(st *stagedObj) {
	if h.staged[st.obj.seq] == st {
		delete(h.staged, st.obj.seq)
	}
}

// forget drops the modelled transfers whose seq matches drop, as a Delete
// or a Truncate the server answered OK does.
func (h *putHarness) forget(drop func(seq int) bool) {
	for seq := range h.staged {
		if drop(seq) {
			delete(h.staged, seq)
		}
	}
}

// step runs operation op%numOps on connection op/numOps%2.
func (h *putHarness) step(op, arg byte) {
	c := h.conns[op/numOps%2]
	switch op % numOps {
	case opBegin:
		obj := fuzzObj(arg)
		c.send(kindPutBegin, mustJSON(h.t, putBeginMsg{procMsg: procMsg{Proc: fuzzProc}, Seq: obj.seq, Size: int64(len(obj.data)), CRC: obj.crc}))
		c.open = nil
		kind, payload := c.reply()
		if kind != kindPutOffset {
			return
		}
		var off putOffsetMsg
		if err := decodeJSON(payload, &off); err != nil {
			h.t.Fatal(err)
		}
		// The staged transfer resumes when it declared the same size and
		// checksum; otherwise the begin replaced it with an empty one.
		st := h.staged[obj.seq]
		if st == nil || len(st.obj.data) != len(obj.data) || st.obj.crc != obj.crc {
			st = &stagedObj{obj: obj}
			h.staged[obj.seq] = st
		}
		if off.Offset != int64(len(st.buf)) {
			h.t.Fatalf("PutBegin of seq %d offers offset %d, staged %d", obj.seq, off.Offset, len(st.buf))
		}
		c.open = st
	case opData:
		st := c.open
		var offset int
		var chunk []byte
		if st != nil {
			offset = len(st.buf)
			rest := st.obj.data[offset:]
			n := min(len(rest), []int{16, 64, 256, len(rest)}[arg&3])
			chunk = append([]byte(nil), rest[:n]...)
		}
		if len(chunk) == 0 {
			chunk = []byte{0} // past the declared size, or outside a transfer
		}
		if arg&4 != 0 {
			chunk[0] ^= 0x80
		}
		if arg&8 != 0 {
			offset++
		}
		c.send(kindPutData, dataFrame(int64(offset), chunk))
		// A data frame gets no reply. One the transfer cannot take ends the
		// connection; the staged prefix stays.
		if st == nil || offset != len(st.buf) || offset+len(chunk) > len(st.obj.data) {
			c.ended()
			return
		}
		st.buf = append(st.buf, chunk...)
		// Nothing answers the frame, so a List behind it on the connection
		// marks it applied before the model is compared with the server —
		// and its reply must be the first frame the server sends.
		c.send(kindList, nil)
		if kind, payload := c.reply(); kind != kindProcs {
			h.t.Fatalf("List after a data frame answered 0x%02x %s", kind, payload)
		}
	case opCommit:
		c.send(kindPutCommit, nil)
		st := c.open
		c.open = nil
		if st != nil && len(st.buf) == len(st.obj.data) && objectCRC(st.buf) != st.obj.crc {
			// Damaged in flight: the commit ends the connection and drops
			// the staging, so the retry starts the object over.
			h.unstage(st)
			c.ended()
			return
		}
		kind, payload := c.reply()
		switch {
		case kind == kindPutDone && st == nil:
			h.t.Fatalf("commit outside a transfer answered done")
		case kind == kindPutDone:
			h.mustHold(&st.obj, "PutCommit answered done")
			h.unstage(st)
		case kind != kindErr:
			h.t.Fatalf("commit answered 0x%02x %s", kind, payload)
		}
	case opCut:
		c.disconnect()
		c.connect()
	case opDelete:
		c.send(kindDelete, mustJSON(h.t, procMsg{Proc: fuzzProc}))
		if kind, _ := c.reply(); kind == kindOK {
			h.forget(func(int) bool { return true })
		}
	case opTruncate:
		c.send(kindTruncate, mustJSON(h.t, truncateMsg{procMsg: procMsg{Proc: fuzzProc}, FullSeq: int(arg % 6)}))
		if kind, _ := c.reply(); kind == kindOK {
			h.forget(func(seq int) bool { return seq < int(arg%6) })
		}
	case opFlipScrub:
		path := filepath.Join(h.dir, storage.ProcDirName(fuzzProc), fmt.Sprintf("ckpt-%08d.aic", arg%5))
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			if err := storage.FlipBit(path, int(arg)%int(fi.Size()), uint(arg%8)); err != nil {
				h.t.Fatal(err)
			}
		}
		c.send(kindScrub, mustJSON(h.t, scrubMsg{procMsg: procMsg{Proc: fuzzProc}, Repair: true}))
		c.reply()
	case opNoHello:
		// The request is refused and the connection closed; the store keeps
		// what it held.
		before := h.storeBytes()
		c.disconnect()
		c.dial()
		obj := fuzzObj(arg)
		c.send(kindPutBegin, mustJSON(h.t, putBeginMsg{procMsg: procMsg{Proc: fuzzProc}, Seq: obj.seq, Size: int64(len(obj.data)), CRC: obj.crc}))
		if kind, payload := c.reply(); kind != kindErr {
			h.t.Fatalf("PutBegin before the hello answered 0x%02x %s", kind, payload)
		}
		<-c.served
		if after := h.storeBytes(); !reflect.DeepEqual(before, after) {
			h.t.Fatalf("a connection without a hello changed the store: %v -> %v", before, after)
		}
		c.disconnect()
		c.connect()
	}
}

// storeBytes is the backing store's whole chain of fuzzProc, seq by seq.
func (h *putHarness) storeBytes() map[int]string {
	h.t.Helper()
	chain, _, err := h.store.Get(context.Background(), fuzzProc)
	if err != nil {
		h.t.Fatal(err)
	}
	out := make(map[int]string, len(chain))
	for _, el := range chain {
		out[el.Seq] = string(el.Data)
	}
	return out
}

// fuzzOps encodes a sequence of (op, arg) pairs as fuzz input.
func fuzzOps(pairs ...[2]byte) []byte {
	var out []byte
	for _, p := range pairs {
		out = append(out, p[0], p[1])
	}
	return out
}

// FuzzServerPutProtocol drives one replication server through fuzz-chosen
// sequences of put-protocol requests on two connections — begins, data,
// data the transfer cannot take, commits, commits outside a transfer, cuts
// with resume, Delete, Truncate, Scrub repairs of flipped elements, and
// connections that skip the hello — against a model of the staging pool.
// A data frame gets no reply; one the model says the transfer cannot take
// must end the connection, and so must a commit of bytes that fail their
// declared checksum, which also drops the staging. After every step it
// checks that every ack (a commit answered done) means the backing store
// lists that seq with exactly those bytes at that moment, that every
// PutBegin offers the modelled staged offset, that the server's staging
// pool is the model's, with each running checksum that of its bytes, and
// that its declared bytes are the sum of the staged transfers.
func FuzzServerPutProtocol(f *testing.F) {
	all := byte(3)        // opData arg: the whole rest of the object
	other := byte(numOps) // added to an op, runs it on the second connection
	put := func(seq byte) [][2]byte {
		return [][2]byte{{opBegin, seq}, {opData, all}, {opCommit, 0}}
	}
	// The ghost ack: a Scrub repair drops the flipped tail, and the identical
	// re-Put must store it again, not be acked from memory of the first commit.
	var ghost [][2]byte
	for seq := byte(0); seq < 4; seq++ {
		ghost = append(ghost, put(seq)...)
	}
	ghost = append(ghost, [2]byte{opFlipScrub, 3})
	ghost = append(ghost, put(3)...)
	f.Add(fuzzOps(ghost...))
	// A different frame at a held seq: every frame has the same whole-object
	// CRC-32C, so only the bytes can tell it is not the one stored.
	f.Add(fuzzOps(append(put(1), [2]byte{opBegin, 1 + 5}, [2]byte{opData, all}, [2]byte{opCommit, 0}, [2]byte{opCommit, 0})...))
	// A whole staged frame left uncommitted, then a different frame of the
	// same size at its seq: the stale staging must not commit as the new one.
	f.Add(fuzzOps([2]byte{opBegin, 0}, [2]byte{opData, all}, [2]byte{opCut, 0},
		[2]byte{opBegin, 0 + 15}, [2]byte{opCommit, 0}))
	// A connection that skips the hello, mid-transfer on the other one.
	f.Add(fuzzOps([2]byte{opBegin, 1}, [2]byte{opData, all}, [2]byte{opNoHello + other, 1 + 15},
		[2]byte{opCommit, 0}, [2]byte{opNoHello, 1}))
	// A cut mid-transfer, the resume, and a second commit with no transfer open.
	f.Add(fuzzOps([2]byte{opBegin, 0}, [2]byte{opData, 0}, [2]byte{opCut, 0},
		[2]byte{opBegin, 0}, [2]byte{opData, all}, [2]byte{opCommit, 0}, [2]byte{opCommit, 0}))
	// Corrupted data fails its commit, which ends the connection and drops
	// the staging; a bare second commit must not ack it.
	f.Add(fuzzOps([2]byte{opBegin, 1}, [2]byte{opData, all | 4}, [2]byte{opCommit, 0}, [2]byte{opCommit, 0}))
	// One connection's Delete orphans the other's open transfer, whose
	// commit must not release the transfer the first connection stages next.
	f.Add(fuzzOps([2]byte{opBegin, 2}, [2]byte{opData, all}, [2]byte{opDelete + other, 0},
		[2]byte{opBegin + other, 2 + 5}, [2]byte{opCommit, 0}))
	// Truncation and deletion under open transfers, and re-Puts below the cut.
	f.Add(fuzzOps(append(append(put(0), put(1)...),
		[2]byte{opBegin, 2}, [2]byte{opData, 1}, [2]byte{opTruncate, 1}, [2]byte{opBegin, 0},
		[2]byte{opCut, 0}, [2]byte{opDelete, 0}, [2]byte{opBegin, 5}, [2]byte{opData, all}, [2]byte{opCommit, 0})...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		h := newPutHarness(t)
		defer h.close()
		for i := 0; i+1 < len(ops); i += 2 {
			h.step(ops[i], ops[i+1])
			h.checkStaging()
		}
		// Deleting the chain ends every transfer of it.
		h.step(opDelete, 0)
		h.srv.mu.Lock()
		declared := h.srv.stagingDeclared
		h.srv.mu.Unlock()
		if declared != 0 {
			t.Fatalf("staging pool declares %d bytes after the chain was deleted", declared)
		}
	})
}
