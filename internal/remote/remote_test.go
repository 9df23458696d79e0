package remote

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/numeric"
	"aic/internal/storage"
)

var ctx = context.Background()

// startServer serves store on a loopback listener and returns its address.
func startServer(t *testing.T, store storage.Store) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerConfig{IdleTimeout: 30 * time.Second})
	go srv.Serve(context.Background(), ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// testConfig keeps retries fast and deterministic for loopback tests.
func testConfig() Config {
	return Config{
		DialTimeout: 2 * time.Second,
		OpTimeout:   10 * time.Second,
		Retries:     3,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		rng:         rand.New(rand.NewSource(1)),
		chunkSize:   128,
	}
}

// buildChain makes a real full+3-delta checkpoint chain with reference
// images, so restores can be checked byte-for-byte.
func buildChain(t *testing.T) (chain []storage.Stored, images []*memsim.AddressSpace) {
	t.Helper()
	rng := numeric.NewRNG(7)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 16)
	buf := make([]byte, 512)
	for i := uint64(0); i < 8; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	chain = append(chain, storage.Stored{Seq: 0, Data: b.FullCheckpoint(as).Encode()})
	images = append(images, as.Clone())
	for step := 1; step <= 3; step++ {
		rng.Bytes(buf[:96])
		as.Write(uint64(step%8), 0, buf[:96], float64(step))
		c, _ := b.DeltaCheckpoint(as)
		chain = append(chain, storage.Stored{Seq: step, Data: c.Encode()})
		images = append(images, as.Clone())
	}
	return chain, images
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the payload")
	if err := writeFrame(&buf, kindPutData, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindPutData || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = 0x%02x %q", kind, got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, kindGet, []byte("x")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5] ^= 0xff // flip a payload bit; the CRC must catch it
	if _, _, err := readFrame(bytes.NewReader(raw), DefaultMaxFrame); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

func TestRemoteStoreRoundTrip(t *testing.T) {
	chain, images := buildChain(t)
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	rs := NewStore(startServer(t, backing), testConfig())
	defer rs.Close()

	for _, el := range chain {
		if err := rs.Put(ctx, "p0", el.Seq, el.Data); err != nil {
			t.Fatalf("put seq %d: %v", el.Seq, err)
		}
	}
	got, missing, err := rs.Get(ctx, "p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 || len(got) != len(chain) {
		t.Fatalf("got %d elements, missing %v", len(got), missing)
	}
	for i, el := range got {
		if el.Seq != chain[i].Seq || !bytes.Equal(el.Data, chain[i].Data) {
			t.Fatalf("element %d differs", i)
		}
	}

	// The chain restored from the wire is byte-identical to the source.
	decoded := make([]*ckpt.Checkpoint, len(got))
	for i, el := range got {
		c, err := ckpt.Decode(el.Data)
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = c
	}
	as, err := ckpt.Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !as.Equal(images[len(images)-1]) {
		t.Fatal("restored image differs from source")
	}

	procs, err := rs.List(ctx)
	if err != nil || len(procs) != 1 || procs[0] != "p0" {
		t.Fatalf("List = %v, %v", procs, err)
	}
	rep, err := rs.Scrub(ctx, "p0", false)
	if err != nil || len(rep.Corrupt) != 0 {
		t.Fatalf("Scrub = %+v, %v", rep, err)
	}
	if err := rs.Truncate(ctx, "p0", 0); err != nil {
		t.Fatal(err)
	}
	if err := rs.Delete(ctx, "p0"); err != nil {
		t.Fatal(err)
	}
	procs, err = rs.List(ctx)
	if err != nil || len(procs) != 0 {
		t.Fatalf("List after delete = %v, %v", procs, err)
	}
}

func TestRemotePutIdempotent(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	rs := NewStore(startServer(t, backing), testConfig())
	defer rs.Close()

	data := bytes.Repeat([]byte("d"), 1000)
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatal(err)
	}
	// Same bytes again (a retry after a lost ack): succeeds without error.
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
	// Different bytes under the same seq: refused, and the sentinel
	// survives the network round trip.
	err := rs.Put(ctx, "p0", 0, []byte("different"))
	if err == nil {
		t.Fatal("conflicting re-put accepted")
	}
	// A stale lower seq maps back to storage.ErrStaleSeq.
	if err := rs.Put(ctx, "p0", 1, data); err != nil {
		t.Fatal(err)
	}
	err = rs.Put(ctx, "p0", 0, []byte("zzz"))
	if err == nil {
		t.Fatal("stale seq accepted")
	}
}

// The server keeps no commit cache to invalidate any more — the store is its
// only commit record — but a chain deleted through it must still be
// rebuildable: re-Put, not acked, and not refused as a conflict.
func TestDeleteInvalidatesCommittedCache(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	rs := NewStore(startServer(t, backing), testConfig())
	defer rs.Close()

	data := bytes.Repeat([]byte("d"), 600)
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatal(err)
	}
	if err := rs.Delete(ctx, "p0"); err != nil {
		t.Fatal(err)
	}
	// Re-Put of the same (proc, seq, bytes) must actually write: the store
	// holds nothing, so nothing may ack it.
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatalf("re-put after delete: %v", err)
	}
	if got := mustGetBytes(t, rs, "p0", 0); !bytes.Equal(got, data) {
		t.Fatal("re-put after delete stored wrong bytes")
	}
	// And a rebuilt chain with different content must not be condemned as a
	// conflict with the deleted chain.
	if err := rs.Delete(ctx, "p0"); err != nil {
		t.Fatal(err)
	}
	other := bytes.Repeat([]byte("e"), 600)
	if err := rs.Put(ctx, "p0", 0, other); err != nil {
		t.Fatalf("rebuilding the chain after delete: %v", err)
	}
	if got := mustGetBytes(t, rs, "p0", 0); !bytes.Equal(got, other) {
		t.Fatal("rebuilt chain stored wrong bytes")
	}
}

// A truncation through the server leaves no memory of the dropped seqs: the
// store, which no longer lists them, decides what a re-Put gets.
func TestTruncateInvalidatesCommittedCache(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	rs := NewStore(startServer(t, backing), testConfig())
	defer rs.Close()

	for seq := 0; seq < 3; seq++ {
		if err := rs.Put(ctx, "p0", seq, bytes.Repeat([]byte{byte('a' + seq)}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Truncate(ctx, "p0", 2); err != nil {
		t.Fatal(err)
	}
	// The truncated seqs are gone from the store; a re-Put below the cut
	// must be refused honestly (the chain tail is still seq 2), not acked.
	err := rs.Put(ctx, "p0", 1, bytes.Repeat([]byte{'b'}, 300))
	if !errors.Is(err, storage.ErrStaleSeq) {
		t.Fatalf("re-put below the truncation cut = %v, want ErrStaleSeq", err)
	}
	// The surviving seq is untouched and still idempotently re-puttable.
	if err := rs.Put(ctx, "p0", 2, bytes.Repeat([]byte{'c'}, 300)); err != nil {
		t.Fatalf("re-put of surviving seq: %v", err)
	}
}

func TestRemoteStaleSeqSentinel(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	rs := NewStore(startServer(t, backing), testConfig())
	defer rs.Close()
	if err := rs.Put(ctx, "p0", 5, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	err := rs.Put(ctx, "p0", 3, []byte("older"))
	if !errors.Is(err, storage.ErrStaleSeq) {
		t.Fatalf("err = %v, want ErrStaleSeq across the wire", err)
	}
}

func TestPeerDarkAfterRetryBudget(t *testing.T) {
	cfg := testConfig()
	cfg.Dialer = &FaultDialer{Plan: func(int) Fault { return Fault{FailDial: true} }}
	rs := NewStore("127.0.0.1:1", cfg) // never actually dialed
	defer rs.Close()
	start := time.Now()
	err := rs.Put(ctx, "p0", 0, []byte("x"))
	if !errors.Is(err, ErrPeerDark) {
		t.Fatalf("err = %v, want ErrPeerDark", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("retry budget took %v; backoff not capped?", d)
	}
	fd := cfg.Dialer.(*FaultDialer)
	if fd.dials() != cfg.Retries+1 {
		t.Fatalf("dial attempts = %d, want %d", fd.dials(), cfg.Retries+1)
	}
}

func TestSlowPeerStillCompletes(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "slow"})
	addr := startServer(t, backing)
	cfg := testConfig()
	cfg.Dialer = &FaultDialer{Plan: func(int) Fault { return Fault{WriteDelay: 2 * time.Millisecond} }}
	rs := NewStore(addr, cfg)
	defer rs.Close()
	data := bytes.Repeat([]byte("s"), 2048) // 16 delayed chunks
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatal(err)
	}
	if got := mustGetBytes(t, rs, "p0", 0); !bytes.Equal(got, data) {
		t.Fatal("slow-peer put stored wrong bytes")
	}
}

func TestSlowPeerDeadlineExceeded(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "stuck"})
	addr := startServer(t, backing)
	cfg := testConfig()
	cfg.OpTimeout = 30 * time.Millisecond
	cfg.Retries = 1
	cfg.Dialer = &FaultDialer{Plan: func(int) Fault { return Fault{WriteDelay: 50 * time.Millisecond} }}
	rs := NewStore(addr, cfg)
	defer rs.Close()
	err := rs.Put(ctx, "p0", 0, bytes.Repeat([]byte("s"), 4096))
	if !errors.Is(err, ErrPeerDark) {
		t.Fatalf("err = %v, want ErrPeerDark after deadline-bound retries", err)
	}
}

func TestHelloVersionMismatch(t *testing.T) {
	backing := storage.NewMemStore(storage.Target{Name: "peer"})
	addr := startServer(t, backing)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSON(conn, kindHello, helloMsg{Version: 99}); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := readFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindErr {
		t.Fatalf("frame = 0x%02x, want error", kind)
	}
	if err := asRemoteErr(payload); err == nil {
		t.Fatal("no error decoded")
	}
}

// mustGetBytes fetches one element over the wire.
func mustGetBytes(t *testing.T, s storage.Store, proc string, seq int) []byte {
	t.Helper()
	chain, _, err := s.Get(ctx, proc)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range chain {
		if el.Seq == seq {
			return el.Data
		}
	}
	t.Fatalf("seq %d not stored", seq)
	return nil
}
