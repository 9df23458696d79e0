package remote

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"aic/internal/storage"
)

// startServerCfg is startServer with a caller-controlled config, for
// pinning MaxStagingBytes.
func startServerCfg(t *testing.T, store storage.Store, cfg ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	srv := NewServer(store, cfg)
	go srv.Serve(context.Background(), ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestV2TenantKeys drives composed (tenant@proc#stripe) keys through a
// client↔server pair and checks the backing store holds the same flat keys
// the namespacing layer composed — the wire decomposition must be the
// identity on ComposeKey∘ParseKey.
func TestV2TenantKeys(t *testing.T) {
	back := storage.NewMemStore(storage.Target{Name: "peer"})
	_, addr := startServerCfg(t, back, ServerConfig{})
	rs := NewStore(addr, testConfig())
	defer rs.Close()

	keys := []string{
		"web",             // default namespace, legacy shape
		"acme@web",        // tenant-qualified
		"acme@web#s1of3",  // stripe chain
		"globex@db#s0of2", // another tenant's stripe
	}
	for _, key := range keys {
		if err := rs.Put(ctx, key, 0, []byte("data-"+key)); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
	}
	for _, key := range keys {
		// The flat key round-trips through the client...
		chain, _, err := rs.Get(ctx, key)
		if err != nil || len(chain) != 1 || string(chain[0].Data) != "data-"+key {
			t.Fatalf("Get(%s) = (%v, %v), want the stored element", key, chain, err)
		}
		// ...and lands under the identical flat key on the backing store.
		direct, _, err := back.Get(ctx, key)
		if err != nil || len(direct) != 1 {
			t.Fatalf("backing store missing flat key %s: %v", key, err)
		}
	}

	// A malformed stripe label is refused by the server's validation.
	err := rs.Put(ctx, "acme@web#bogus", 0, []byte("x"))
	if !errors.Is(err, storage.ErrBadProcName) {
		t.Fatalf("malformed stripe label: %v, want ErrBadProcName", err)
	}
}

// TestServerRefusesRequestsBeforeHello pins the one dialect: a connection
// whose first frame is not a hello naming exactly protocolVersion is refused
// and closed before any request reaches the store — here a whole transfer of
// a key the server's own validation refuses.
func TestServerRefusesRequestsBeforeHello(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hello *helloMsg
	}{
		{"no hello", nil},
		{"hello v1", &helloMsg{Version: 1}},
		{"hello v2", &helloMsg{Version: 2}},
		{"hello v3", &helloMsg{Version: 3}},
		{"hello v4", &helloMsg{Version: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := storage.NewMemStore(storage.Target{Name: "peer"})
			_, addr := startServerCfg(t, back, ServerConfig{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			data := []byte("bogus")
			var out []byte
			if tc.hello != nil {
				out = appendFrame(out, kindHello, mustJSON(t, tc.hello))
			}
			out = appendFrame(out, kindPutBegin, mustJSON(t, putBeginMsg{
				procMsg: procMsg{Proc: "acme@web#bogus"}, Size: int64(len(data)), CRC: objectCRC(data)}))
			out = appendDataFrame(out, 0, data)
			out = appendFrame(out, kindPutCommit, nil)
			conn.Write(out) // the server may close before it reads it all

			// Every reply is a refusal, and the connection ends: a read that
			// times out instead means the server kept serving it.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for {
				kind, payload, err := readFrame(conn, DefaultMaxFrame)
				if err != nil {
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						t.Fatal("the connection stayed open")
					}
					break
				}
				if kind != kindErr {
					t.Fatalf("answered 0x%02x %s before a valid hello", kind, payload)
				}
			}
			if procs, err := back.List(ctx); err != nil || len(procs) != 0 {
				t.Fatalf("store lists %v (err %v), want nothing", procs, err)
			}
		})
	}
}

// TestQuotaOverWire maps a server-side quota rejection back onto the
// storage.ErrQuotaExceeded sentinel at the client: terminal, no retries.
func TestQuotaOverWire(t *testing.T) {
	back := storage.NewMemStore(storage.Target{Name: "peer"})
	qs := storage.NewQuotaStore(back, storage.Quota{MaxBytes: 64})
	_, addr := startServerCfg(t, qs, ServerConfig{})
	rs := NewStore(addr, testConfig())
	defer rs.Close()

	if err := rs.Put(ctx, "acme@small", 0, make([]byte, 32)); err != nil {
		t.Fatalf("under-quota Put: %v", err)
	}
	start := time.Now()
	err := rs.Put(ctx, "acme@big", 0, make([]byte, 64))
	if !errors.Is(err, storage.ErrQuotaExceeded) {
		t.Fatalf("over-quota Put: %v, want ErrQuotaExceeded", err)
	}
	// Terminal means no backoff was consumed: even this fast test schedule
	// would take >4ms if the client retried through the budget.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("quota rejection took %v; looks like it retried", d)
	}
}

// TestBackpressureAdmission pins the staging-pool bookkeeping directly:
// reservations admit against declared sizes, oversize objects are terminal
// (they could never stage), and releases return reservation.
func TestBackpressureAdmission(t *testing.T) {
	back := storage.NewMemStore(storage.Target{Name: "peer"})
	s := NewServer(back, ServerConfig{MaxStagingBytes: 100})

	begin := func(proc string, size int64) error {
		_, _, err := s.beginPut(proc, putBeginMsg{Size: size})
		return err
	}
	if err := begin("a", 80); err != nil {
		t.Fatalf("first reservation: %v", err)
	}
	if err := begin("b", 80); !errors.Is(err, errBackpressure) {
		t.Fatalf("over-pool reservation: %v, want errBackpressure", err)
	}
	// Larger than the whole pool: terminal, not backpressure.
	if err := begin("c", 150); err == nil || errors.Is(err, errBackpressure) {
		t.Fatalf("oversize object: %v, want terminal error", err)
	}
	// Releasing the first transfer frees its reservation for the second.
	s.forget("a", func(int) bool { return true })
	if err := begin("b", 80); err != nil {
		t.Fatalf("reservation after release: %v", err)
	}
}

// TestBackpressureRetry exercises the client half of the contract: a Put
// refused for backpressure is retried with backoff and succeeds once the
// server's staging pool drains.
func TestBackpressureRetry(t *testing.T) {
	back := storage.NewMemStore(storage.Target{Name: "peer"})
	srv, addr := startServerCfg(t, back, ServerConfig{MaxStagingBytes: 100})

	// Pin most of the pool with a dangling partial transfer.
	if _, _, err := srv.beginPut("hog", putBeginMsg{Size: 90}); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Retries = 8
	rs := NewStore(addr, cfg)
	defer rs.Close()

	// Drain the pool shortly after the first refusal.
	go func() {
		time.Sleep(20 * time.Millisecond)
		srv.forget("hog", func(int) bool { return true })
	}()
	if err := rs.Put(ctx, "acme@web", 0, make([]byte, 50)); err != nil {
		t.Fatalf("Put through backpressure: %v", err)
	}
	chain, _, err := back.Get(ctx, "acme@web")
	if err != nil || len(chain) != 1 {
		t.Fatalf("object did not land after retry: (%v, %v)", chain, err)
	}
}

// TestMigrationPutOverWire pins that the migrate flag crosses the wire: a
// rebalance copy lands on a peer whose tenant is already at quota.
func TestMigrationPutOverWire(t *testing.T) {
	back := storage.NewMemStore(storage.Target{Name: "peer"})
	qs := storage.NewQuotaStore(back, storage.Quota{MaxBytes: 64})
	_, addr := startServerCfg(t, qs, ServerConfig{})
	rs := NewStore(addr, testConfig())
	defer rs.Close()

	if err := rs.Put(ctx, "acme@db", 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := rs.Put(ctx, "acme@web", 0, make([]byte, 16)); !errors.Is(err, storage.ErrQuotaExceeded) {
		t.Fatalf("ordinary Put at quota: %v, want ErrQuotaExceeded", err)
	}
	if err := rs.Put(storage.WithMigration(ctx), "acme@web", 0, make([]byte, 16)); err != nil {
		t.Fatalf("migration Put at quota: %v, want nil", err)
	}
	if chain, _, err := rs.Get(ctx, "acme@web"); err != nil || len(chain) != 1 {
		t.Fatalf("migrated chain = (%d elems, %v)", len(chain), err)
	}
}
