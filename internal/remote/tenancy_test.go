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
// pinning maxVersion (legacy-peer stand-in) and MaxStagingBytes.
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

// TestV2TenantKeys drives composed (tenant@proc#stripe) keys through a v2
// client↔server pair and checks the backing store holds the same flat keys
// the namespacing layer composed — the wire decomposition must be the
// identity on ComposeKey∘ParseKey.
func TestV2TenantKeys(t *testing.T) {
	back := storage.NewLevelStore(storage.Target{Name: "peer"})
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
	if v := rs.ProtocolVersion(); v != protocolVersion {
		t.Fatalf("negotiated version %d, want %d", v, protocolVersion)
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

	// A malformed stripe label is refused by the server's v2 validation.
	err := rs.Put(ctx, "acme@web#bogus", 0, []byte("x"))
	if !errors.Is(err, storage.ErrBadProcName) {
		t.Fatalf("malformed stripe label: %v, want ErrBadProcName", err)
	}
}

// TestV1Downgrade points a v2 client at a legacy (v1-only) server: the
// hello is refused, the client redials speaking v1, and composed keys
// travel verbatim as flat proc names into the old peer's only namespace.
func TestV1Downgrade(t *testing.T) {
	back := storage.NewLevelStore(storage.Target{Name: "legacy"})
	_, addr := startServerCfg(t, back, ServerConfig{maxVersion: protocolVersionV1})
	rs := NewStore(addr, testConfig())
	defer rs.Close()

	key := "acme@web#s0of2"
	if err := rs.Put(ctx, key, 0, []byte("striped bytes")); err != nil {
		t.Fatalf("Put through downgraded connection: %v", err)
	}
	if v := rs.ProtocolVersion(); v != protocolVersionV1 {
		t.Fatalf("negotiated version %d, want %d", v, protocolVersionV1)
	}
	// The old server stored the composed key verbatim.
	chain, _, err := back.Get(ctx, key)
	if err != nil || len(chain) != 1 || string(chain[0].Data) != "striped bytes" {
		t.Fatalf("legacy store Get(%s) = (%v, %v)", key, chain, err)
	}
	// Reads through the same client stay symmetric.
	chain, _, err = rs.Get(ctx, key)
	if err != nil || len(chain) != 1 || string(chain[0].Data) != "striped bytes" {
		t.Fatalf("client Get(%s) = (%v, %v)", key, chain, err)
	}
}

// TestQuotaOverWire maps a server-side quota rejection back onto the
// storage.ErrQuotaExceeded sentinel at the client: terminal, no retries.
func TestQuotaOverWire(t *testing.T) {
	back := storage.NewLevelStore(storage.Target{Name: "peer"})
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
	back := storage.NewLevelStore(storage.Target{Name: "peer"})
	s := NewServer(back, ServerConfig{MaxStagingBytes: 100})

	begin := func(proc string, size int64) error {
		_, _, _, err := s.beginPut(proc, putBeginMsg{Proc: proc, Size: size, Seq: 0})
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
	back := storage.NewLevelStore(storage.Target{Name: "peer"})
	srv, addr := startServerCfg(t, back, ServerConfig{MaxStagingBytes: 100})

	// Pin most of the pool with a dangling partial transfer.
	if _, _, _, err := srv.beginPut("hog", putBeginMsg{Proc: "hog", Size: 90, Seq: 0}); err != nil {
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
	back := storage.NewLevelStore(storage.Target{Name: "peer"})
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
