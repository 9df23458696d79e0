package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"aic/internal/metrics"
)

// usageOf returns the tenant's accounted bytes and user-chain count,
// zero for a tenant whose ledger is not seeded yet.
func usageOf(q *QuotaStore, tenant string) (bytes int64, chains int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	u := q.usage[tenant]
	if u == nil {
		return 0, 0
	}
	return u.bytes, u.chainCount()
}

func TestQuotaExactlyAtLimit(t *testing.T) {
	ctx := context.Background()
	qs := NewQuotaStore(NewMemStore(Target{Name: "mem"}), Quota{MaxBytes: 100})

	// 60 + 40 lands exactly on the limit: admitted.
	if err := qs.Put(ctx, "acme@db", 1, make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if err := qs.Put(ctx, "acme@db", 2, make([]byte, 40)); err != nil {
		t.Fatalf("exactly-at-limit Put = %v, want nil", err)
	}
	// One byte past the limit is refused, typed.
	err := qs.Put(ctx, "acme@db", 3, make([]byte, 1))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-limit Put = %v, want ErrQuotaExceeded", err)
	}
	if bytes, chains := usageOf(qs, "acme"); bytes != 100 || chains != 1 {
		t.Fatalf("Usage = (%d, %d), want (100, 1)", bytes, chains)
	}
}

func TestQuotaShrinkBelowUsage(t *testing.T) {
	// A daemon restarted with a smaller quota than the tenant already
	// uses: the ledger seeds from the store's contents.
	ctx := context.Background()
	inner := NewMemStore(Target{Name: "mem"})
	if err := inner.Put(ctx, "acme@db", 1, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	qs := NewQuotaStore(inner, Quota{MaxBytes: 100})
	// Existing data stays readable...
	chain, _, err := qs.Get(ctx, "acme@db")
	if err != nil || len(chain) != 1 {
		t.Fatalf("Get after shrink = (%v, %v)", chain, err)
	}
	// ...but further admission is refused until usage drops.
	if err := qs.Put(ctx, "acme@db", 2, make([]byte, 1)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Put after shrink = %v, want ErrQuotaExceeded", err)
	}
	if err := qs.Delete(ctx, "acme@db"); err != nil {
		t.Fatal(err)
	}
	if err := qs.Put(ctx, "acme@db", 3, make([]byte, 100)); err != nil {
		t.Fatalf("Put after freeing usage = %v, want nil", err)
	}
}

func TestQuotaConcurrentRace(t *testing.T) {
	// 20 writers race 100-byte Puts into a 1000-byte quota: exactly 10 can
	// win, and joint admission must never overshoot.
	ctx := context.Background()
	qs := NewQuotaStore(NewMemStore(Target{Name: "mem"}), Quota{MaxBytes: 1000})
	reg := metrics.NewRegistry()
	qs.SetMetrics(reg)

	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = qs.Put(ctx, fmt.Sprintf("acme@p%02d", i), 1, make([]byte, 100))
		}(i)
	}
	wg.Wait()

	admitted, rejected := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQuotaExceeded):
			rejected++
		default:
			t.Fatalf("unexpected Put error: %v", err)
		}
	}
	if admitted != 10 || rejected != 10 {
		t.Fatalf("admitted %d, rejected %d; want 10/10", admitted, rejected)
	}
	if bytes, _ := usageOf(qs, "acme"); bytes != 1000 {
		t.Fatalf("usage = %d, want exactly 1000", bytes)
	}
	if v, ok := reg.Value("aic_tenant_quota_rejects_total", "acme"); !ok || v != 10 {
		t.Fatalf("rejects metric = (%v, %v), want 10", v, ok)
	}
	if v, ok := reg.Value("aic_tenant_usage_bytes", "acme"); !ok || v != 1000 {
		t.Fatalf("usage metric = (%v, %v), want 1000", v, ok)
	}
}

func TestQuotaChainsLimit(t *testing.T) {
	ctx := context.Background()
	qs := NewQuotaStore(NewMemStore(Target{Name: "mem"}), Quota{MaxChains: 2})

	if err := qs.Put(ctx, "acme@a", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := qs.Put(ctx, "acme@b", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A third distinct chain is refused...
	if err := qs.Put(ctx, "acme@c", 1, []byte("x")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third chain = %v, want ErrQuotaExceeded", err)
	}
	// ...but appending to an existing chain is fine, and so are stripe
	// chains riding on an admitted proc.
	if err := qs.Put(ctx, "acme@a", 2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := qs.Put(ctx, ComposeKey("acme", "a", StripeLabel(0, 2)), 1, []byte("s")); err != nil {
		t.Fatalf("stripe chain counted against MaxChains: %v", err)
	}
	// Other tenants have their own budget.
	if err := qs.Put(ctx, "globex@a", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaSeedsFromExistingStore(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore(Target{Name: "mem"})
	if err := inner.Put(ctx, "acme@db", 1, make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	if err := inner.Put(ctx, "legacy", 1, make([]byte, 9000)); err != nil {
		t.Fatal(err)
	}

	qs := NewQuotaStore(inner, Quota{MaxBytes: 100})
	// Pre-existing usage counts: 80 resident + 30 would overshoot.
	if err := qs.Put(ctx, "acme@db", 2, make([]byte, 30)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Put over seeded usage = %v, want ErrQuotaExceeded", err)
	}
	if err := qs.Put(ctx, "acme@db", 2, make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	// The legacy chain seeded the default tenant's ledger, not acme's.
	if bytes, _ := usageOf(qs, "acme"); bytes != 100 {
		t.Fatalf("acme usage = %d, want 100", bytes)
	}
}

func TestQuotaTruncateReturnsBytes(t *testing.T) {
	ctx := context.Background()
	qs := NewQuotaStore(NewMemStore(Target{Name: "mem"}), Quota{MaxBytes: 100})

	if err := qs.Put(ctx, "acme@db", 1, make([]byte, 70)); err != nil {
		t.Fatal(err)
	}
	if err := qs.Put(ctx, "acme@db", 2, make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	if err := qs.Truncate(ctx, "acme@db", 2); err != nil {
		t.Fatal(err)
	}
	if bytes, _ := usageOf(qs, "acme"); bytes != 30 {
		t.Fatalf("usage after truncate = %d, want 30", bytes)
	}
	if err := qs.Put(ctx, "acme@db", 3, make([]byte, 70)); err != nil {
		t.Fatalf("Put into freed capacity = %v", err)
	}
}

func TestQuotaFailedPutReleasesReservation(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore(Target{Name: "mem"})
	qs := NewQuotaStore(inner, Quota{MaxBytes: 100})

	if err := qs.Put(ctx, "acme@db", 5, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	// A stale-seq Put fails in the inner store; its reservation must come back.
	if err := qs.Put(ctx, "acme@db", 5, make([]byte, 50)); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("stale Put = %v, want ErrStaleSeq", err)
	}
	if bytes, _ := usageOf(qs, "acme"); bytes != 50 {
		t.Fatalf("usage after failed Put = %d, want 50", bytes)
	}
	if err := qs.Put(ctx, "acme@db", 6, make([]byte, 50)); err != nil {
		t.Fatalf("capacity leaked by failed Put: %v", err)
	}
}

// TestQuotaMigrationBypassesAdmission pins the rebalance contract: a
// migration-marked Put of committed bytes is never refused by quota
// admission (the data was admitted when first written), but it is still
// accounted, so ordinary Puts afterwards see the true usage.
func TestQuotaMigrationBypassesAdmission(t *testing.T) {
	ctx := context.Background()
	qs := NewQuotaStore(NewMemStore(Target{Name: "mem"}), Quota{MaxBytes: 100, MaxChains: 1})

	if err := qs.Put(ctx, "acme@db", 0, make([]byte, 90)); err != nil {
		t.Fatal(err)
	}
	// Over bytes AND over the chain count — an ordinary Put is refused...
	if err := qs.Put(ctx, "acme@web", 0, make([]byte, 20)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("ordinary over-quota Put = %v, want ErrQuotaExceeded", err)
	}
	// ...but the same write as a migration copy is admitted.
	if err := qs.Put(WithMigration(ctx), "acme@web", 0, make([]byte, 20)); err != nil {
		t.Fatalf("migration Put = %v, want nil", err)
	}
	if bytes, chains := usageOf(qs, "acme"); bytes != 110 || chains != 2 {
		t.Fatalf("Usage = (%d, %d), want (110, 2)", bytes, chains)
	}
	// The transient overshoot is visible to ordinary admission: new writes
	// are refused until usage drops back under the limit.
	if err := qs.Put(ctx, "acme@db", 1, make([]byte, 1)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("post-migration ordinary Put = %v, want ErrQuotaExceeded", err)
	}
	if err := qs.Delete(ctx, "acme@db"); err != nil {
		t.Fatal(err)
	}
	if err := qs.Put(ctx, "acme@web", 1, make([]byte, 10)); err != nil {
		t.Fatalf("Put after release = %v, want nil", err)
	}
}

// TestQuotaReledgerUnreadableChain pins reledger's answer when the inner
// store cannot report a chain's bytes (its invalidated view re-lists, and
// the resync fsync fails): the tenant's ledger is evicted rather than the
// chain booked as empty, so the next Put re-seeds from the store — refused
// over quota once a transient fault clears, and failing closed while the
// store stays down.
func TestQuotaReledgerUnreadableChain(t *testing.T) {
	ctx := context.Background()
	for _, transient := range []bool{true, false} {
		t.Run(fmt.Sprintf("transient=%v", transient), func(t *testing.T) {
			fault := &FaultFS{Inner: NewMemFS(), Transient: transient}
			inner, err := NewFSStoreFS("/", Target{Name: "mem"}, fault)
			if err != nil {
				t.Fatal(err)
			}
			qs := NewQuotaStore(inner, Quota{MaxBytes: 100})
			if err := qs.Put(ctx, "acme@db", 1, make([]byte, 60)); err != nil {
				t.Fatal(err)
			}

			st, err := inner.lockProc(ctx, "acme@db")
			if err != nil {
				t.Fatal(err)
			}
			st.invalidate()
			st.unlock()
			fault.Arm(OpSyncDir, 1, 0)
			qs.reledger("acme", "acme@db")
			if u := qs.usage["acme"]; u != nil {
				t.Fatalf("ledger still resident at %d bytes after an unreadable reledger", u.bytes)
			}

			err = qs.Put(ctx, "acme@db", 2, make([]byte, 50))
			if transient {
				if !errors.Is(err, ErrQuotaExceeded) {
					t.Fatalf("Put over the re-seeded 60 bytes = %v, want ErrQuotaExceeded", err)
				}
				if bytes, _ := usageOf(qs, "acme"); bytes != 60 {
					t.Fatalf("re-seeded usage = %d, want 60", bytes)
				}
				return
			}
			if !errors.Is(err, ErrCrashed) || qs.usage["acme"] != nil {
				t.Fatalf("Put on a downed store = %v (ledger %v), want ErrCrashed and no ledger", err, qs.usage["acme"])
			}
		})
	}
}
