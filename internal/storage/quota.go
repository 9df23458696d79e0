package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aic/internal/metrics"
)

// ErrQuotaExceeded reports a Put the admission controller refused because
// it would take the tenant past its byte or chain quota. The checkpoint was
// not staged or stored anywhere; match with errors.Is. Callers decide
// whether to shed load, truncate old chains, or surface the rejection.
var ErrQuotaExceeded = errors.New("tenant quota exceeded")

// Quota holds the admission limits every tenant gets. Zero fields are
// unlimited.
type Quota struct {
	// MaxBytes caps the tenant's total stored checkpoint bytes, stripe
	// chains included.
	MaxBytes int64
	// MaxChains caps the tenant's distinct user proc chains (library-derived
	// stripe chains ride on their parent and are not counted).
	MaxChains int
}

// tenantUsage is one tenant's admission ledger: total bytes plus per-key
// byte counts so Delete and Truncate can return capacity precisely.
type tenantUsage struct {
	bytes  int64
	perKey map[string]int64 // composed key → stored bytes
}

// chainCount returns the number of user chains (stripe chains excluded).
func (u *tenantUsage) chainCount() int {
	n := 0
	for key := range u.perKey {
		if _, _, stripe := ParseKey(key); stripe == "" {
			n++
		}
	}
	return n
}

// QuotaStore wraps an FSStore with per-tenant byte/chain admission control,
// every tenant held to one Quota. Tenants are derived from the composed
// key (ParseKey), so the wrapper slots between the replication server and
// its backing store without changing the Store contract: a Put that would
// exceed the tenant's quota fails with ErrQuotaExceeded before any inner
// I/O.
//
// The ledger is seeded lazily per tenant from the inner store's per-chain
// Bytes, then maintained incrementally. Reservation happens under the
// ledger lock before the inner Put, so concurrent Puts racing the last
// bytes of a quota can never jointly overshoot; a failed inner Put
// returns its reservation.
type QuotaStore struct {
	inner *FSStore

	quota Quota // every tenant's limits

	mu    sync.Mutex
	usage map[string]*tenantUsage // tenant → ledger (nil until seeded)

	rejects *metrics.CounterVec // nil unless SetMetrics; nil-safe
	used    *metrics.GaugeVec
}

var (
	_ Store     = (*QuotaStore)(nil)
	_ SeqGetter = (*QuotaStore)(nil)
)

// NewQuotaStore wraps inner, giving every tenant quota.
func NewQuotaStore(inner *FSStore, quota Quota) *QuotaStore {
	return &QuotaStore{
		inner: inner,
		quota: quota,
		usage: make(map[string]*tenantUsage),
	}
}

// SetMetrics instruments the store: rejected admissions and live usage per
// tenant. Call before serving traffic.
func (q *QuotaStore) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	q.rejects = reg.CounterVec("aic_tenant_quota_rejects_total",
		"Puts refused by tenant quota admission control.", "tenant")
	q.used = reg.GaugeVec("aic_tenant_usage_bytes",
		"Stored checkpoint bytes per tenant, as accounted by admission control.", "tenant")
}

// seedTenant loads the tenant's ledger from the inner store if it is not
// resident yet. The inner scan runs outside the ledger lock; a concurrent
// seeding of the same tenant is harmless (first install wins).
func (q *QuotaStore) seedTenant(ctx context.Context, tenant string) (*tenantUsage, error) {
	q.mu.Lock()
	if u := q.usage[tenant]; u != nil {
		q.mu.Unlock()
		return u, nil
	}
	q.mu.Unlock()

	names, err := q.inner.List(ctx)
	if err != nil {
		return nil, err
	}
	u := &tenantUsage{perKey: make(map[string]int64)}
	for _, name := range names {
		if t, _, _ := ParseKey(name); t != tenant {
			continue
		}
		n, err := q.inner.Bytes(name)
		if err != nil {
			return nil, err
		}
		u.perKey[name] = n
		u.bytes += n
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if prior := q.usage[tenant]; prior != nil {
		return prior, nil
	}
	q.usage[tenant] = u
	q.used.With(tenant).Set(float64(u.bytes))
	return u, nil
}

// Put implements Store with quota admission: the tenant's reservation is
// taken under the ledger lock before any inner I/O and returned if the
// inner Put fails, so the accounted usage never exceeds the quota and
// never leaks on failure.
func (q *QuotaStore) Put(ctx context.Context, name string, seq int, data []byte) error {
	tenant, _, stripe := ParseKey(name)
	if err := ValidateTenantName(tenant); err != nil {
		return err
	}
	u, err := q.seedTenant(ctx, tenant)
	if err != nil {
		return err
	}
	quota := q.quota
	// Migration copies (rebalance moving committed chains between peers)
	// were admitted when first written; refusing them here would strand a
	// committed checkpoint. They bypass the limits but stay accounted.
	migrate := IsMigration(ctx)

	q.mu.Lock()
	if !migrate && quota.MaxBytes > 0 && u.bytes+int64(len(data)) > quota.MaxBytes {
		q.mu.Unlock()
		q.rejects.With(tenant).Inc()
		return fmt.Errorf("storage: %w: tenant %s at %d bytes, +%d exceeds %d",
			ErrQuotaExceeded, tenant, u.bytes, len(data), quota.MaxBytes)
	}
	_, haveChain := u.perKey[name]
	if !migrate && !haveChain && stripe == "" && quota.MaxChains > 0 && u.chainCount()+1 > quota.MaxChains {
		q.mu.Unlock()
		q.rejects.With(tenant).Inc()
		return fmt.Errorf("storage: %w: tenant %s at %d chains (limit %d)",
			ErrQuotaExceeded, tenant, u.chainCount(), quota.MaxChains)
	}
	u.bytes += int64(len(data))
	u.perKey[name] += int64(len(data))
	q.used.With(tenant).Set(float64(u.bytes))
	q.mu.Unlock()

	if err := q.inner.Put(ctx, name, seq, data); err != nil {
		q.mu.Lock()
		u.bytes -= int64(len(data))
		u.perKey[name] -= int64(len(data))
		if u.perKey[name] <= 0 && !haveChain {
			delete(u.perKey, name)
		}
		q.used.With(tenant).Set(float64(u.bytes))
		q.mu.Unlock()
		return err
	}
	return nil
}

// reledger refreshes one key's accounted bytes after a mutation whose
// effect on stored bytes the wrapper cannot predict (Truncate, repair).
func (q *QuotaStore) reledger(tenant, name string) {
	q.mu.Lock()
	u := q.usage[tenant]
	q.mu.Unlock()
	if u == nil {
		return // ledger not resident; next seed will see the new state
	}
	n, err := q.inner.Bytes(name)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err != nil {
		// The chain's bytes are unknown, and booking them as zero would let
		// the tenant overshoot: evict the ledger instead. The next Put
		// re-seeds it, failing closed while the chain stays unreadable.
		if q.usage[tenant] == u {
			delete(q.usage, tenant)
		}
		return
	}
	u.bytes += n - u.perKey[name]
	if n == 0 {
		delete(u.perKey, name)
	} else {
		u.perKey[name] = n
	}
	q.used.With(tenant).Set(float64(u.bytes))
}

// Delete implements Store, returning the chain's bytes to the tenant.
func (q *QuotaStore) Delete(ctx context.Context, name string) error {
	if err := q.inner.Delete(ctx, name); err != nil {
		return err
	}
	tenant, _, _ := ParseKey(name)
	q.mu.Lock()
	if u := q.usage[tenant]; u != nil {
		u.bytes -= u.perKey[name]
		delete(u.perKey, name)
		q.used.With(tenant).Set(float64(u.bytes))
	}
	q.mu.Unlock()
	return nil
}

// Truncate implements Store, re-deriving the chain's accounted bytes from
// the inner store after the cut.
func (q *QuotaStore) Truncate(ctx context.Context, name string, fullSeq int) error {
	if err := q.inner.Truncate(ctx, name, fullSeq); err != nil {
		return err
	}
	tenant, _, _ := ParseKey(name)
	q.reledger(tenant, name)
	return nil
}

// Scrub implements Store; a repairing scrub can drop corrupt elements, so
// the ledger is refreshed afterwards.
func (q *QuotaStore) Scrub(ctx context.Context, name string, repair bool) (*ScrubReport, error) {
	rep, err := q.inner.Scrub(ctx, name, repair)
	if err != nil {
		return nil, err
	}
	if repair && rep.Repaired {
		tenant, _, _ := ParseKey(name)
		q.reledger(tenant, name)
	}
	return rep, nil
}

// Get implements Store.
func (q *QuotaStore) Get(ctx context.Context, name string) ([]Stored, []int, error) {
	return q.inner.Get(ctx, name)
}

// GetSeqs implements SeqGetter.
func (q *QuotaStore) GetSeqs(ctx context.Context, name string, want []int) ([]int, []Stored, []int, error) {
	return q.inner.GetSeqs(ctx, name, want)
}

// List implements Store.
func (q *QuotaStore) List(ctx context.Context) ([]string, error) {
	return q.inner.List(ctx)
}

// Target implements Store.
func (q *QuotaStore) Target() Target { return q.inner.Target() }
