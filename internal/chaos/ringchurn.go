package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"aic"
	"aic/internal/metrics"
	"aic/internal/remote"
	"aic/internal/storage"
)

// RingChurnConfig parameterizes one ring-churn soak: a sharded multi-tenant
// client (aic.Client) driving real TCP peers while the ring membership
// churns — a peer joins, another is killed mid-rebalance and restarted —
// and one "hog" tenant deliberately writes through its quota. The seed
// picks the run; its size is fixed for a seconds-long run.
type RingChurnConfig struct {
	Seed uint64
}

// The ring-churn soak's size.
const (
	churnPeers      = 3        // initial ring peers
	churnTenants    = 2        // well-behaved tenants
	churnProcs      = 3        // procs per tenant
	churnRounds     = 10       // checkpoint rounds per proc
	churnQuotaBytes = 64 << 10 // per-tenant per-peer byte quota
)

// RingChurnResult reports one churn soak. The invariants checked are the
// service's multi-tenant durability contract:
//
//   - every committed (tenant, proc, seq) — acked clean or degraded —
//     restores byte-identically after the churn settles;
//   - per-tenant quotas reject the hog tenant with the typed
//     ErrQuotaExceeded and never reject a well-behaved tenant;
//   - placement re-converges: after the killed peer returns, rebalancing
//     reaches a round with nothing deferred and a follow-up round that
//     moves nothing;
//   - the metric trail agrees (aic_ring_rebalance_total counts the rounds,
//     aic_tenant_quota_rejects_total counts the hog's rejections).
type RingChurnResult struct {
	RunLog
	Seed         uint64
	Checkpoints  int // committed (tenant, proc, seq) elements
	Degraded     int // commits that missed full replication
	QuotaRejects int // typed terminal quota rejections observed
	Rebalances   int // rebalance rounds run
	Moves        int // chains moved across all rounds
	DeferredMax  int // most chains deferred by any single round
}

// churnProc is one workload process: a facade Process plus the shadow of
// every frame the service committed for it.
type churnProc struct {
	tenant  string
	name    string
	p       *aic.Process
	pages   int
	frames  [][]byte // committed frames, contiguous from seq 0
	stopped bool     // hog only: terminal quota rejection reached
}

// hogTenant is the misbehaving tenant the quota invariants watch.
const hogTenant = "hog"

// RunRingChurn soaks the sharded client through a ring-churn schedule
// derived from cfg.Seed. The returned error covers only harness
// infrastructure failures; invariant violations land in the result.
//
//aiclint:ignore testonly chaos scenario entry point, run by its soak test until ROADMAP item 7 ports the scenarios onto one Store driver
func RunRingChurn(ctx context.Context, cfg RingChurnConfig) (*RingChurnResult, error) {
	res := &RingChurnResult{Seed: cfg.Seed, RunLog: RunLog{
		name: "ringchurn", at: fmt.Sprintf(" at seed=%d", cfg.Seed),
	}}
	scratch, err := os.MkdirTemp("", "aic-ringchurn-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))

	r := &churnRun{ctx: ctx, cfg: cfg, res: res, rng: rng, scratch: scratch}
	defer r.teardown()
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.run()
	r.verify()
	return res, nil
}

// churnRun is the live run state. The soak is single-threaded above the
// stack; the only concurrency is the production code's own.
type churnRun struct {
	ctx     context.Context
	cfg     RingChurnConfig
	res     *RingChurnResult
	rng     *rand.Rand
	scratch string

	nodes  []*node // every member started; nodes[victim] is killed/restarted
	regs   []*metrics.Registry
	client *aic.Client
	reg    *aic.MetricsRegistry
	procs  []*churnProc
	victim int
}

// startMember starts the idx-th ring member: an FSStore wrapped in
// per-tenant quota admission, whose rejections count on its own registry,
// dialed under a pinned jitter seed.
func (r *churnRun) startMember(name string, idx int) (*remote.RemoteStore, error) {
	n, err := startNode(r.ctx, name, filepath.Join(r.scratch, name), func(fs *storage.FSStore) storage.Store {
		q := storage.NewQuotaStore(fs, storage.Quota{MaxBytes: churnQuotaBytes})
		reg := metrics.NewRegistry()
		q.SetMetrics(reg)
		r.regs = append(r.regs, reg)
		return q
	})
	if err != nil {
		return nil, err
	}
	r.nodes = append(r.nodes, n)
	return n.dial(remote.Config{Retries: 3, JitterSeed: int64(r.cfg.Seed)*37 + int64(idx) + 1}), nil
}

func (r *churnRun) setup() error {
	stores := make(map[string]aic.Store, churnPeers)
	for i := 0; i < churnPeers; i++ {
		name := fmt.Sprintf("peer%d", i)
		rs, err := r.startMember(name, i)
		if err != nil {
			return err
		}
		// The ring name is the fixed peer name, not the ephemeral address:
		// placement — and therefore the whole churn schedule — depends only
		// on (Seed, config), never on which ports the OS handed out.
		stores[name] = rs
	}
	r.reg = aic.NewMetricsRegistry()
	client, err := aic.NewClient(aic.ClientConfig{
		Stores:          stores,
		Replicas:        2,
		Vnodes:          64,
		WriteQuorum:     1, // stay writable (degraded) while the victim is down
		StripeThreshold: 8 << 10,
		StripeCount:     2,
		Metrics:         r.reg,
	})
	if err != nil {
		return err
	}
	r.client = client
	r.victim = r.rng.Intn(churnPeers)

	// Well-behaved tenants: modest footprints that stay far under quota.
	for t := 0; t < churnTenants; t++ {
		tenant := fmt.Sprintf("tenant%d", t)
		for i := 0; i < churnProcs; i++ {
			r.procs = append(r.procs, &churnProc{
				tenant: tenant,
				name:   fmt.Sprintf("proc%d", i),
				p:      aic.NewProcess(128),
				pages:  24,
			})
		}
	}
	// The hog: large, incompressible, striped frames that grind through the
	// per-peer quota within a few rounds.
	r.procs = append(r.procs, &churnProc{
		tenant: hogTenant,
		name:   "vault",
		p:      aic.NewProcess(512),
		pages:  64,
	})
	return nil
}

func (r *churnRun) teardown() {
	if r.client != nil {
		r.client.Close()
	}
	for _, n := range r.nodes {
		n.close()
	}
}

// mutate dirties the process deterministically. The hog rewrites its whole
// footprint with fresh random bytes every round (nothing delta-compresses
// away); regular procs touch a few pages.
func (r *churnRun) mutate(cp *churnProc, round int) {
	if cp.tenant == hogTenant || round == 0 {
		buf := make([]byte, cp.p.PageSize())
		for pg := 0; pg < cp.pages; pg++ {
			r.rng.Read(buf)
			cp.p.Write(uint64(pg), 0, buf)
		}
		return
	}
	for k := 0; k < 4; k++ {
		var word [8]byte
		r.rng.Read(word[:])
		cp.p.Write(uint64(r.rng.Intn(cp.pages)), r.rng.Intn(cp.p.PageSize()-8), word[:])
	}
}

// checkpointOne drives one (proc, round) write and classifies the outcome.
func (r *churnRun) checkpointOne(cp *churnProc, round int) (committed, degraded, rejected bool) {
	r.mutate(cp, round)
	var enc []byte
	if round == 0 {
		enc = cp.p.FullCheckpoint()
	} else {
		enc, _ = cp.p.DeltaCheckpoint()
	}
	err := r.client.Namespace(cp.tenant).Checkpoint(r.ctx, cp.name, round, enc)
	switch {
	case err == nil:
		cp.frames = append(cp.frames, enc)
		return true, false, false
	case errors.Is(err, aic.ErrDegraded):
		// Committed with reduced redundancy — still a commitment the final
		// verification must find restorable.
		cp.frames = append(cp.frames, enc)
		return true, true, false
	case errors.Is(err, aic.ErrQuotaExceeded):
		if cp.tenant != hogTenant {
			r.res.violate(round, "quota-crosstalk",
				"tenant %s proc %s rejected by quota the hog consumed: %v", cp.tenant, cp.name, err)
		}
		return false, false, true
	default:
		r.res.violate(round, "commit-refused",
			"%s/%s seq %d: %v (one dead peer must not block commits)", cp.tenant, cp.name, round, err)
		return false, false, false
	}
}

func (r *churnRun) rebalance(round int, label string) *aic.RebalanceReport {
	rep, err := r.client.Rebalance(r.ctx)
	if err != nil {
		r.res.violate(round, "rebalance-error", "%s: %v", label, err)
		return nil
	}
	r.res.Rebalances++
	r.res.Moves += rep.Moves
	if len(rep.Deferred) > r.res.DeferredMax {
		r.res.DeferredMax = len(rep.Deferred)
	}
	r.res.logf("rebalance %s: keys=%d moves=%d released=%d deferred=%d",
		label, rep.Keys, rep.Moves, rep.Released, len(rep.Deferred))
	return rep
}

func (r *churnRun) run() {
	killRound := churnRounds / 3
	restartRound := (2 * churnRounds) / 3
	for round := 0; round < churnRounds; round++ {
		if round == killRound {
			// Membership churn and a peer failure at once: a fresh peer joins
			// and the victim dies before the rebalance can finish — moves that
			// need the victim defer, and the protocol must hold its
			// never-drop-a-committed-seq guarantee in that half-migrated state.
			rs, err := r.startMember("joiner", churnPeers)
			if err != nil {
				r.res.violate(round, "harness", "joiner: %v", err)
				return
			}
			if err := r.client.AddStore("joiner", rs); err != nil {
				r.res.violate(round, "harness", "join: %v", err)
				return
			}
			r.nodes[r.victim].kill()
			r.res.logf("churn: join=joiner kill=peer%d", r.victim)
			r.rebalance(round, "mid-churn")
		}
		if round == restartRound {
			if err := r.nodes[r.victim].restart(); err != nil {
				r.res.violate(round, "harness", "restart: %v", err)
				return
			}
			r.res.logf("churn: restart=peer%d", r.victim)
			// Heal: with every member back, rebalancing must drain the
			// deferred backlog in bounded rounds.
			healed := false
			for i := 0; i < 4 && !healed; i++ {
				rep := r.rebalance(round, "heal")
				healed = rep != nil && len(rep.Deferred) == 0
			}
			if !healed {
				r.res.violate(round, "rebalance-converge",
					"deferred chains remain after 4 heal rounds with all peers alive")
			}
		}
		committed, degraded, rejected := 0, 0, 0
		for _, cp := range r.procs {
			if cp.stopped {
				continue
			}
			c, d, rej := r.checkpointOne(cp, round)
			if c {
				committed++
				r.res.Checkpoints++
			}
			if d {
				degraded++
				r.res.Degraded++
			}
			if rej {
				rejected++
				r.res.QuotaRejects++
				if cp.tenant == hogTenant {
					cp.stopped = true // terminal: retrying cannot free quota
				}
			}
		}
		r.res.logf("round=%d committed=%d degraded=%d rejected=%d", round, committed, degraded, rejected)
	}
}

// verify settles the ring and checks every invariant the soak exists for.
func (r *churnRun) verify() {
	// Placement convergence: one more round over the settled membership must
	// find nothing to move and nothing deferred.
	if rep := r.rebalance(churnRounds, "settle"); rep != nil {
		if rep.Moves != 0 || len(rep.Deferred) != 0 {
			r.res.violate(churnRounds, "placement-converge",
				"settled ring still moved %d chains (deferred %d)", rep.Moves, len(rep.Deferred))
		}
	}

	for _, cp := range r.procs {
		ns := r.client.Namespace(cp.tenant)
		chain, err := ns.Chain(r.ctx, cp.name)
		if err != nil {
			r.res.violate(churnRounds, "chain-read", "%s/%s: %v", cp.tenant, cp.name, err)
			continue
		}
		if len(chain) != len(cp.frames) {
			r.res.violate(churnRounds, "chain-lost",
				"%s/%s: %d elements stored, %d committed", cp.tenant, cp.name, len(chain), len(cp.frames))
			continue
		}
		for i := range chain {
			if !bytes.Equal(chain[i], cp.frames[i]) {
				r.res.violate(churnRounds, "chain-bytes",
					"%s/%s seq %d differs from the committed frame", cp.tenant, cp.name, i)
			}
		}
		im, rep, err := ns.Restore(r.ctx, cp.name)
		if err != nil {
			r.res.violate(churnRounds, "restore", "%s/%s: %v", cp.tenant, cp.name, err)
			continue
		}
		if want := len(cp.frames) - 1; rep.LastSeq != want || len(rep.Discarded) != 0 {
			r.res.violate(churnRounds, "restore-seq",
				"%s/%s restored through seq %d (want %d), discarded %v", cp.tenant, cp.name, rep.LastSeq, want, rep.Discarded)
		}
		// The hog's live image ran ahead of its last committed frame (its
		// writes after the quota cut were never checkpointed), so the
		// image-identity check applies to well-behaved tenants only.
		if !cp.stopped && !im.Matches(cp.p) {
			r.res.violate(churnRounds, "restore-bytes", "%s/%s restored image differs", cp.tenant, cp.name)
		}
	}

	// Quota invariants: the hog was cut off, typed, and the metric trail on
	// the peers agrees; rebalancing was counted on the client registry.
	hog := r.procs[len(r.procs)-1]
	if !hog.stopped || r.res.QuotaRejects == 0 {
		r.res.violate(churnRounds, "quota-unenforced",
			"hog tenant was never terminally rejected (rejects=%d)", r.res.QuotaRejects)
	}
	var metricRejects float64
	for _, reg := range r.regs {
		if v, ok := reg.Value("aic_tenant_quota_rejects_total", hogTenant); ok {
			metricRejects += v
		}
	}
	if metricRejects == 0 {
		r.res.violate(churnRounds, "quota-metric", "aic_tenant_quota_rejects_total{tenant=hog} never advanced")
	}
	if v, ok := r.reg.Value("aic_ring_rebalance_total"); !ok || int(v) != r.res.Rebalances {
		r.res.violate(churnRounds, "rebalance-metric",
			"aic_ring_rebalance_total = %v (ok=%v), ran %d rounds", v, ok, r.res.Rebalances)
	}
	sort.SliceStable(r.res.Violations, func(i, j int) bool {
		return r.res.Violations[i].Step < r.res.Violations[j].Step
	})
}
