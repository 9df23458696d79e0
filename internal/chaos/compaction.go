package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"aic"
	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/recovery"
	"aic/internal/storage"
)

// CompactionChaosConfig parameterizes one compaction-racing-faults run:
// the online compactor folding chains while writers append, a replication
// peer dies and revives, bit flips land in committed files, and Scrub,
// RestoreLatestGood and Truncate all run concurrently. A zero Steps selects
// the default, sized for a sub-second run.
type CompactionChaosConfig struct {
	Seed  uint64
	Steps int // checkpoints each writer commits (default 60)
}

// The compaction chaos run's fixed shape.
const (
	compactProcs    = 3  // concurrent writer chains
	compactFullEach = 12 // a full checkpoint every compactFullEach steps
	compactMaxChain = 10 // compactor trigger length
	compactKeep     = 4  // compactor keep-k retention
)

// CompactionChaosResult reports one run. The invariants checked are the
// compactor's whole contract under fire:
//
//   - a restore never returns wrong bytes: whatever seq it lands on, the
//     image and CPU state are exactly what the writer committed there
//     (bit-flipped elements may shorten the restore, never corrupt it);
//   - compaction and chunk GC never eat live data: after the final
//     compact+GC pass every chain still restores to its writer's image;
//   - the store scrubs clean once repair has run.
type CompactionChaosResult struct {
	RunLog
	Appends      int // checkpoints acknowledged (clean or degraded)
	Degraded     int // appends acknowledged while the peer was dead
	Compactions  int // chains folded by the background compactor
	Raced        int // benign compactor flips lost to writers
	FlipsLanded  int // bit flips injected into committed files
	Restores     int // concurrent restore probes that ran
	ElemsDropped int // chain elements folded away in total
}

// flakyPeer is a replication peer that can be killed and revived: while
// dead every operation fails, the way a crashed aicd looks to the client.
type flakyPeer struct {
	*storage.FSStore
	down atomic.Bool
}

var errPeerDown = errors.New("chaos: peer is down")

// Put fails while the peer is down, else delegates to the memory store.
func (f *flakyPeer) Put(ctx context.Context, proc string, seq int, data []byte) error {
	if f.down.Load() {
		return errPeerDown
	}
	return f.FSStore.Put(ctx, proc, seq, data)
}

func (f *flakyPeer) Truncate(ctx context.Context, proc string, fullSeq int) error {
	if f.down.Load() {
		return errPeerDown
	}
	return f.FSStore.Truncate(ctx, proc, fullSeq)
}

// RunCompactionChaos drives the online compactor through the production
// stack under concurrent faults. Setup: a dedup-enabled FSStore behind the
// aic facade with compaction armed, replicating to an in-process peer.
// Then, all at once: writers append full+delta chains; the compactor folds
// them; the peer dies and revives; bit flips land in committed chain
// files; and Scrub(repair), RestoreLatestGood and Truncate run against the
// live store. See CompactionChaosResult for the invariants pinned at every
// restore probe and at the end of the run.
//
//aiclint:ignore testonly chaos scenario entry point, run by its soak test until ROADMAP item 7 ports the scenarios onto one Store driver
func RunCompactionChaos(ctx context.Context, cfg CompactionChaosConfig) (*CompactionChaosResult, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 60
	}
	res := &CompactionChaosResult{RunLog: RunLog{name: "compaction", at: fmt.Sprintf(" at seed=%d", cfg.Seed)}}

	scratch, err := os.MkdirTemp("", "aic-compaction-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	fs, err := storage.NewFSStore(scratch, storage.Target{Name: "chaos-local"})
	if err != nil {
		return nil, err
	}
	peer := &flakyPeer{FSStore: storage.NewMemStore(storage.Target{Name: "chaos-peer"})}
	dir, err := aic.OpenCheckpointDir("",
		aic.WithStore(fs),
		aic.WithDedup(aic.DedupConfig{MinChunk: 64, AvgChunk: 256, MaxChunk: 1024, MinPayload: 1}),
		aic.WithCompaction(aic.CompactionConfig{MaxChain: compactMaxChain, Keep: compactKeep}),
		aic.WithReplication(aic.Replication{Stores: []aic.Store{peer}, Quorum: 1}))
	if err != nil {
		return nil, err
	}
	defer dir.Close()

	const pageSize = 512
	procName := func(i int) string { return fmt.Sprintf("victim-%d", i) }
	ledgers := make(map[string]*ledger, compactProcs)
	for i := 0; i < compactProcs; i++ {
		ledgers[procName(i)] = newLedger(procName(i))
	}

	var (
		wg      sync.WaitGroup
		writers sync.WaitGroup
		stop    = make(chan struct{})
		appends atomic.Int64
		degr    atomic.Int64
		flips   atomic.Int64
		probes  atomic.Int64
	)

	// Writers: each drives its own simulated process, committing a full
	// every compactFullEach steps and deltas in between, and records the exact
	// state every acknowledged seq must restore to.
	for i := 0; i < compactProcs; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			proc := procName(i)
			led := ledgers[proc]
			rng := rand.New(rand.NewSource(int64(cfg.Seed)*31 + int64(i)))
			as := memsim.New(pageSize)
			b := ckpt.NewBuilder(pageSize, 0, 24)
			buf := make([]byte, pageSize)
			for pg := uint64(0); pg < 8; pg++ {
				rng.Read(buf)
				as.Write(pg, 0, buf, 0)
			}
			for step := 0; step < cfg.Steps; step++ {
				if err := ctx.Err(); err != nil {
					return
				}
				cpu := []byte(fmt.Sprintf("cpu/%s/%08d", proc, step))
				b.SetCPUState(cpu)
				var c *ckpt.Checkpoint
				full := step%compactFullEach == 0
				if full {
					c = b.FullCheckpoint(as)
				} else {
					rng.Read(buf[:48])
					as.Write(uint64(rng.Intn(8)), rng.Intn(pageSize-48), buf[:48], float64(step))
					c, _ = b.DeltaCheckpoint(as)
				}
				// Ledger first, then commit: a restore probe may land on this
				// seq the instant Put acknowledges, and the ledger must
				// already know what it should restore to. A ledger entry for
				// a failed append is harmless — probes can never land there.
				led.record(c.Seq, as.Clone(), cpu, full)
				err := dir.Append(ctx, proc, c.Seq, c.Encode())
				switch {
				case errors.Is(err, aic.ErrDegraded):
					degr.Add(1)
				case err != nil:
					res.violate(step, "append-refused", "%s: append seq %d failed outright: %v", proc, c.Seq, err)
					return
				}
				appends.Add(1)
			}
		}(i)
	}

	// Compactor: fold chains continuously until the writers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep, err := dir.Compact(ctx)
			if err != nil {
				res.violate(0, "compact-error", "compaction pass failed: %v", err)
				return
			}
			// Only this goroutine writes the tallies; wg.Wait orders the read.
			res.Compactions += len(rep.Compacted)
			res.Raced += len(rep.Raced)
			res.ElemsDropped += rep.ElemsDropped
		}
	}()

	// Fault injector: kills and revives the peer, flips bits in committed
	// chain files, scrubs with repair, and truncates at the newest full.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(cfg.Seed)*131 + 7))
		for round := 0; ; round++ {
			select {
			case <-stop:
				peer.down.Store(false)
				return
			default:
			}
			proc := procName(rng.Intn(compactProcs))
			switch round % 4 {
			case 0: // peer churn
				peer.down.Store(!peer.down.Load())
			case 1: // bit flip in a committed chain file
				if flipRandomElem(ctx, fs, scratch, proc, rng) {
					flips.Add(1)
				}
			case 2: // concurrent scrub with repair
				if _, err := dir.Scrub(ctx, proc, true); err != nil {
					res.violate(0, "scrub-error", "scrub %s: %v", proc, err)
				}
			case 3: // truncate at the newest full (retention housekeeping)
				if _, fullSeq, _ := ledgers[proc].newest(); fullSeq > 0 {
					if err := dir.Truncate(ctx, proc, fullSeq); err != nil && !errors.Is(err, aic.ErrDegraded) {
						res.violate(0, "truncate-error", "truncate %s@%d: %v", proc, fullSeq, err)
					}
				}
			}
		}
	}()

	// Restore prober: at any moment, restoring any chain must yield bytes
	// the writer actually committed at the landed seq.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(cfg.Seed)*733 + 11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			proc := procName(rng.Intn(compactProcs))
			chain, _, err := fs.Get(ctx, proc)
			if err != nil || len(chain) == 0 {
				continue
			}
			as, rep, err := recovery.RestoreLatestGood(chain)
			if err != nil {
				continue // no intact full yet, or damage ate the whole chain
			}
			probes.Add(1)
			ledgers[proc].check(&res.RunLog, 0, rep.LastSeq, as, rep.CPUState)
		}
	}()

	writers.Wait()
	close(stop)
	wg.Wait()
	peer.down.Store(false)

	// Quiesced end state. Bit flips may have destroyed any element —
	// including a chain's only intact full, which is honest unrecoverable
	// damage, not a compaction bug. So first re-anchor every chain the way
	// an operator would: synthesize a fresh full from the writer's final
	// committed state (the same ckpt.FullFromImage primitive the compactor
	// uses) and append it. After that, with no more faults landing, every
	// chain MUST repair clean, restore to the re-anchor exactly, and keep
	// doing so through one more compaction + chunk-GC pass.
	for i := 0; i < compactProcs; i++ {
		proc := procName(i)
		led := ledgers[proc]
		lastSeq, _, last := led.newest()
		if lastSeq < 0 {
			res.violate(cfg.Steps, "writer-idle", "%s: writer committed nothing", proc)
			continue
		}
		reseq := lastSeq + 1
		full := ckpt.FullFromImage(last.image, reseq, last.cpu)
		led.record(reseq, last.image.Clone(), last.cpu, true)
		if err := dir.Append(ctx, proc, reseq, full.Encode()); err != nil && !errors.Is(err, aic.ErrDegraded) {
			res.violate(cfg.Steps, "re-anchor", "%s: re-anchor append: %v", proc, err)
			continue
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := dir.Scrub(ctx, proc, true); err != nil {
				res.violate(cfg.Steps, "scrub-error", "final scrub %s: %v", proc, err)
			}
		}
	}
	if _, err := dir.Compact(ctx); err != nil {
		res.violate(cfg.Steps, "compact-error", "final compaction: %v", err)
	}
	for i := 0; i < compactProcs; i++ {
		proc := procName(i)
		rep, err := dir.Scrub(ctx, proc, false)
		if err != nil {
			res.violate(cfg.Steps, "scrub-clean", "post-repair scrub %s: %v", proc, err)
		} else if len(rep.Missing)+len(rep.Corrupt) != 0 {
			res.violate(cfg.Steps, "scrub-clean", "%s does not scrub clean after repair: %+v", proc, rep)
		}
		chain, _, err := fs.Get(ctx, proc)
		if err != nil || len(chain) == 0 {
			res.violate(cfg.Steps, "restore-failed", "final chain %s unreadable: %v", proc, err)
			continue
		}
		as, grep, err := recovery.RestoreLatestGood(chain)
		if err != nil {
			res.violate(cfg.Steps, "restore-failed", "final restore %s: %v", proc, err)
			continue
		}
		ledgers[proc].check(&res.RunLog, cfg.Steps, grep.LastSeq, as, grep.CPUState)
		res.logf("%s: final restore at seq %d over %d elements", proc, grep.LastSeq, len(chain))
	}
	st, err := fs.DedupStats(ctx)
	if err != nil {
		res.violate(cfg.Steps, "dedup-stats", "dedup stats: %v", err)
	}
	res.logf("dedup: %d chunks, logical %d, physical %d, ratio %.2f",
		st.Chunks, st.LogicalBytes, st.PhysicalBytes, st.Ratio())

	res.Appends = int(appends.Load())
	res.Degraded = int(degr.Load())
	res.FlipsLanded = int(flips.Load())
	res.Restores = int(probes.Load())
	return res, nil
}

// flipRandomElem flips one bit in a random committed element of proc's
// chain, returning whether a flip landed. Only the element files are
// touched: chunk damage is exercised separately, so every flip is a frame
// or recipe flip.
func flipRandomElem(ctx context.Context, fs *storage.FSStore, root, proc string, rng *rand.Rand) bool {
	listed, _, _, err := fs.GetSeqs(ctx, proc, nil)
	if err != nil || len(listed) == 0 {
		return false
	}
	_, ok, err := flipStored(root, proc, listed[rng.Intn(len(listed))], rng.Intn, uint(rng.Intn(8)))
	return ok && err == nil
}
