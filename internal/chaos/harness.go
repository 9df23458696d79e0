package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"aic"
	"aic/internal/ckpt"
	"aic/internal/faultsim"
	"aic/internal/memsim"
	"aic/internal/remote"
	"aic/internal/storage"
	"aic/internal/workload"
)

// Config parameterizes one soak run. The zero value of every field selects
// a default sized for a seconds-long run.
type Config struct {
	Seed            uint64
	Steps           int       // workload steps to execute (default 120)
	CheckpointEvery int       // steps between checkpoints (default 3)
	FullEvery       int       // every FullEvery-th checkpoint is full and truncates (default 4)
	Pages           int       // workload footprint in pages (default 48)
	Peers           int       // replication peer count (default 3)
	Quorum          int       // peer acks an append needs (default majority)
	Events          int       // target fault count for generated schedules (default 10)
	Parallelism     int       // delta-encoder workers (0 = all cores)
	Dir             string    // parent for the scratch directory ("" = os temp)
	Log             io.Writer // optional live transcript sink
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 120
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 3
	}
	if c.FullEvery <= 0 {
		c.FullEvery = 4
	}
	if c.Pages <= 0 {
		c.Pages = 48
	}
	if c.Peers <= 0 {
		c.Peers = 3
	}
	if c.Quorum <= 0 {
		c.Quorum = c.Peers/2 + 1
	}
	if c.Events <= 0 {
		c.Events = 10
	}
	return c
}

// Result reports a soak run. Transcript lines are deterministic functions
// of (Config, Schedule): they never contain ports, paths, durations or raw
// error strings, so two runs of the same seed produce identical transcripts
// — the property the determinism test pins.
type Result struct {
	RunLog
	Seed        uint64
	Schedule    Schedule
	Checkpoints int
	Recoveries  int
	Eras        int
	Degraded    int // appends that survived locally but missed quorum
}

// FailureReport renders the violations with everything needed to replay
// them: the seed and the exact fault schedule.
func (r *Result) FailureReport() string {
	return r.RunLog.FailureReport() + "fault schedule (replay with cmd/aicsoak -schedule):\n" + r.Schedule.String()
}

// Run generates the fault schedule from cfg.Seed and soaks it. ctx bounds
// the run's storage and network operations; determinism holds for any ctx
// that is never cancelled mid-run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sched := Generate(cfg.Seed, GenConfig{Steps: cfg.Steps, Peers: cfg.Peers, Events: cfg.Events})
	return RunSchedule(ctx, cfg, sched)
}

// RunSchedule soaks an explicit fault schedule — the replay entry point.
// The returned error covers only harness infrastructure failures (scratch
// directory, listeners); invariant violations land in Result.Violations.
func RunSchedule(ctx context.Context, cfg Config, sched Schedule) (*Result, error) {
	cfg = cfg.withDefaults()
	scratch, err := os.MkdirTemp(cfg.Dir, "aic-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	h := &harness{ctx: ctx, cfg: cfg, sched: sched}
	h.res = &Result{Seed: cfg.Seed, Schedule: sched, RunLog: RunLog{
		name: "chaos", at: fmt.Sprintf(" at seed=%d", cfg.Seed), sink: cfg.Log,
		prefix: func() string { return fmt.Sprintf("%03d e%d ", h.step, h.era) },
	}}
	if err := h.setup(scratch); err != nil {
		return nil, err
	}
	defer h.teardown()
	h.run()
	return h.res, nil
}

// Minimize greedily shrinks a failing schedule to a locally minimal one:
// events are dropped one at a time as long as the run still violates an
// invariant. Non-failing schedules come back unchanged.
func Minimize(ctx context.Context, cfg Config, sched Schedule) Schedule {
	fails := func(s Schedule) bool {
		r, err := RunSchedule(ctx, cfg, s)
		return err == nil && r.Failed()
	}
	cur := sched
	if !fails(cur) {
		return cur
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			trial := append(append(Schedule{}, cur[:i]...), cur[i+1:]...)
			if fails(trial) {
				cur = trial
				changed = true
				i--
			}
		}
	}
	return cur
}

// knownBad returns the documented known-bad fixture: a schedule whose
// flip-all event corrupts the newest quorum-committed checkpoint on every
// replica at once — beyond the single-victim fault model the stack defends
// — so the following crash must restore an older sequence and trip the
// seq-regress invariant. The determinism test uses it to prove the checker
// actually catches real regressions.
func knownBad() (Config, Schedule) {
	cfg := Config{Seed: 0xbad, Steps: 14, CheckpointEvery: 3, FullEvery: 4, Pages: 24}
	sched := Schedule{
		{Step: 11, Kind: KindFlipAll, Peer: -1, N: 97, Bit: 3},
		{Step: 11, Kind: KindCrash, Peer: -1},
	}
	return cfg, sched
}

// harness is the live run state. The soak is single-threaded above the
// stack: events, steps and checkpoints interleave in schedule order, and
// the only concurrency is the production code's own (parallel delta encode,
// replication fan-out, server connections).
type harness struct {
	ctx   context.Context // the run's root context, threaded into every store call
	cfg   Config
	sched Schedule
	res   *Result

	dir       *aic.CheckpointDir
	ffs       *storage.FaultFS
	local     *storage.FSStore
	localRoot string
	peers     []*node
	dialers   []*remote.FaultDialer // peers[i]'s client dials through dialers[i]

	prog    *workload.Synthetic
	as      *memsim.AddressSpace
	builder *ckpt.Builder
	workNow float64
	step    int

	// Per-era chain state. Every recovery rotates to a fresh era: a new
	// process name, a fresh builder at seq 0, and removal of the old chain.
	era        int
	proc       string
	ckptCount  int
	lastSeq    int // newest locally stored seq (-1 none)
	lastQuorum int // newest quorum-committed seq (-1 none)
	truncSeq   int // newest truncation anchor (-1 none)
	localTrunc bool
	ledger     *ledger // the era chain's golden images
}

func (h *harness) setup(scratch string) error {
	h.localRoot = filepath.Join(scratch, "local")
	h.ffs = &storage.FaultFS{LoseUnsyncedRenames: true}
	local, err := storage.NewFSStoreFS(h.localRoot, storage.Target{Name: "local"}, h.ffs)
	if err != nil {
		return err
	}
	h.local = local
	stores := make([]aic.Store, 0, h.cfg.Peers)
	for i := 0; i < h.cfg.Peers; i++ {
		name := fmt.Sprintf("peer%d", i)
		n, err := startNode(h.ctx, name, filepath.Join(scratch, name), nil)
		if err != nil {
			return err
		}
		d := &remote.FaultDialer{}
		h.peers, h.dialers = append(h.peers, n), append(h.dialers, d)
		stores = append(stores, n.dial(remote.Config{Retries: 4, Dialer: d, JitterSeed: int64(h.cfg.Seed)*31 + int64(i) + 1}))
	}
	h.dir, err = aic.OpenCheckpointDir("", aic.WithStore(local),
		aic.WithReplication(aic.Replication{Stores: stores, Quorum: h.cfg.Quorum}))
	if err != nil {
		return err
	}
	// A phase mix covering the delta codec's regimes: scrambles (poorly
	// compressible), settles (high cross-checkpoint similarity) and ticks
	// (tiny structured updates).
	phases := []workload.Phase{
		{Duration: 7, Rate: 30, RegionLo: 0, RegionHi: h.cfg.Pages, Pattern: workload.Random, Mode: workload.Scramble, Fraction: 0.4},
		{Duration: 5, Rate: 50, RegionLo: 0, RegionHi: h.cfg.Pages, Pattern: workload.Sweep, Mode: workload.Settle, Fraction: 1},
		{Duration: 6, Rate: 60, RegionLo: 0, RegionHi: (h.cfg.Pages + 1) / 2, Pattern: workload.Hotspot, Mode: workload.Tick, Fraction: 0.1},
	}
	h.prog = workload.NewSynthetic("chaos", float64(h.cfg.Steps+1), h.cfg.Pages, h.cfg.Seed, phases)
	h.as = memsim.New(0)
	h.prog.Init(h.as)
	h.era = -1
	h.rotateEra(h.as)
	return nil
}

func (h *harness) teardown() {
	h.dir.Close()
	for _, n := range h.peers {
		n.close()
	}
}

func (h *harness) run() {
	ei := 0
	for h.step = 1; h.step <= h.cfg.Steps; h.step++ {
		for ei < len(h.sched) && h.sched[ei].Step <= h.step {
			h.apply(h.sched[ei])
			ei++
		}
		h.prog.Step(h.as, h.workNow, 1)
		h.workNow++
		if h.step%h.cfg.CheckpointEvery == 0 {
			h.checkpoint()
		}
	}
	// Every run ends with a forced crash and recovery, so the full
	// invariant sweep always audits the final state.
	h.recover("final-audit")
}

func (h *harness) peerAt(i int) *node {
	if i < 0 || i >= len(h.peers) {
		return nil
	}
	return h.peers[i]
}

// apply fires one scheduled event.
func (h *harness) apply(e Event) {
	h.res.logf("event kind=%s peer=%d n=%d bit=%d", e.Kind, e.Peer, e.N, e.Bit)
	switch e.Kind {
	case KindTornWrite:
		// Crash inside the next local Put's write protocol, tearing its
		// data file's temp write — the only file a Put writes.
		h.ffs.Arm(storage.OpWriteFile, 1, e.N%4096)
	case KindLostRename:
		// Crash on the next directory fsync; with LoseUnsyncedRenames set
		// every rename the platter had not pinned rolls back.
		h.ffs.Arm(storage.OpSyncDir, 1, 0)
	case KindBitFlip:
		h.flip(e.Peer, e.N, e.Bit)
	case KindConnCut:
		if p := h.peerAt(e.Peer); p != nil {
			if p.alive {
				p.srv.CloseConns()
			}
			h.dialers[e.Peer].Enqueue(remote.Fault{CutAfterBytes: int64(1 + e.N%4096)})
		}
	case KindDialFail:
		if p := h.peerAt(e.Peer); p != nil {
			if p.alive {
				p.srv.CloseConns()
			}
			h.dialers[e.Peer].Enqueue(remote.Fault{FailDial: true})
		}
	case KindPeerDeath:
		if p := h.peerAt(e.Peer); p != nil {
			p.kill()
		}
	case KindPeerRestart:
		if p := h.peerAt(e.Peer); p != nil {
			if err := p.restart(); err != nil {
				h.res.violate(h.step, "infra", "peer %d restart failed", e.Peer)
			}
		}
	case KindCrash:
		h.recover("crash")
	case KindFlipAll:
		h.flipAll(e.N, e.Bit)
	default:
		h.res.logf("event-unknown kind=%s", e.Kind)
	}
}

// flip plants silent corruption: one bit of the newest stored checkpoint
// file on the targeted store (peer -1 = local), beneath every integrity
// layer. The byte offset is n modulo the file size, so it is deterministic
// for a deterministic file.
func (h *harness) flip(peerIdx, n, bit int) {
	root := h.localRoot
	if p := h.peerAt(peerIdx); p != nil {
		root = p.root
	}
	for seq := h.lastSeq; seq >= 0; seq-- {
		off, ok, err := flipStored(root, h.proc, seq, func(size int) int { return n % size }, uint(bit%8))
		switch {
		case !ok:
			continue
		case err != nil:
			h.res.logf("bit-flip peer=%d seq=%d failed", peerIdx, seq)
		default:
			h.res.logf("bit-flip peer=%d seq=%d off=%d bit=%d", peerIdx, seq, off, bit%8)
		}
		return
	}
	h.res.logf("bit-flip peer=%d no-target", peerIdx)
}

// flipAll corrupts the newest quorum-committed checkpoint on every replica
// at once — the known-bad fixture's undefended fault (see KnownBad).
func (h *harness) flipAll(n, bit int) {
	seq := h.lastQuorum
	if seq < 0 {
		h.res.logf("flip-all no-target")
		return
	}
	roots := []string{h.localRoot}
	for _, p := range h.peers {
		roots = append(roots, p.root)
	}
	hit := 0
	for _, root := range roots {
		if _, ok, err := flipStored(root, h.proc, seq, func(size int) int { return n % size }, uint(bit%8)); ok && err == nil {
			hit++
		}
	}
	h.res.logf("flip-all seq=%d stores=%d", seq, hit)
}

// checkpoint takes and stores the next checkpoint in the chain, handling
// the three outcomes the stack defines: replicated, degraded (durable
// locally, quorum missed), and crashed (an armed FaultFS window fired
// inside the local durable-write protocol — a mid-checkpoint node crash).
func (h *harness) checkpoint() {
	seq := h.builder.Seq()
	full := h.ckptCount%h.cfg.FullEvery == 0
	cpu := faultsim.PackCPUState(h.prog, h.workNow)
	h.builder.SetCPUState(cpu)
	var enc []byte
	kind := "delta"
	if full {
		kind = "full"
		enc = h.builder.FullCheckpoint(h.as).Encode()
	} else {
		c, _ := h.builder.DeltaCheckpoint(h.as)
		enc = c.Encode()
	}
	h.ckptCount++
	h.ledger.record(seq, h.as.Clone(), cpu, full)
	h.res.Checkpoints++
	err := h.dir.Append(h.ctx, h.proc, seq, enc)
	switch {
	case err == nil:
		h.lastSeq, h.lastQuorum = seq, seq
		h.res.logf("ckpt seq=%d kind=%s bytes=%d ok", seq, kind, len(enc))
	case errors.Is(err, aic.ErrDegraded):
		h.lastSeq = seq
		h.res.Degraded++
		h.res.logf("ckpt seq=%d kind=%s bytes=%d degraded", seq, kind, len(enc))
	default:
		// The local store died mid-write: the simulated node crashed. The
		// peers were written at the same time and may hold seq, so the
		// restore may legitimately land on it: its ledger entry stays.
		h.res.logf("ckpt seq=%d kind=%s bytes=%d crashed", seq, kind, len(enc))
		h.recover("crash-during-checkpoint")
		return
	}
	if full && seq > 0 {
		switch terr := h.dir.Truncate(h.ctx, h.proc, seq); {
		case terr == nil:
			h.localTrunc, h.truncSeq = true, seq
			h.res.logf("truncate seq=%d ok", seq)
		case errors.Is(terr, aic.ErrDegraded):
			h.localTrunc, h.truncSeq = true, seq
			h.res.logf("truncate seq=%d degraded", seq)
		default:
			h.res.logf("truncate seq=%d crashed", seq)
			h.recover("crash-during-truncate")
			return
		}
		// The restore floor: the truncation anchor, lowered to the last
		// quorum-committed seq when a degraded append left quorum behind it.
		floor := h.truncSeq
		if h.lastQuorum >= 0 && h.lastQuorum < floor {
			floor = h.lastQuorum
		}
		h.ledger.prune(floor)
	}
}

// recover is the heart of the harness: the simulated node reboots, the
// cluster heals, every replica is scrubbed, the process is restored through
// the production disaster path, and the cross-layer invariants are checked:
//
//	I1 image-match:   restored memory (and CPU state) is byte-identical to
//	                  what the ledger recorded for the restored sequence
//	I2 seq-regress:   the restored sequence never regresses past the last
//	                  quorum-committed checkpoint
//	I3 scrub-clean:   after scrub-repair, a second scrub of every replica
//	                  comes back clean
//	I4 trunc-leak:    no chain element below the truncation point survives
//	                  locally or on a quorum of peers
//	I5 chain-bound:   no replica's chain outgrows the truncation cadence
//	I6 remove-leak:   removing the previous era's chain clears it from a
//	                  quorum of peers
//
// Afterwards the run continues in a fresh era: execution state is loaded
// from the restored checkpoint's CPU-state blob, a new chain is bootstrapped
// at seq 0, and the old era's chain is removed cluster-wide.
func (h *harness) recover(reason string) {
	h.res.Recoveries++
	h.res.logf("recover reason=%s", reason)

	// The cluster heals for recovery: reboot the node, restart dead peers,
	// drop scheduled network faults that never fired.
	h.ffs.Reboot()
	dropped := 0
	for i, p := range h.peers {
		dropped += h.dialers[i].DrainFaults()
		if err := p.restart(); err != nil {
			h.res.violate(h.step, "infra", "peer %d restart failed", i)
		}
	}
	if dropped > 0 {
		h.res.logf("drained-faults n=%d", dropped)
	}

	h.scrubAll()
	h.checkChains()

	im, rep, err := h.dir.RestoreBestReplica(h.ctx, h.proc)
	if err != nil {
		h.res.violate(h.step, "restore-failed", "no replica restorable: %v", err)
		// The soak continues from the live image so later schedule events
		// still execute; the run is already failed.
		h.rotateEra(h.as)
		return
	}
	h.res.logf("restored replica=%d anchor=%d last=%d n=%d discarded=%d",
		rep.Replica, rep.AnchorSeq, rep.LastSeq, len(rep.Restored), len(rep.Discarded))

	if rep.LastSeq < h.lastQuorum {
		h.res.violate(h.step, "seq-regress",
			"restored seq %d regressed past last quorum-committed seq %d", rep.LastSeq, h.lastQuorum)
	}
	if h.localTrunc && rep.AnchorSeq < h.truncSeq && rep.LastSeq >= h.truncSeq {
		h.res.violate(h.step, "trunc-leak",
			"restore anchored at %d below truncation point %d", rep.AnchorSeq, h.truncSeq)
	}

	restored := rebuildAddressSpace(im)
	h.ledger.check(&h.res.RunLog, h.step, rep.LastSeq, restored, rep.CPUState)

	// Resume execution exactly where the restored checkpoint left it.
	if workNow, progState, perr := faultsim.ParseCPUState(rep.CPUState); perr != nil {
		h.res.violate(h.step, "cpu-state", "unparseable CPU state at seq %d", rep.LastSeq)
	} else if lerr := h.prog.LoadState(progState); lerr != nil {
		h.res.violate(h.step, "cpu-state", "unloadable program state at seq %d", rep.LastSeq)
	} else {
		h.workNow = workNow
	}
	h.rotateEra(restored)
}

// rebuildAddressSpace materializes a live address space from a restored
// image, page by page through the facade's introspection surface.
func rebuildAddressSpace(im *aic.Image) *memsim.AddressSpace {
	as := memsim.New(im.PageSize())
	for _, idx := range im.PageIndexes() {
		as.Write(idx, 0, im.Page(idx), 0)
	}
	return as
}

// scrubAll runs scrub-repair on every replica of the current chain, then
// asserts a second, repair-free scrub comes back clean (invariant I3).
func (h *harness) scrubAll() {
	if h.lastSeq < 0 {
		return // era never landed a checkpoint locally; nothing to scrub
	}
	if rep, err := h.dir.Scrub(h.ctx, h.proc, true); err != nil {
		h.res.violate(h.step, "scrub-clean", "local scrub-repair failed")
	} else {
		if !rep.Clean() {
			h.res.logf("scrub local repaired corrupt=%d missing=%d orphaned=%d stray=%d",
				len(rep.Corrupt), len(rep.Missing), len(rep.Orphaned), len(rep.StrayRemoved))
		}
		if rep2, err := h.dir.Scrub(h.ctx, h.proc, false); err != nil || !rep2.Clean() {
			h.res.violate(h.step, "scrub-clean", "local store dirty after scrub-repair")
		}
	}
	ctx := h.ctx
	for i, p := range h.peers {
		procs, err := p.client.List(ctx)
		if err != nil {
			h.res.violate(h.step, "infra", "peer %d unreachable after heal", i)
			continue
		}
		if !slices.Contains(procs, h.proc) {
			h.res.logf("scrub peer=%d skip-absent", i)
			continue
		}
		rep, err := p.client.Scrub(ctx, h.proc, true)
		if err != nil {
			h.res.violate(h.step, "scrub-clean", "peer %d scrub-repair failed", i)
			continue
		}
		if !rep.Clean() {
			h.res.logf("scrub peer=%d repaired corrupt=%d missing=%d orphaned=%d stray=%d",
				i, len(rep.Corrupt), len(rep.Missing), len(rep.Orphaned), len(rep.StrayRemoved))
		}
		if rep2, err := p.client.Scrub(ctx, h.proc, false); err != nil || !rep2.Clean() {
			h.res.violate(h.step, "scrub-clean", "peer %d dirty after scrub-repair", i)
		}
	}
}

// checkChains asserts the truncation and boundedness invariants (I4, I5)
// across every replica of the current era's chain. Runs after scrubAll, so
// chains reflect repaired on-disk truth.
func (h *harness) checkChains() {
	ctx := h.ctx
	// A chain may miss at most two truncates (a peer dead across one full
	// boundary, revived, plus the checkpoints since) before it is unbounded.
	bound := 3*h.cfg.FullEvery + 4

	if stored, _, err := h.local.Get(ctx, h.proc); err == nil && len(stored) > 0 {
		if len(stored) > bound {
			h.res.violate(h.step, "chain-bound", "local chain holds %d elements (bound %d)", len(stored), bound)
		}
		if h.localTrunc && stored[0].Seq < h.truncSeq {
			h.res.violate(h.step, "trunc-leak", "local chain retains seq %d below truncation point %d", stored[0].Seq, h.truncSeq)
		}
	}
	truncOK := 0
	for i, p := range h.peers {
		stored, _, err := p.client.Get(ctx, h.proc)
		if err != nil {
			continue // unreachable peers are scrubAll's problem
		}
		if len(stored) > bound {
			h.res.violate(h.step, "chain-bound", "peer %d chain holds %d elements (bound %d)", i, len(stored), bound)
		}
		if len(stored) == 0 || stored[0].Seq >= h.truncSeq {
			truncOK++
		}
	}
	if h.localTrunc && truncOK < h.cfg.Quorum {
		h.res.violate(h.step, "trunc-leak",
			"only %d peers dropped seqs below truncation point %d (quorum %d)", truncOK, h.truncSeq, h.cfg.Quorum)
	}
}

// rotateEra starts a fresh era on the given live image: new process name,
// fresh builder, bootstrap full checkpoint at seq 0, and removal of the
// previous era's chain cluster-wide (invariant I6).
func (h *harness) rotateEra(live *memsim.AddressSpace) {
	oldProc := h.proc
	h.era++
	h.res.Eras = h.era + 1
	h.proc = fmt.Sprintf("p-e%d", h.era)
	h.as = live
	h.builder = ckpt.NewBuilder(h.as.PageSize(), 0, 0, ckpt.WithParallelism(h.cfg.Parallelism))
	h.ledger = newLedger(h.proc)
	h.lastSeq, h.lastQuorum = -1, -1
	h.truncSeq, h.localTrunc = -1, false

	// Bootstrap the era's chain. The cluster is healthy here (recovery just
	// healed it, or we are at setup), so the append must replicate.
	cpu := faultsim.PackCPUState(h.prog, h.workNow)
	h.builder.SetCPUState(cpu)
	enc := h.builder.FullCheckpoint(h.as).Encode()
	h.ckptCount = 1
	h.res.Checkpoints++
	err := h.dir.Append(h.ctx, h.proc, 0, enc)
	if err == nil || errors.Is(err, aic.ErrDegraded) {
		h.ledger.record(0, h.as.Clone(), cpu, true)
	}
	switch {
	case err == nil:
		h.lastSeq, h.lastQuorum = 0, 0
		h.res.logf("bootstrap seq=0 bytes=%d ok", len(enc))
	case errors.Is(err, aic.ErrDegraded):
		h.lastSeq = 0
		h.res.Degraded++
		h.res.violate(h.step, "bootstrap", "era bootstrap append missed quorum on a healthy cluster")
	default:
		h.res.violate(h.step, "bootstrap", "era bootstrap append failed on a healthy cluster")
	}

	if oldProc == "" {
		return
	}
	switch err := h.dir.Remove(h.ctx, oldProc); {
	case err == nil:
		h.res.logf("removed old chain")
	case errors.Is(err, aic.ErrDegraded):
		h.res.logf("removed old chain degraded")
	default:
		h.res.violate(h.step, "remove-leak", "removing the previous era's chain failed locally")
	}
	leaks := 0
	for _, p := range h.peers {
		procs, err := p.client.List(h.ctx)
		if err == nil && slices.Contains(procs, oldProc) {
			leaks++
		}
	}
	if leaks > len(h.peers)-h.cfg.Quorum {
		h.res.violate(h.step, "remove-leak",
			"previous era's chain survives on %d peers (max %d)", leaks, len(h.peers)-h.cfg.Quorum)
	}
}
