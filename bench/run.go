package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"aic"
	"aic/internal/delta"
)

// gang is the set of ranks of one run and the generator of their writes.
// Every rank receives the same bytes, so their frames are byte-identical.
type gang struct {
	w     workload
	rng   *rand.Rand
	procs []*aic.Process
	hot   []uint64
	steps int

	// Traced pass only: rank 0's image, the pages its last checkpoint saved
	// and the pages dirtied since — what DeltaCheckpoint encodes from, kept
	// so the delta layer can be called directly on the same input.
	shadow [][]byte
	saved  map[uint64][]byte
	dirty  map[uint64]bool
}

func newGang(w workload, seed int64, traced bool) *gang {
	g := &gang{w: w, rng: rand.New(rand.NewSource(seed))}
	for r := 0; r < w.ranks; r++ {
		g.procs = append(g.procs, aic.NewProcess(pageSize))
	}
	if traced {
		g.shadow = make([][]byte, w.pages)
		for i := range g.shadow {
			g.shadow[i] = make([]byte, pageSize)
		}
		g.dirty = make(map[uint64]bool)
	}
	page := make([]byte, pageSize)
	for pg := 0; pg < w.pages; pg++ {
		g.rng.Read(page)
		g.write(uint64(pg), 0, page)
	}
	for _, pg := range g.rng.Perm(w.pages)[:w.hotPages] {
		g.hot = append(g.hot, uint64(pg))
	}
	sort.Slice(g.hot, func(i, j int) bool { return g.hot[i] < g.hot[j] })
	return g
}

func (g *gang) write(pg uint64, off int, data []byte) {
	for _, p := range g.procs {
		p.Write(pg, off, data)
	}
	if g.shadow != nil {
		copy(g.shadow[pg][off:], data)
		g.dirty[pg] = true
	}
}

// mutate applies one interval's writes: a light edit of every hot page and
// a whole rewrite of the next coldPages pages of a sweep over the image, so
// a cold page is never dirty two intervals running.
func (g *gang) mutate() {
	var edit [hotEditBytes]byte
	for _, pg := range g.hot {
		for e := 0; e < hotEdits; e++ {
			g.rng.Read(edit[:])
			g.write(pg, g.rng.Intn(pageSize-hotEditBytes), edit[:])
		}
	}
	page := make([]byte, pageSize)
	first := g.steps * g.w.coldPages
	for i := 0; i < g.w.coldPages; i++ {
		g.rng.Read(page)
		g.write(uint64((first+i)%g.w.pages), 0, page)
	}
	g.steps++
}

// updates rebuilds the input of rank 0's next DeltaCheckpoint.
func (g *gang) updates() []delta.PageUpdate {
	out := make([]delta.PageUpdate, 0, len(g.dirty))
	for pg := range g.dirty {
		out = append(out, delta.PageUpdate{Index: pg, Old: g.saved[pg], New: g.shadow[pg]})
	}
	return out
}

// deltaTaken and fullTaken mirror what a checkpoint remembers for the next
// one: the pages it saved.
func (g *gang) deltaTaken() {
	if g.shadow == nil {
		return
	}
	g.saved = make(map[uint64][]byte, len(g.dirty))
	for pg := range g.dirty {
		g.saved[pg] = append([]byte(nil), g.shadow[pg]...)
	}
	g.dirty = make(map[uint64]bool)
}

func (g *gang) fullTaken() {
	if g.shadow == nil {
		return
	}
	g.saved = make(map[uint64][]byte, len(g.shadow))
	for pg, content := range g.shadow {
		g.saved[uint64(pg)] = append([]byte(nil), content...)
	}
	g.dirty = make(map[uint64]bool)
}

// cpuNow is the process's user+system CPU time so far: client, encoder and
// the in-process peers together.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opRec is one timed operation.
type opRec struct {
	id   int    // the tracer's op id, 0 untraced
	kind string // ckpt, retire, restore
	wall time.Duration
}

// roundStat accumulates one round of the checkpoint phase.
type roundStat struct {
	ackMs     []float64     // one sample per delta step
	blocked   time.Duration // wall the application spent in encode + store + retire calls
	cpu       time.Duration
	protected int64 // raw image bytes the round's checkpoints cover
	acked     int   // checkpoints acked
}

// outcome is everything one pass measured.
type outcome struct {
	setupS     []float64
	rounds     []roundStat
	restoreMs  []float64
	diskBytes  int64
	dedupRatio float64 // logical over physical chunk bytes, all dedup stores

	attempted, failed int
	errs              []string

	// Exact counters of the checkpoint phase.
	deltaCkpts, retires           int
	encodedBytes, inputBytes      int64
	hotPagesCoded, rawPagesStored int
	degraded, elemsDropped        int

	phaseS map[string]float64 // wall of each phase of the pass, for sizing

	ops    []opRec
	direct directTimes
	remote map[string]float64 // remote client counters over the measured phases
}

// runner drives one pass of one workload.
type runner struct {
	w      workload
	seed   int64
	rounds int
	tr     *tracer // nil = untraced
	// corrupt, when set (tests only), damages the disks before verification.
	corrupt func(disks map[string]*memFS) error

	c   *cluster
	g   *gang
	out outcome
}

func (r *runner) fail(op string, err error) {
	r.out.failed++
	if len(r.out.errs) < 8 {
		r.out.errs = append(r.out.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

// check counts one attempted operation and its failure, if any. A degraded
// ack is a failure here: the workloads are chosen so that none occurs.
func (r *runner) check(op string, err error) {
	r.out.attempted++
	if err == nil {
		return
	}
	if errors.Is(err, aic.ErrDegraded) {
		r.out.degraded++
	}
	r.fail(op, err)
}

// beginOp opens a traced op for a measured operation; warm-up, chain
// preparation and verification leave no spans.
func (r *runner) beginOp(name string, measured bool) (int, func()) {
	if !measured {
		return 0, func() {}
	}
	return r.tr.beginOp(name)
}

// deltaStep protects every rank once with a delta checkpoint. It returns
// the blocked wall and CPU, and the raw dirty bytes the frames cover.
func (r *runner) deltaStep(ctx context.Context, measured bool) (wall, cpu time.Duration, protected int64) {
	r.g.mutate()
	var upd []delta.PageUpdate
	if r.tr != nil && measured {
		upd = r.g.updates()
	}
	id, end := r.beginOp("ckpt", measured)
	c0, t0 := cpuNow(), time.Now()
	var frame []byte
	for rank, p := range r.g.procs {
		seq := p.Seq()
		endEnc := r.tr.call("ckpt", "encode", 0)
		enc, st := p.DeltaCheckpoint()
		endEnc()
		r.check("checkpoint", r.c.fac.put(ctx, rank, seq, enc))
		protected += int64(st.InputBytes)
		if measured {
			r.out.deltaCkpts++
			r.out.encodedBytes += int64(len(enc))
			r.out.inputBytes += int64(st.InputBytes)
			r.out.hotPagesCoded += st.HotPages
			r.out.rawPagesStored += st.RawPages
		}
		frame = enc
	}
	wall, cpu = time.Since(t0), cpuNow()-c0
	end()
	r.g.deltaTaken()
	if measured {
		r.out.ops = append(r.out.ops, opRec{id: id, kind: "ckpt", wall: wall})
		if r.tr != nil {
			r.out.direct.encode(r.w, upd, frame)
		}
	}
	return wall, cpu, protected
}

// retireStep bounds the chains (full + Truncate, or Compact).
func (r *runner) retireStep(ctx context.Context, measured bool) (wall, cpu time.Duration, protected int64, acked int) {
	if r.w.ring {
		r.g.mutate()
	}
	id, end := r.beginOp("retire", measured)
	c0, t0 := cpuNow(), time.Now()
	protected, acked, dropped, err := r.c.fac.retire(ctx, r.g)
	wall, cpu = time.Since(t0), cpuNow()-c0
	end()
	r.check("retire", err)
	if err := r.c.fac.housekeep(ctx); err != nil {
		r.fail("housekeep", err)
	}
	if measured {
		r.out.retires++
		r.out.elemsDropped += dropped
		r.out.ops = append(r.out.ops, opRec{id: id, kind: "retire", wall: wall})
	}
	return wall, cpu, protected, acked
}

// cycle runs one cycle. With restores > 0 it stops at the cycle's restore
// depth — restoreAt delta steps above the anchor — for a batch of restores,
// so that restore samples are spread over the run like checkpoint samples
// and every one reads a chain of the same depth.
func (r *runner) cycle(ctx context.Context, rs *roundStat, restores int) error {
	for s := 0; s < r.w.deltaSteps; s++ {
		wall, cpu, protected := r.deltaStep(ctx, rs != nil)
		if rs != nil {
			rs.ackMs = append(rs.ackMs, ms(wall))
			rs.blocked += wall
			rs.cpu += cpu
			rs.protected += protected
			rs.acked += r.w.ranks
		}
		if restores > 0 && s+1 == r.w.restoreAt {
			if err := r.restoreBatch(ctx, restores); err != nil {
				return err
			}
		}
	}
	wall, cpu, protected, acked := r.retireStep(ctx, rs != nil)
	if rs != nil {
		rs.blocked += wall
		rs.cpu += cpu
		rs.protected += protected
		rs.acked += acked
	}
	return nil
}

// restoreBatch is one slice of the restore phase: nothing else runs, every
// chain is at the restore depth, and the space metric is taken here too, so
// it moves with delta compression.
func (r *runner) restoreBatch(ctx context.Context, restores int) (err error) {
	t0 := time.Now()
	r.out.diskBytes = r.c.diskBytes()
	if r.out.dedupRatio, err = r.c.dedupRatio(ctx); err != nil {
		return err
	}
	runtime.GC()
	for i := 0; i < restores; i++ {
		r.restoreOnce(ctx, i%r.w.ranks, true)
	}
	runtime.GC()
	r.out.phaseS["restore"] += time.Since(t0).Seconds()
	return nil
}

// restoreOnce restores one rank and compares the image with the live
// process; only the restore call is timed.
func (r *runner) restoreOnce(ctx context.Context, rank int, measured bool) {
	id, end := r.beginOp("restore", measured)
	t0 := time.Now()
	img, err := r.c.fac.restore(ctx, rank)
	wall := time.Since(t0)
	end()
	if err == nil && !img.Matches(r.g.procs[rank]) {
		err = fmt.Errorf("%s: restored image differs from the live process", rankName(rank))
	}
	r.check("restore", err)
	if measured {
		r.out.restoreMs = append(r.out.restoreMs, ms(wall))
		r.out.ops = append(r.out.ops, opRec{id: id, kind: "restore", wall: wall})
		if r.tr != nil && err == nil {
			chain, err := r.c.fac.chain(ctx, rank)
			if err != nil {
				r.fail("chain", err)
				return
			}
			r.out.direct.restore(r.w, chain)
		}
	}
}

// setup builds a cluster holding a warmed-up chain per rank: generate the
// images, open the stores and start the peers, bootstrap one full checkpoint
// per rank to quorum, restart every store from its directory, then run the
// untimed warm-up.
func (r *runner) setup(ctx context.Context) error {
	t0 := time.Now()
	r.g = newGang(r.w, r.seed, r.tr != nil)
	r.c = &cluster{w: r.w, disks: make(map[string]*memFS), tr: r.tr}
	if r.tr != nil {
		r.c.reg = aic.NewMetricsRegistry()
	}
	if err := r.c.open(ctx); err != nil {
		return err
	}
	for rank, p := range r.g.procs {
		seq := p.Seq()
		r.check("bootstrap", r.c.fac.put(ctx, rank, seq, p.FullCheckpoint()))
	}
	r.g.fullTaken()
	if err := r.c.reopen(ctx); err != nil {
		return err
	}
	for c := 0; c < r.w.warmCycles; c++ {
		if err := r.cycle(ctx, nil, 0); err != nil {
			return err
		}
	}
	for i := 0; i < r.w.warmRestore; i++ {
		r.restoreOnce(ctx, i%r.w.ranks, false)
	}
	r.out.setupS = append(r.out.setupS, time.Since(t0).Seconds())
	return nil
}

// teardown stops the cluster and drops its disks.
func (r *runner) teardown() error {
	if r.c == nil {
		return nil
	}
	err := r.c.close()
	r.c = nil
	return err
}

// verify restarts everything from disk with a fresh client, restores every
// chain once more against the live processes and requires every store to
// scrub clean.
func (r *runner) verify(ctx context.Context) error {
	if r.corrupt != nil {
		if err := r.corrupt(r.c.disks); err != nil {
			return err
		}
	}
	if err := r.c.reopen(ctx); err != nil {
		return err
	}
	for rank := range r.g.procs {
		r.restoreOnce(ctx, rank, false)
	}
	for name, st := range r.c.stores() {
		keys, err := st.List(ctx)
		r.check("list "+name, err)
		for _, key := range keys {
			rep, err := st.Scrub(ctx, key, false)
			if err == nil && !rep.Clean() {
				err = fmt.Errorf("not clean: %s", rep)
			}
			r.check("scrub "+name, err)
		}
	}
	return nil
}

// run executes the whole pass: set-ups, the rounds — checkpoint cycles with
// one restore batch each — and verification. baselineOnly runs the
// checkpoint cycles alone (the traced pass's untraced reference for tracing
// overhead).
func (r *runner) run(ctx context.Context, setups int, baselineOnly bool) (err error) {
	defer func() {
		if tdErr := r.teardown(); err == nil {
			err = tdErr
		}
	}()
	for i := 0; i < setups; i++ {
		if err := r.teardown(); err != nil {
			return err
		}
		if err := r.setup(ctx); err != nil {
			return err
		}
	}
	r.out.phaseS = make(map[string]float64)
	t0 := time.Now()
	before := r.c.remoteCounters()
	for round := 0; round < r.rounds; round++ {
		runtime.GC()
		var rs roundStat
		for c := 0; c < r.w.cycles; c++ {
			restores := 0
			if c == 0 && !baselineOnly {
				restores = r.w.restores
			}
			if err := r.cycle(ctx, &rs, restores); err != nil {
				return err
			}
		}
		r.out.rounds = append(r.out.rounds, rs)
	}
	r.out.phaseS["measure"] = time.Since(t0).Seconds()
	if baselineOnly {
		return nil
	}
	if r.tr != nil {
		r.out.direct.placement(ctx, r.c)
		r.out.remote = r.c.remoteCounters()
		for name, v := range before {
			r.out.remote[name] -= v
		}
	}
	t0 = time.Now()
	err = r.verify(ctx)
	r.out.phaseS["verify"] = time.Since(t0).Seconds()
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
