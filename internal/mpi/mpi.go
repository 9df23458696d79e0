// Package mpi extends AIC to coordinated checkpointing of multi-process
// MPI jobs — the direction the paper explicitly defers ("AIC for MPI tasks
// requires tracking similarity degrees of all MPI processes for coordinated
// checkpointing ... will be treated in a separate article").
//
// Semantics: the job's ranks run in lockstep; a checkpoint is *global* —
// every rank halts until the slowest rank's local checkpoint completes
// (coordination barrier + in-flight message drain), then the per-rank delta
// compressions and remote transfers proceed concurrently on each node's
// checkpointing core. A failure of any rank rolls the whole job back, so
// the job-level failure rate is the sum over ranks. The adaptive decider
// aggregates every rank's predicted costs (the job-level c_k is the max
// over ranks, since the barrier waits for the slowest) and applies the same
// EVT/Newton–Raphson search as single-process AIC.
package mpi

import (
	"fmt"
	"math"

	"aic/internal/ckpt"
	"aic/internal/core"
	"aic/internal/memsim"
	"aic/internal/model"
	"aic/internal/numeric"
	"aic/internal/predictor"
	"aic/internal/storage"
	"aic/internal/workload"
)

// Policy selects the coordinated checkpointing policy.
type Policy int

// Coordinated policies.
const (
	CoordinatedSIC Policy = iota // fixed interval
	CoordinatedAIC               // adaptive, rank-aggregated predictions
)

// String names the policy.
func (p Policy) String() string {
	if p == CoordinatedAIC {
		return "coordinated-AIC"
	}
	return "coordinated-SIC"
}

// Config parameterizes a coordinated job run.
type Config struct {
	System storage.System
	Policy Policy
	// Ranks is the number of MPI processes.
	Ranks int
	// LambdaPerRank is each rank's per-level failure rate; the job-level
	// rate is Ranks times it (any rank failure fails the job).
	LambdaPerRank [3]float64
	// Interval is the fixed checkpoint interval (CoordinatedSIC) or the
	// bootstrap interval (CoordinatedAIC). 0 selects 5 s.
	Interval float64
	// Seed derives per-rank workload seeds.
	Seed uint64
	// NewProgram builds rank i's workload.
	NewProgram func(rank int, seed uint64) workload.Program
}

const (
	// coordinationCost is the barrier/message-drain time added to every
	// coordinated local checkpoint (the paper's note that c1 for MPI
	// includes coordinated-checkpointing time).
	coordinationCost = 0.2
	// wMin is the shortest work span the adaptive decider considers; the
	// search runs up to the slowest rank's base time.
	wMin = 1.0
)

// JobLambda returns the job-level failure rates.
func (c Config) JobLambda() [3]float64 {
	var out [3]float64
	for i, r := range c.LambdaPerRank {
		out[i] = r * float64(c.Ranks)
	}
	return out
}

// rank is one MPI process's simulation state.
type rank struct {
	prog    workload.Program
	as      *memsim.AddressSpace
	builder *ckpt.Builder
	predC1  *predictor.Online
	predDL  *predictor.Online
	predDS  *predictor.Online
}

// Result reports a coordinated run.
type Result struct {
	Policy    Policy
	Ranks     int
	BaseTime  float64
	WallTime  float64 // includes the coordinated halts
	Intervals []core.IntervalRecord
	NET2      float64
}

// Run executes the coordinated job and evaluates Eq. (1) at the job level.
func Run(cfg Config) (*Result, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("mpi: need at least one rank")
	}
	if cfg.NewProgram == nil {
		return nil, fmt.Errorf("mpi: no program factory")
	}
	ranks := make([]*rank, cfg.Ranks)
	base := 0.0
	for i := range ranks {
		prog := cfg.NewProgram(i, cfg.Seed+uint64(i)*977)
		if prog.BaseTime() > base {
			base = prog.BaseTime()
		}
		as := memsim.New(0)
		r := &rank{
			prog:    prog,
			as:      as,
			builder: ckpt.NewBuilder(as.PageSize(), 0, 4096),
			predC1:  predictor.NewOnline(4, 3, 0.5),
			predDL:  predictor.NewOnline(4, 3, 0.5),
			predDS:  predictor.NewOnline(4, 3, 0.5),
		}
		prog.Init(as)
		r.builder.FullCheckpoint(as) // pre-staged initial image
		ranks[i] = r
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5
	}
	lambda := cfg.JobLambda()

	res := &Result{Policy: cfg.Policy, Ranks: cfg.Ranks, BaseTime: base}
	work := 0.0
	wall := 0.0
	lastCkpt := 0.0
	prevWindow := 0.0

	// metricsOf gathers rank r's predictor features at the current moment.
	metricsOf := func(r *rank) predictor.Metrics {
		m := predictor.Metrics{DP: float64(r.as.DirtyCount()), T: work - lastCkpt}
		n := 0
		var jd, di float64
		for _, idx := range r.as.DirtyPages() {
			if n >= 16 {
				break
			}
			old := r.builder.PrevPage(idx)
			if old == nil {
				continue
			}
			jd += predictor.JaccardDistance(r.as.Page(idx), old)
			di += predictor.DivergenceIndex(r.as.Page(idx))
			n++
		}
		if n > 0 {
			m.JD, m.DI = jd/float64(n), di/float64(n)
		}
		return m
	}

	// predictJob aggregates rank predictions into job-level params: the
	// barrier waits for the slowest rank at every stage.
	predictJob := func() model.Params {
		var job slowest
		for _, r := range ranks {
			m := metricsOf(r)
			rawCap := m.DP*float64(r.as.PageSize()) + 4096
			job.add(cfg.System,
				math.Min(r.predC1.Predict(m), cfg.System.LocalDisk.TransferTime(int64(rawCap))),
				math.Min(r.predDL.Predict(m), cfg.System.CompressTime(int64(rawCap), int64(rawCap))),
				math.Min(r.predDS.Predict(m), rawCap))
		}
		return job.record().Params(lambda)
	}

	takeCheckpoint := func() {
		var job slowest
		for _, r := range ranks {
			m := metricsOf(r)
			c, st := r.builder.DeltaCheckpoint(r.as)
			rc := core.CheckpointCosts(cfg.System, c, st, r.as.PageSize())
			job.add(cfg.System, rc.C1, rc.DL, rc.DS)
			r.predC1.Observe(m, rc.C1)
			r.predDL.Observe(m, rc.DL)
			r.predDS.Observe(m, rc.DS)
		}
		iv := job.record()
		iv.W = math.Max(wMin, (work-lastCkpt)-prevWindow)
		res.Intervals = append(res.Intervals, iv)
		wall += iv.C1 // every rank halts for the coordinated local checkpoint
		prevWindow = job.w3
		lastCkpt = work
	}

	ready := func() bool {
		for _, r := range ranks {
			if !r.predC1.Ready() || !r.predDL.Ready() || !r.predDS.Ready() {
				return false
			}
		}
		return true
	}

	const dt = 1.0
	for work < base {
		step := math.Min(dt, base-work)
		for _, r := range ranks {
			if work < r.prog.BaseTime() {
				r.prog.Step(r.as, work, math.Min(step, r.prog.BaseTime()-work))
			}
		}
		work += step
		wall += step
		if work >= base {
			break
		}
		elapsed := work - lastCkpt
		effW := elapsed - prevWindow
		if effW <= 0 {
			continue // previous coordinated transfers still in flight
		}
		take := false
		switch {
		case cfg.Policy == CoordinatedSIC || !ready():
			take = elapsed >= cfg.Interval
		default:
			cur := predictJob()
			prev := cur
			if n := len(res.Intervals); n > 0 {
				prev = res.Intervals[n-1].Params(lambda)
			}
			obj := func(w float64) float64 {
				ivm, err := model.EvalL2L3Dynamic(w, cur, prev)
				if err != nil {
					return math.Inf(1)
				}
				return ivm.NET2()
			}
			wStar, objStar, _ := numeric.MinimizeEVT(obj, wMin, base, 200)
			take = wStar <= effW || obj(effW) <= objStar*1.001
		}
		if take {
			takeCheckpoint()
		}
	}
	anyDirty := false
	for _, r := range ranks {
		if r.as.DirtyCount() > 0 {
			anyDirty = true
		}
	}
	if anyDirty {
		takeCheckpoint()
	}
	res.WallTime = wall

	n, _, err := core.TraceNET2(res.Intervals, lambda)
	if err != nil {
		return nil, err
	}
	res.NET2 = n
	return res, nil
}

// slowest accumulates the per-rank stage maxima a coordinated checkpoint
// waits for: the local checkpoint c1 and the level-2/3 transfer windows
// dl + ds/B_k that follow it.
type slowest struct{ c1, w2, w3 float64 }

func (s *slowest) add(sys storage.System, c1, dl, ds float64) {
	w2, w3 := dl, dl
	if b := sys.RAID5.BandwidthBps; b > 0 {
		w2 += ds / b
	}
	if b := sys.Remote.BandwidthBps; b > 0 {
		w3 += ds / b
	}
	if c1 > s.c1 {
		s.c1 = c1
	}
	if w2 > s.w2 {
		s.w2 = w2
	}
	if w3 > s.w3 {
		s.w3 = w3
	}
}

// record returns the job-level latencies: the slowest rank's, with the
// coordination cost on the local checkpoint.
func (s slowest) record() core.IntervalRecord {
	c1 := s.c1 + coordinationCost
	return core.IntervalRecord{C1: c1, C2: c1 + s.w2, C3: c1 + s.w3}
}
