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
// is single-process AIC's core.Decider, one predictor triplet per rank: it
// aggregates every rank's predicted costs (the job-level c_k is the max over
// ranks, since the barrier waits for the slowest) and runs the same
// EVT/Newton–Raphson search and take rule.
package mpi

import (
	"fmt"
	"math"

	"aic/internal/ckpt"
	"aic/internal/core"
	"aic/internal/memsim"
	"aic/internal/model"
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
	// bootstrap interval (CoordinatedAIC). 0 selects core.BootstrapInterval
	// (5 s).
	Interval float64
	// Seed derives per-rank workload seeds.
	Seed uint64
	// NewProgram builds rank i's workload.
	NewProgram func(rank int, seed uint64) workload.Program
}

// coordinationCost is the barrier/message-drain time added to every
// coordinated local checkpoint (the paper's note that c1 for MPI includes
// coordinated-checkpointing time).
const coordinationCost = 0.2

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
		r := &rank{prog: prog, as: as, builder: ckpt.NewBuilder(as.PageSize(), 0, 4096)}
		prog.Init(as)
		r.builder.FullCheckpoint(as) // pre-staged initial image
		ranks[i] = r
	}
	if cfg.Interval <= 0 {
		cfg.Interval = core.BootstrapInterval
	}
	dec := core.NewDecider(cfg.System, ranks[0].as.PageSize(), cfg.Ranks)
	lambda := cfg.JobLambda()

	res := &Result{Policy: cfg.Policy, Ranks: cfg.Ranks, BaseTime: base}
	work := 0.0
	wall := 0.0
	lastCkpt := 0.0
	prevWindow := 0.0

	// metricsOf gathers rank r's predictor features at the current moment,
	// JD and DI over its first 16 dirty pages that have a previous version.
	metricsOf := func(r *rank) predictor.Metrics {
		m, _ := core.PageMetrics(r.as, r.builder, work-lastCkpt, r.as.DirtyPages(), 16)
		return m
	}

	takeCheckpoint := func() {
		var job slowest
		for i, r := range ranks {
			m := metricsOf(r)
			c, st := r.builder.DeltaCheckpoint(r.as)
			rc := core.CheckpointCosts(cfg.System, c, st, r.as.PageSize())
			job.add(cfg.System, rc.C1, rc.DL, rc.DS)
			dec.Observe(i, m, rc.C1, rc.DL, rc.DS)
		}
		iv := job.record()
		iv.W = math.Max(core.WMin, (work-lastCkpt)-prevWindow)
		res.Intervals = append(res.Intervals, iv)
		wall += iv.C1 // every rank halts for the coordinated local checkpoint
		prevWindow = job.w3
		lastCkpt = work
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
		case cfg.Policy == CoordinatedSIC || !dec.Ready():
			take = elapsed >= cfg.Interval
		default:
			// Job-level predictions: the barrier waits for the slowest
			// rank at every stage. A ready decider has observed (and so
			// recorded) at least one checkpoint.
			var job slowest
			for i, r := range ranks {
				c1, dl, ds := dec.Predict(i, metricsOf(r))
				job.add(cfg.System, c1, dl, ds)
			}
			cur := job.record().Params(lambda)
			prev := res.Intervals[len(res.Intervals)-1].Params(lambda)
			take, _ = dec.Decide(func(float64) model.Params { return cur }, prev, base, effW)
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
	w2, w3 := core.LevelCosts(sys, 0, dl, ds)
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
