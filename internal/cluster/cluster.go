// Package cluster simulates several RMS processes on one multicore node
// sharing a single checkpointing core (the paper's sharing factor, SF).
// Where Section III.D models the worst case analytically — all sharers
// demanding the core at the same instant, resources divided evenly — this
// package runs the processes for real and serves their delta-compression
// and remote-transfer jobs through a FIFO queue on the shared core, giving
// the empirical counterpart to Fig. 7: per-process level-2/3 completion
// latencies inflate with queueing delay as SF grows, and NET² follows.
package cluster

import (
	"container/heap"
	"fmt"
	"math"

	"aic/internal/ckpt"
	"aic/internal/core"
	"aic/internal/memsim"
	"aic/internal/storage"
	"aic/internal/workload"
)

// Config parameterizes a shared-node run.
type Config struct {
	System storage.System
	// SharingFactor is the number of processes sharing the checkpointing
	// core (≥ 1).
	SharingFactor int
	// Interval is each process's checkpoint interval in work seconds.
	Interval float64
	// Lambda evaluates NET² on the recorded traces.
	Lambda [3]float64
	// Seed derives per-process workload seeds.
	Seed uint64
	// NewProgram builds process i's workload.
	NewProgram func(i int, seed uint64) workload.Program
}

// ProcessResult carries one process's recorded intervals and NET².
type ProcessResult struct {
	Name      string
	Intervals []core.IntervalRecord
	NET2      float64
	// MeanQueueDelay is the average time checkpoint jobs waited for the
	// shared core.
	MeanQueueDelay float64
}

// Result is the node-level outcome.
type Result struct {
	SharingFactor int
	Processes     []ProcessResult
	MeanNET2      float64
}

// procState is one process's simulation state.
type procState struct {
	prog         workload.Program
	as           *memsim.AddressSpace
	builder      *ckpt.Builder
	work         float64
	lastCkpt     float64
	remoteBusyAt float64 // work-time when this process's last remote job completes
	records      []core.IntervalRecord
	queueDelays  []float64
}

// ckptJob is a compression+transfer job queued on the shared core.
type ckptJob struct {
	proc    int
	submit  float64 // wall time the job was submitted
	service float64 // dl + remote transfer
	rec     core.IntervalRecord
}

type jobQueue []ckptJob

func (q jobQueue) Len() int           { return len(q) }
func (q jobQueue) Less(i, j int) bool { return q[i].submit < q[j].submit }
func (q jobQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)        { *q = append(*q, x.(ckptJob)) }
func (q *jobQueue) Pop() any          { old := *q; n := len(old); x := old[n-1]; *q = old[:n-1]; return x }

// Run simulates the node until every process finishes its base time. All
// processes advance in lockstep virtual time (they occupy distinct compute
// cores); only the checkpointing core is contended.
func Run(cfg Config) (*Result, error) {
	if cfg.SharingFactor < 1 {
		return nil, fmt.Errorf("cluster: sharing factor %d", cfg.SharingFactor)
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("cluster: non-positive interval")
	}
	if cfg.NewProgram == nil {
		return nil, fmt.Errorf("cluster: no program factory")
	}
	procs := make([]*procState, cfg.SharingFactor)
	for i := range procs {
		prog := cfg.NewProgram(i, cfg.Seed+uint64(i)*101)
		as := memsim.New(0)
		ps := &procState{
			prog:    prog,
			as:      as,
			builder: ckpt.NewBuilder(as.PageSize(), 0, 0),
		}
		prog.Init(as)
		ps.builder.FullCheckpoint(as) // pre-staged initial image
		procs[i] = ps
	}

	var queue jobQueue
	heap.Init(&queue)
	coreFreeAt := 0.0 // wall time the shared core frees up

	// serveQueue drains jobs whose turn has come up to wall time `now`,
	// recording each owning process's interval.
	serveQueue := func(now float64) {
		for queue.Len() > 0 {
			head := queue[0]
			start := head.submit
			if coreFreeAt > start {
				start = coreFreeAt
			}
			if start > now {
				return
			}
			heap.Pop(&queue)
			end := start + head.service
			coreFreeAt = end
			ps := procs[head.proc]
			// Completion latencies from checkpoint start (c1 end =
			// submit): queueing delay is part of the concurrent window.
			wait := start - head.submit
			ps.queueDelays = append(ps.queueDelays, wait)
			rec := head.rec
			rec.C2, _ = core.LevelCosts(cfg.System, rec.C1+wait, rec.DL, rec.DS)
			rec.C3 = rec.C1 + wait + head.service
			ps.records = append(ps.records, rec)
			ps.remoteBusyAt = end
		}
	}

	const dt = 1.0
	wall := 0.0
	for {
		done := true
		for _, ps := range procs {
			if ps.work < ps.prog.BaseTime() {
				done = false
			}
		}
		if done && queue.Len() == 0 && coreFreeAt <= wall {
			break
		}
		serveQueue(wall)
		for i, ps := range procs {
			if ps.work >= ps.prog.BaseTime() {
				continue
			}
			step := dt
			if ps.work+step > ps.prog.BaseTime() {
				step = ps.prog.BaseTime() - ps.work
			}
			ps.prog.Step(ps.as, ps.work, step)
			ps.work += step
			// Checkpoint when the interval elapsed and the previous remote
			// job has completed (single chain per process).
			if ps.work-ps.lastCkpt >= cfg.Interval && wall >= ps.remoteBusyAt {
				c, st := ps.builder.DeltaCheckpoint(ps.as)
				rec := core.CheckpointCosts(cfg.System, c, st, ps.as.PageSize())
				rec.W = ps.work - ps.lastCkpt
				heap.Push(&queue, ckptJob{
					proc:    i,
					submit:  wall + rec.C1,
					service: rec.DL + cfg.System.Remote.TransferTime(int64(rec.DS)),
					rec:     rec,
				})
				ps.lastCkpt = ps.work
				// Exactly one outstanding remote job per process: the next
				// checkpoint waits until the queue serves this one.
				ps.remoteBusyAt = math.Inf(1)
			}
		}
		wall += dt
		if wall > 1e7 {
			return nil, fmt.Errorf("cluster: simulation failed to converge")
		}
	}
	serveQueue(wall + coreFreeAt + 1)

	res := &Result{SharingFactor: cfg.SharingFactor}
	var net2Sum float64
	for i, ps := range procs {
		pr := ProcessResult{Name: fmt.Sprintf("%s-%d", ps.prog.Name(), i), Intervals: ps.records}
		if len(ps.records) > 0 {
			n, _, err := core.TraceNET2(ps.records, cfg.Lambda)
			if err != nil {
				return nil, fmt.Errorf("cluster: proc %d: %w", i, err)
			}
			pr.NET2 = n
			var wsum float64
			for _, w := range ps.queueDelays {
				wsum += w
			}
			pr.MeanQueueDelay = wsum / float64(len(ps.queueDelays))
		} else {
			pr.NET2 = 1
		}
		net2Sum += pr.NET2
		res.Processes = append(res.Processes, pr)
	}
	res.MeanNET2 = net2Sum / float64(len(procs))
	return res, nil
}

// SharingSweep runs the node at each sharing factor and reports the mean
// NET² — the empirical Fig. 7 series.
func SharingSweep(cfg Config, sfs []int) (map[int]float64, error) {
	out := make(map[int]float64, len(sfs))
	for _, sf := range sfs {
		c := cfg
		c.SharingFactor = sf
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("cluster: SF %d: %w", sf, err)
		}
		out[sf] = res.MeanNET2
	}
	return out, nil
}
