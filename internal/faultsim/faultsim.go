// Package faultsim is the end-to-end fidelity validator: it executes a
// program under incremental+delta checkpointing with *real* failure
// injection — failures destroy the live process (and, for total-node
// failures, the local store), recovery replays the surviving checkpoint
// chain, the program's execution state is restored from the CPU-state blob
// of the prefix actually replayed, and the lost work is genuinely
// re-executed page write by page write. Its headline guarantee, exercised
// by the tests: a run interrupted by any number of failures finishes with a
// memory image byte-identical to an undisturbed run of the same program.
//
// (Performance questions — expected turnaround, NET² — belong to the
// analytic models and the cost-replay core.Runtime, with internal/sim as
// its Monte Carlo reference; this package answers the correctness question
// those models presuppose.)
package faultsim

import (
	"context"
	"encoding/binary"
	"fmt"

	"aic/internal/ckpt"
	"aic/internal/failure"
	"aic/internal/memsim"
	"aic/internal/recovery"
	"aic/internal/storage"
	"aic/internal/workload"
)

// EventSource yields failure events; both the exponential and the Weibull
// injectors satisfy it.
type EventSource interface {
	Next(now float64) (failure.Event, bool)
}

// Config parameterizes a fault-injected run.
type Config struct {
	System storage.System
	// Interval is the checkpoint interval in work seconds (fixed; the
	// fidelity validator does not need the adaptive decider).
	Interval float64
	// MaxFailures stops injecting after this many failures (0 = unlimited).
	MaxFailures int
}

// Result reports a fault-injected run.
type Result struct {
	BaseTime    float64 // work seconds the program needed
	WallTime    float64 // realized wall clock including halts, recoveries, rework
	Checkpoints int
	Failures    int
	PerLevel    [3]int // failures by level
	ReworkTime  float64
	Recoveries  []recovery.Info
	// Image is the final memory image, for verification against the
	// failure-free reference.
	Image *memsim.AddressSpace
}

// PackCPUState packs the program's execution state plus the work-time
// position the checkpoint corresponds to — the CPU-state blob format every
// fault-injected run (this package's Run and the chaos harness) stores in
// its checkpoints so a restore can resume the identical write stream.
func PackCPUState(prog workload.Stateful, workNow float64) []byte {
	blob := prog.SaveState()
	out := make([]byte, 0, len(blob)+8)
	out = binary.LittleEndian.AppendUint64(out, uint64(int64(workNow*1e9)))
	return append(out, blob...)
}

// ParseCPUState reverses PackCPUState.
func ParseCPUState(blob []byte) (workNow float64, progState []byte, err error) {
	if len(blob) < 8 {
		return 0, nil, fmt.Errorf("faultsim: CPU-state blob too short")
	}
	workNow = float64(int64(binary.LittleEndian.Uint64(blob))) / 1e9
	return workNow, blob[8:], nil
}

// Run executes the program to completion under failures. The program must
// be Stateful so its execution state rides in the checkpoints.
func Run(prog workload.Stateful, cfg Config, events EventSource, mgr *recovery.Manager) (*Result, error) {
	// The simulation is node-local even when the manager's stores are not;
	// a background context keeps the store calls unbounded, matching the
	// model's assumption that simulated transfers always complete.
	//aiclint:ignore ctxflow node-local simulation contract: simulated transfers always complete
	ctx := context.Background()
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("faultsim: non-positive checkpoint interval")
	}
	base := prog.BaseTime()
	res := &Result{BaseTime: base}

	as := memsim.New(0)
	builder := ckpt.NewBuilder(as.PageSize(), 0, 0)
	prog.Init(as)

	wall := 0.0
	work := 0.0
	lastCkptWork := 0.0

	takeFull := func() error {
		builder.SetCPUState(PackCPUState(prog, work))
		c := builder.FullCheckpoint(as)
		if err := mgr.Store(ctx, c); err != nil {
			return err
		}
		wall += cfg.System.LocalDisk.TransferTime(int64(c.Size()))
		res.Checkpoints++
		lastCkptWork = work
		return nil
	}
	takeDelta := func() error {
		builder.SetCPUState(PackCPUState(prog, work))
		c, st := builder.DeltaCheckpoint(as)
		if err := mgr.Store(ctx, c); err != nil {
			return err
		}
		wall += cfg.System.LocalDisk.TransferTime(int64(st.InputBytes))
		res.Checkpoints++
		lastCkptWork = work
		return nil
	}

	// The initial full checkpoint establishes the chain (pre-staged: no
	// wall cost, mirroring the runtime's job-submission staging).
	builder.SetCPUState(PackCPUState(prog, work))
	if err := mgr.Store(ctx, builder.FullCheckpoint(as)); err != nil {
		return nil, err
	}
	res.Checkpoints++

	nextFailure, haveFailure := events.Next(wall)

	for work < base {
		step := 1.0 // execution step granularity (s)
		if work+step > base {
			step = base - work
		}
		// Does a failure land within this wall step? (Execution advances
		// wall and work together.)
		if haveFailure && (cfg.MaxFailures == 0 || res.Failures < cfg.MaxFailures) && nextFailure.Time < wall+step {
			partial := nextFailure.Time - wall
			if partial > 0 {
				prog.Step(as, work, partial)
				work += partial
				wall += partial
			}
			// Failure strikes: the live process is gone.
			res.Failures++
			res.PerLevel[nextFailure.Level-1]++
			mgr.ApplyFailure(ctx, nextFailure.Level)

			restored, info, err := mgr.Recover(ctx, nextFailure.Level)
			if err != nil {
				return nil, err
			}
			ckptWork, progState, err := ParseCPUState(info.CPUState)
			if err != nil {
				return nil, err
			}
			if err := prog.LoadState(progState); err != nil {
				return nil, err
			}
			res.Recoveries = append(res.Recoveries, info)
			res.ReworkTime += work - ckptWork
			work = ckptWork
			as = restored
			// The restore point starts a fresh chain: rebuild the builder
			// and re-establish a full checkpoint at every level.
			builder = ckpt.NewBuilder(as.PageSize(), 0, 0)
			mgr.Reset(ctx)
			wall += info.ReadTime
			if err := takeFull(); err != nil {
				return nil, err
			}
			nextFailure, haveFailure = events.Next(wall)
			continue
		}
		prog.Step(as, work, step)
		work += step
		wall += step
		if work-lastCkptWork >= cfg.Interval && work < base {
			if err := takeDelta(); err != nil {
				return nil, err
			}
		}
	}
	// Closing checkpoint covers the tail.
	if as.DirtyCount() > 0 {
		if err := takeDelta(); err != nil {
			return nil, err
		}
	}
	res.WallTime = wall
	res.Image = as
	return res, nil
}

// FinalImage re-runs the program without failures and returns its final
// memory image — the reference a fault-injected run must match. The caller
// provides a fresh program instance with the same seed.
func FinalImage(prog workload.Program) *memsim.AddressSpace {
	as := memsim.New(0)
	prog.Init(as)
	base := prog.BaseTime()
	for now := 0.0; now < base; now++ {
		step := 1.0
		if now+step > base {
			step = base - now
		}
		prog.Step(as, now, step)
	}
	return as
}
