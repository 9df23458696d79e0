package exp

import (
	"fmt"
	"sort"
	"strings"

	"aic/internal/cluster"
	"aic/internal/failure"
	"aic/internal/faultsim"
	"aic/internal/mpi"
	"aic/internal/numeric"
	"aic/internal/recovery"
	"aic/internal/stats"
	"aic/internal/storage"
	"aic/internal/workload"
)

// This file hosts the extension experiments beyond the paper's evaluation:
// the empirical (queue-based) sharing-factor study, coordinated MPI
// checkpointing scaling, and the Weibull failure-model sensitivity of the
// end-to-end fault simulator.

// SharingEmpirical runs the shared-checkpointing-core node simulation and
// returns mean NET² by sharing factor — the queue-based counterpart of
// Fig. 7's worst-case analytic model.
func SharingEmpirical(seed uint64, sfs []int) (map[int]float64, error) {
	if len(sfs) == 0 {
		sfs = []int{1, 3, 7, 15}
	}
	cfg := cluster.Config{
		System:   BenchSystem(1),
		Interval: 20,
		Lambda:   ExperimentLambda(),
		Seed:     seed,
		NewProgram: func(i int, s uint64) workload.Program {
			return workload.Sphinx3(s)
		},
	}
	return cluster.SharingSweep(cfg, sfs)
}

// MPIRow is one rank count of the coordinated-checkpointing study.
type MPIRow struct {
	Ranks   int
	SICNET2 float64
	AICNET2 float64
}

// MPIScaling runs coordinated SIC and coordinated AIC at several job
// widths. The job-level failure rate grows with the rank count, so NET²
// must grow — the Fig. 5 mechanism reproduced by simulation rather than
// analytically.
func MPIScaling(seed uint64, rankCounts []int) ([]MPIRow, error) {
	if len(rankCounts) == 0 {
		rankCounts = []int{1, 4, 16}
	}
	perRank := failure.SplitRate(1e-3/4, failure.CoastalProportions())
	var rows []MPIRow
	for _, n := range rankCounts {
		row := MPIRow{Ranks: n}
		for _, policy := range []mpi.Policy{mpi.CoordinatedSIC, mpi.CoordinatedAIC} {
			res, err := mpi.Run(mpi.Config{
				System:        BenchSystem(1),
				Policy:        policy,
				Ranks:         n,
				LambdaPerRank: perRank,
				Interval:      20,
				Seed:          seed,
				NewProgram: func(rank int, s uint64) workload.Program {
					return workload.Sphinx3(s)
				},
			})
			if err != nil {
				return nil, fmt.Errorf("mpi %d ranks %v: %w", n, policy, err)
			}
			if policy == mpi.CoordinatedSIC {
				row.SICNET2 = res.NET2
			} else {
				row.AICNET2 = res.NET2
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WeibullRow is one failure-model shape of the sensitivity study.
type WeibullRow struct {
	Shape        float64 // 0 = exponential reference
	MeanWall     float64
	MeanFailures float64
	Trials       int
}

// WeibullSensitivity replays the end-to-end fault simulator under
// exponential failures and under mean-matched Weibull failures of several
// shapes, measuring the realized wall time. Shape < 1 clusters failures;
// since the injected rate is mean-matched, the paper's exponential
// assumption can be judged by how far the realized turnaround moves.
func WeibullSensitivity(seed uint64, shapes []float64, trials int) ([]WeibullRow, error) {
	if len(shapes) == 0 {
		shapes = []float64{0.7, 1.0, 1.3}
	}
	if trials <= 0 {
		trials = 20
	}
	rates := [3]float64{4e-3, 8e-3, 3e-3}
	sys := BenchSystem(1)
	prog := func(s uint64) *workload.Synthetic {
		return workload.NewSynthetic("wsens", 150, 256, s, []workload.Phase{
			{Duration: 10, Rate: 40, RegionLo: 0, RegionHi: 256, Pattern: workload.Random, Mode: workload.Scramble, Fraction: 0.4},
		})
	}
	newManager := func() *recovery.Manager {
		return recovery.NewManager("p",
			storage.NewMemStore(sys.LocalDisk),
			storage.NewMemStore(sys.RAID5),
			storage.NewMemStore(sys.Remote))
	}
	run := func(src faultsim.EventSource) (float64, float64, error) {
		res, err := faultsim.Run(prog(seed), faultsim.Config{System: sys, Interval: 20, MaxFailures: 10}, src, newManager())
		if err != nil {
			return 0, 0, err
		}
		return res.WallTime, float64(res.Failures), nil
	}

	var rows []WeibullRow
	// Exponential reference (shape label 0).
	var walls, fails []float64
	for t := 0; t < trials; t++ {
		w, f, err := run(failure.NewInjector(numeric.NewRNG(seed+uint64(t)), rates))
		if err != nil {
			return nil, err
		}
		walls, fails = append(walls, w), append(fails, f)
	}
	rows = append(rows, WeibullRow{Shape: 0, MeanWall: stats.Mean(walls), MeanFailures: stats.Mean(fails), Trials: trials})

	for _, shape := range shapes {
		walls, fails = nil, nil
		for t := 0; t < trials; t++ {
			sh, sc := failure.WeibullMatchingRates(rates, shape)
			inj, err := failure.NewWeibullInjector(numeric.NewRNG(seed+uint64(t)), sh, sc)
			if err != nil {
				return nil, err
			}
			w, f, err := run(inj)
			if err != nil {
				return nil, err
			}
			walls, fails = append(walls, w), append(fails, f)
		}
		rows = append(rows, WeibullRow{Shape: shape, MeanWall: stats.Mean(walls), MeanFailures: stats.Mean(fails), Trials: trials})
	}
	return rows, nil
}

// RenderExtensions formats the three extension studies.
func RenderExtensions(sharing map[int]float64, mpiRows []MPIRow, weibull []WeibullRow) string {
	var b strings.Builder
	if len(sharing) > 0 {
		b.WriteString("Extension — empirical sharing factor (FIFO-queued checkpointing core):\n")
		var sfs []int
		for sf := range sharing {
			sfs = append(sfs, sf)
		}
		sort.Ints(sfs)
		for _, sf := range sfs {
			fmt.Fprintf(&b, "  SF=%-3d mean NET² %.4f\n", sf, sharing[sf])
		}
	}
	if len(mpiRows) > 0 {
		b.WriteString("Extension — coordinated MPI checkpointing (job fails with any rank):\n")
		fmt.Fprintf(&b, "  %6s %12s %12s\n", "ranks", "coord-SIC", "coord-AIC")
		for _, r := range mpiRows {
			fmt.Fprintf(&b, "  %6d %12.4f %12.4f\n", r.Ranks, r.SICNET2, r.AICNET2)
		}
	}
	if len(weibull) > 0 {
		b.WriteString("Extension — failure-model sensitivity (mean-matched rates):\n")
		fmt.Fprintf(&b, "  %12s %12s %10s\n", "shape", "mean wall(s)", "failures")
		for _, r := range weibull {
			label := fmt.Sprintf("%.1f", r.Shape)
			if r.Shape == 0 {
				label = "exp"
			}
			fmt.Fprintf(&b, "  %12s %12.1f %10.1f\n", label, r.MeanWall, r.MeanFailures)
		}
	}
	return b.String()
}
