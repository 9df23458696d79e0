// faultinjection demonstrates fault tolerance at both API layers.
//
// Part 1 drives the public facade with functional options: a Process
// (parallel delta encoding via aic.WithParallelism) checkpoints into a
// durable CheckpointDir, the newest stored element is silently corrupted on
// disk, and Scrub + RestoreLatestGood salvage the newest intact prefix.
//
// Part 2 drives the end-to-end fault simulator underneath: a program runs
// under incremental+delta checkpointing while failures of all three classes
// strike; every failure destroys the live process (total-node failures also
// wipe the local store), recovery replays the surviving chain and resumes
// the execution state from the checkpoint's CPU-state blob, and the lost
// work is re-executed. The final memory image is verified byte-for-byte
// against an undisturbed reference run — under both exponential and bursty
// Weibull failure processes.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"aic"
	"aic/internal/failure"
	"aic/internal/faultsim"
	"aic/internal/numeric"
	"aic/internal/recovery"
	"aic/internal/storage"
	"aic/internal/workload"
)

func main() {
	fmt.Println("facade: corrupt-and-salvage round trip:")
	if err := facadeDemo(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsimulator: failure-injected execution:")
	simulatorDemo()
}

// facadeDemo is the public-API path: OpenCheckpointDir + NewProcess with
// functional options, an injected on-disk corruption, and the scrub/restore
// salvage the storage layer guarantees.
func facadeDemo() error {
	dir, err := os.MkdirTemp("", "aic-faultinjection-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ckpts, err := aic.OpenCheckpointDir(dir)
	if err != nil {
		return err
	}
	defer ckpts.Close()

	// WithParallelism fans the delta encode across workers; the encoded
	// stream is byte-identical to the serial one.
	proc := aic.NewProcess(0, aic.WithParallelism(4))
	proc.Write(0, 0, []byte("alpha"))
	proc.Write(1, 0, []byte("beta"))
	if err := ckpts.Append(context.Background(), "job", proc.Seq(), proc.FullCheckpoint()); err != nil {
		return err
	}
	for _, update := range []string{"brave", "omega"} {
		proc.Write(1, 0, []byte(update))
		enc, st := proc.DeltaCheckpoint()
		fmt.Printf("  delta seq=%d: %d bytes (ratio %.2f)\n", proc.Seq()-1, len(enc), st.Ratio())
		if err := ckpts.Append(context.Background(), "job", proc.Seq()-1, enc); err != nil {
			return err
		}
	}

	// Silent corruption strikes the newest stored element, beneath every
	// integrity layer: flip one byte of its file.
	path := filepath.Join(dir, "job", "ckpt-00000002.aic")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}

	// Scrub quarantines the damage; RestoreLatestGood falls back to the
	// newest intact prefix.
	rep, err := ckpts.Scrub(context.Background(), "job", true)
	if err != nil {
		return err
	}
	fmt.Printf("  scrub: corrupt=%v repaired=%v\n", rep.Corrupt, rep.Repaired)
	im, rrep, err := ckpts.RestoreLatestGood(context.Background(), "job")
	if err != nil {
		return err
	}
	fmt.Printf("  restored: anchor=%d last=%d pages=%d\n", rrep.AnchorSeq, rrep.LastSeq, im.Pages())
	fmt.Printf("  page1=%q (the corrupted seq-2 update is discarded)\n", im.Page(1)[:5])
	return nil
}

func newManager(sys storage.System) *recovery.Manager {
	return recovery.NewManager("rank0",
		storage.NewMemStore(sys.LocalDisk),
		storage.NewMemStore(sys.RAID5),
		storage.NewMemStore(sys.Remote))
}

func program() *workload.Synthetic {
	return workload.NewSynthetic("demo-app", 200, 512, 21, []workload.Phase{
		{Duration: 10, Rate: 50, RegionLo: 0, RegionHi: 512, Pattern: workload.Random, Mode: workload.Scramble, Fraction: 0.4},
		{Duration: 8, Rate: 60, RegionLo: 0, RegionHi: 512, Pattern: workload.Random, Mode: workload.Settle, Fraction: 1.0},
	})
}

func simulatorDemo() {
	sys := storage.BenchSystem(1, int64(workload.ReferenceFootprintPages)*4096)
	reference := faultsim.FinalImage(program())
	cfg := faultsim.Config{System: sys, Interval: 25, MaxFailures: 6}

	fmt.Println("  exponential failures (λ = 8e-3/1.6e-2/6e-3 per level):")
	inj := failure.NewInjector(numeric.NewRNG(3), [3]float64{8e-3, 1.6e-2, 6e-3})
	res, err := faultsim.Run(program(), cfg, inj, newManager(sys))
	if err != nil {
		log.Fatal(err)
	}
	report(res, res.Image.Equal(reference))

	fmt.Println("\n  bursty Weibull failures (shape 0.7, mean-matched):")
	shapes, scales := failure.WeibullMatchingRates([3]float64{8e-3, 1.6e-2, 6e-3}, 0.7)
	winj, err := failure.NewWeibullInjector(numeric.NewRNG(3), shapes, scales)
	if err != nil {
		log.Fatal(err)
	}
	res, err = faultsim.Run(program(), cfg, winj, newManager(sys))
	if err != nil {
		log.Fatal(err)
	}
	report(res, res.Image.Equal(reference))
}

func report(res *faultsim.Result, imageOK bool) {
	fmt.Printf("  base %.0f s → wall %.0f s  (%d checkpoints, %d failures: %d transient / %d partial / %d total-node)\n",
		res.BaseTime, res.WallTime, res.Checkpoints, res.Failures,
		res.PerLevel[0], res.PerLevel[1], res.PerLevel[2])
	for i, info := range res.Recoveries {
		fmt.Printf("  recovery %d: level %d, %d checkpoints, %.2f MiB read in %.1f s\n",
			i+1, info.SourceLevel, len(info.Restored), float64(info.Bytes)/(1<<20), info.ReadTime)
	}
	fmt.Printf("  re-executed %.0f s of lost work\n", res.ReworkTime)
	if !imageOK {
		log.Fatal("final memory image DIFFERS from the reference")
	}
	fmt.Println("  final memory image identical to the undisturbed reference ✓")
}
