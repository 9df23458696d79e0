package faultsim

import (
	"math"
	"testing"

	"aic/internal/failure"
	"aic/internal/numeric"
	"aic/internal/recovery"
	"aic/internal/storage"
	"aic/internal/workload"
)

func newManager() *recovery.Manager {
	return recovery.NewManager("p0",
		storage.NewMemStore(storage.Target{Name: "local", BandwidthBps: 100 * storage.MBps}),
		storage.NewMemStore(storage.Target{Name: "raid", BandwidthBps: 400 * storage.MBps}),
		storage.NewMemStore(storage.Target{Name: "remote", BandwidthBps: 2 * storage.MBps}),
	)
}

func shortProgram(seed uint64) *workload.Synthetic {
	return workload.NewSynthetic("shorty", 120, 256, seed, []workload.Phase{
		{Duration: 8, Rate: 40, RegionLo: 0, RegionHi: 256, Pattern: workload.Random, Mode: workload.Scramble, Fraction: 0.4},
		{Duration: 6, Rate: 50, RegionLo: 0, RegionHi: 256, Pattern: workload.Random, Mode: workload.Settle, Fraction: 1.0},
		{Duration: 4, Rate: 10, RegionLo: 0, RegionHi: 32, Pattern: workload.Hotspot, Mode: workload.Tick},
	})
}

func sys() storage.System {
	return storage.BenchSystem(1, int64(workload.ReferenceFootprintPages)*4096)
}

// near compares a value with its pin to 12 significant digits (loose enough
// for fused multiply-add).
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-11*want }

func TestNoFailuresMatchesReference(t *testing.T) {
	res, err := Run(shortProgram(7), Config{System: sys(), Interval: 15},
		failure.NewInjector(numeric.NewRNG(1), [3]float64{}), newManager())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if !res.Image.Equal(FinalImage(shortProgram(7))) {
		t.Fatal("failure-free run differs from reference")
	}
	if res.WallTime <= res.BaseTime {
		t.Fatal("wall time must include checkpoint halts")
	}
	if want := 125.324356267; !near(res.WallTime, want) {
		t.Fatalf("wall time %.12g, pinned at %.12g", res.WallTime, want)
	}
	if res.Checkpoints < 120/15 {
		t.Fatalf("only %d checkpoints", res.Checkpoints)
	}
}

// The headline guarantee: any mix of failure classes leaves the final
// memory image byte-identical to an undisturbed run.
func TestFaultInjectedRunMatchesReference(t *testing.T) {
	reference := FinalImage(shortProgram(9))
	// Wall and rework times, pinned to 12 significant digits.
	pinned := map[uint64][2]float64{
		1: {173.949775896, 43.6202150445},
		2: {178.251692555, 49.9485359067},
		3: {168.487541819, 38.6792507196},
		4: {165.535708671, 35.7821850495},
		5: {171.764999784, 40.675638747},
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		mgr := newManager()
		inj := failure.NewInjector(numeric.NewRNG(seed), [3]float64{8e-3, 1.6e-2, 6e-3})
		res, err := Run(shortProgram(9), Config{System: sys(), Interval: 15, MaxFailures: 6}, inj, mgr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failures == 0 {
			t.Fatalf("seed %d: no failures injected — test is vacuous", seed)
		}
		if !res.Image.Equal(reference) {
			t.Fatalf("seed %d: image after %d failures differs from reference", seed, res.Failures)
		}
		if res.ReworkTime <= 0 {
			t.Fatalf("seed %d: failures without rework", seed)
		}
		if res.WallTime < res.BaseTime+res.ReworkTime {
			t.Fatalf("seed %d: wall %v < base+rework %v", seed, res.WallTime, res.BaseTime+res.ReworkTime)
		}
		if want := pinned[seed]; !near(res.WallTime, want[0]) || !near(res.ReworkTime, want[1]) {
			t.Fatalf("seed %d: wall %.12g rework %.12g, pinned at %.12g %.12g", seed, res.WallTime, res.ReworkTime, want[0], want[1])
		}
	}
}

func TestTotalNodeFailureRecoversRemotely(t *testing.T) {
	reference := FinalImage(shortProgram(11))
	mgr := newManager()
	// Only total-node failures.
	inj := failure.NewInjector(numeric.NewRNG(3), [3]float64{0, 0, 5e-3})
	res, err := Run(shortProgram(11), Config{System: sys(), Interval: 20, MaxFailures: 3}, inj, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerLevel[2] == 0 {
		t.Fatal("no total-node failures landed")
	}
	for _, info := range res.Recoveries {
		if info.SourceLevel != 3 {
			t.Fatalf("total-node failure recovered from level %d", info.SourceLevel)
		}
	}
	if !res.Image.Equal(reference) {
		t.Fatal("image differs after remote recoveries")
	}
	if want := 138.041342778; !near(res.WallTime, want) {
		t.Fatalf("wall time %.12g, pinned at %.12g", res.WallTime, want)
	}
}

func TestWeibullFailuresAlsoRecover(t *testing.T) {
	reference := FinalImage(shortProgram(13))
	shapes, scales := failure.WeibullMatchingRates([3]float64{2e-3, 4e-3, 1e-3}, 0.7)
	inj, err := failure.NewWeibullInjector(numeric.NewRNG(5), shapes, scales)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(shortProgram(13), Config{System: sys(), Interval: 15, MaxFailures: 5}, inj, newManager())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no Weibull failures landed")
	}
	if !res.Image.Equal(reference) {
		t.Fatal("image differs under Weibull failures")
	}
}

func TestMoreFailuresMoreWall(t *testing.T) {
	quiet, err := Run(shortProgram(15), Config{System: sys(), Interval: 15},
		failure.NewInjector(numeric.NewRNG(1), [3]float64{}), newManager())
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Run(shortProgram(15), Config{System: sys(), Interval: 15, MaxFailures: 8},
		failure.NewInjector(numeric.NewRNG(1), [3]float64{5e-3, 5e-3, 5e-3}), newManager())
	if err != nil {
		t.Fatal(err)
	}
	if noisy.WallTime <= quiet.WallTime {
		t.Fatalf("failures must cost wall time: %v vs %v", quiet.WallTime, noisy.WallTime)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(shortProgram(1), Config{System: sys()},
		failure.NewInjector(numeric.NewRNG(1), [3]float64{}), newManager()); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestCPUStateBlobRoundTrip(t *testing.T) {
	prog := shortProgram(17)
	blob := PackCPUState(prog, 42.5)
	w, state, err := ParseCPUState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if w != 42.5 {
		t.Fatalf("work = %v", w)
	}
	if err := prog.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseCPUState([]byte{1, 2}); err == nil {
		t.Fatal("short blob accepted")
	}
}

func TestMaxFailuresHonored(t *testing.T) {
	inj := failure.NewInjector(numeric.NewRNG(9), [3]float64{5e-2, 5e-2, 5e-2})
	res, err := Run(shortProgram(21), Config{System: sys(), Interval: 15, MaxFailures: 2}, inj, newManager())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 {
		t.Fatalf("failures = %d, want exactly the cap", res.Failures)
	}
	if !res.Image.Equal(FinalImage(shortProgram(21))) {
		t.Fatal("image mismatch")
	}
}

func TestRecoveryInfoBytesPlausible(t *testing.T) {
	inj := failure.NewInjector(numeric.NewRNG(11), [3]float64{0, 1e-2, 0})
	res, err := Run(shortProgram(23), Config{System: sys(), Interval: 20, MaxFailures: 2}, inj, newManager())
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range res.Recoveries {
		// A chain is at least the ~1-MiB full image of the 256-page program.
		if info.Bytes < 256*4096 {
			t.Fatalf("recovery read only %d bytes", info.Bytes)
		}
	}
}
