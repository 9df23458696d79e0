package cluster

import (
	"math"
	"testing"

	"aic/internal/failure"
	"aic/internal/storage"
	"aic/internal/workload"
)

func testConfig(sf int) Config {
	return Config{
		System:        storage.BenchSystem(1, int64(workload.ReferenceFootprintPages)*4096),
		SharingFactor: sf,
		Interval:      20,
		Lambda:        failure.SplitRate(1e-3, failure.CoastalProportions()),
		Seed:          7,
		NewProgram: func(i int, seed uint64) workload.Program {
			return workload.Sphinx3(seed)
		},
	}
}

func TestRunValidation(t *testing.T) {
	cfg := testConfig(0)
	if _, err := Run(cfg); err == nil {
		t.Fatal("SF 0 accepted")
	}
	cfg = testConfig(1)
	cfg.Interval = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero interval accepted")
	}
	cfg = testConfig(1)
	cfg.NewProgram = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing factory accepted")
	}
}

func TestSingleProcessBaseline(t *testing.T) {
	res, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Processes) != 1 {
		t.Fatalf("%d processes", len(res.Processes))
	}
	p := res.Processes[0]
	if len(p.Intervals) < 10 {
		t.Fatalf("only %d intervals", len(p.Intervals))
	}
	if p.NET2 < 1 || p.NET2 > 1.5 {
		t.Fatalf("NET² = %v", p.NET2)
	}
	// Alone on the core: essentially no queueing.
	if p.MeanQueueDelay > 1 {
		t.Fatalf("solo queue delay %v", p.MeanQueueDelay)
	}
	for i, iv := range p.Intervals {
		if iv.C1 <= 0 || iv.C3 < iv.C2 || iv.C2 < iv.C1 {
			t.Fatalf("interval %d malformed: %+v", i, iv)
		}
	}
}

// The empirical Fig. 7 shape: queueing on the shared core inflates NET²
// monotonically (within tolerance) as the sharing factor grows.
func TestSharingInflatesNET2(t *testing.T) {
	sweep, err := SharingSweep(testConfig(1), []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if sweep[4] < sweep[1]-1e-6 {
		t.Fatalf("SF 4 (%v) below SF 1 (%v)", sweep[4], sweep[1])
	}
	if sweep[8] <= sweep[1] {
		t.Fatalf("SF 8 (%v) not above SF 1 (%v)", sweep[8], sweep[1])
	}
	// Pinned to 12 significant digits (loose enough for fused multiply-add).
	for sf, want := range map[int]float64{1: 1.04861039039, 4: 1.3174971371, 8: 1.81262495338} {
		if math.Abs(sweep[sf]-want) > 1e-11*want {
			t.Errorf("SF %d NET² = %.12g, pinned at %.12g", sf, sweep[sf], want)
		}
	}
}

func TestQueueDelayGrowsWithSharing(t *testing.T) {
	solo, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	var sharedDelay float64
	for _, p := range shared.Processes {
		sharedDelay += p.MeanQueueDelay
	}
	sharedDelay /= float64(len(shared.Processes))
	if sharedDelay <= solo.Processes[0].MeanQueueDelay {
		t.Fatalf("sharing must add queueing: %v vs %v", solo.Processes[0].MeanQueueDelay, sharedDelay)
	}
}

func TestHeterogeneousProcesses(t *testing.T) {
	cfg := testConfig(3)
	cfg.NewProgram = func(i int, seed uint64) workload.Program {
		switch i % 3 {
		case 0:
			return workload.Sphinx3(seed)
		case 1:
			return workload.Bzip2(seed)
		default:
			return workload.Libquantum(seed)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Processes) != 3 {
		t.Fatalf("%d processes", len(res.Processes))
	}
	names := map[string]bool{}
	for _, p := range res.Processes {
		names[p.Name] = true
		if p.NET2 < 1 {
			t.Fatalf("%s NET² %v", p.Name, p.NET2)
		}
	}
	if len(names) != 3 {
		t.Fatalf("names: %v", names)
	}
}

// A zero level-2 bandwidth is zero transfer time, as the simulators' one
// level-cost rule counts it: the run scores a finite NET², and each level-2
// latency is c1 plus the queue wait plus dl.
func TestZeroL2BandwidthCountsAsZeroTime(t *testing.T) {
	for _, sf := range []int{1, 3} {
		cfg := testConfig(sf)
		cfg.System.RAID5.BandwidthBps = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("SF %d: %v", sf, err)
		}
		if math.IsInf(res.MeanNET2, 0) || math.IsNaN(res.MeanNET2) || res.MeanNET2 < 1 {
			t.Fatalf("SF %d: NET² = %v", sf, res.MeanNET2)
		}
		for _, p := range res.Processes {
			for i, iv := range p.Intervals {
				// c3 = c1 + wait + dl + remote transfer of ds.
				wait := iv.C3 - iv.C1 - iv.DL - cfg.System.Remote.TransferTime(int64(iv.DS))
				if want := iv.C1 + wait + iv.DL; math.Abs(iv.C2-want) > 1e-9*want {
					t.Fatalf("SF %d %s interval %d: c2 = %v, want c1 + wait + dl = %v", sf, p.Name, i, iv.C2, want)
				}
			}
		}
	}
}
