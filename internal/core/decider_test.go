package core

import (
	"testing"

	"aic/internal/predictor"
)

// TestClampPredictionBounds checks the decider's one clamp for a
// single-process Runtime and for one rank of a coordinated job: wild
// predictions are capped by the raw dirty bytes, sane ones pass unchanged.
func TestClampPredictionBounds(t *testing.T) {
	sys := benchSys()
	for _, tc := range []struct {
		name        string
		procs, proc int
		dp          float64
	}{
		{"single process", 1, 0, 100},
		{"per rank", 4, 3, 37},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecider(sys, 4096, tc.procs)
			m := predictor.Metrics{DP: tc.dp, T: 10, JD: 0.5, DI: 0.5}
			rawCap := tc.dp*4096 + 4096 + 64
			maxDL := sys.CompressTime(int64(rawCap), int64(rawCap))
			maxC1 := sys.LocalDisk.TransferTime(int64(rawCap))
			c1, dl, ds := d.clamp(m, 1e9, 1e9, 1e12)
			if ds > rawCap {
				t.Fatalf("ds %v above raw cap %v", ds, rawCap)
			}
			if dl > maxDL {
				t.Fatalf("dl %v above compress cap", dl)
			}
			if c1 > maxC1 {
				t.Fatalf("c1 %v above write cap", c1)
			}
			// Sane predictions pass through unchanged.
			c1, dl, ds = d.clamp(m, 0.1, 0.2, 1000)
			if c1 != 0.1 || dl != 0.2 || ds != 1000 {
				t.Fatal("clamp must not disturb feasible predictions")
			}
			// Predict applies the clamp to the process's own predictors.
			d.Observe(tc.proc, m, 1e9, 1e9, 1e12)
			if c1, dl, ds = d.Predict(tc.proc, m); ds != rawCap || dl != maxDL || c1 != maxC1 {
				t.Fatalf("Predict = (%v, %v, %v), want the caps (%v, %v, %v)", c1, dl, ds, maxC1, maxDL, rawCap)
			}
		})
	}
}

// TestDeciderReadyNeedsEveryProcess checks that the decider leaves its
// bootstrap phase only once every process's predictors have fitted.
func TestDeciderReadyNeedsEveryProcess(t *testing.T) {
	d := NewDecider(benchSys(), 4096, 2)
	for i := 0; i < 4; i++ {
		m := predictor.Metrics{DP: float64(10 + 7*i), T: float64(1 + i), JD: 0.1 * float64(i), DI: 0.5}
		d.Observe(0, m, 0.1*float64(i+1), 0.2*float64(i+1), 1000*float64(i+1))
	}
	if d.Ready() {
		t.Fatal("ready with process 1 still bootstrapping")
	}
	for i := 0; i < 4; i++ {
		m := predictor.Metrics{DP: float64(10 + 7*i), T: float64(1 + i), JD: 0.1 * float64(i), DI: 0.5}
		d.Observe(1, m, 0.1*float64(i+1), 0.2*float64(i+1), 1000*float64(i+1))
	}
	if !d.Ready() {
		t.Fatal("not ready after every process's bootstrap samples")
	}
}

// TestLevelCostsZeroBandwidth checks the level-cost rule: c_k = from + dl
// + ds/B_k, with a zero bandwidth counted as zero transfer time.
func TestLevelCostsZeroBandwidth(t *testing.T) {
	sys := benchSys()
	sys.RAID5.BandwidthBps, sys.Remote.BandwidthBps = 100, 10
	if c2, c3 := LevelCosts(sys, 1, 2, 1000); c2 != 13 || c3 != 103 {
		t.Fatalf("LevelCosts = %v, %v; want 13, 103", c2, c3)
	}
	sys.RAID5.BandwidthBps = 0
	if c2, c3 := LevelCosts(sys, 1, 2, 1000); c2 != 3 || c3 != 103 {
		t.Fatalf("zero L2 bandwidth: LevelCosts = %v, %v; want 3, 103", c2, c3)
	}
}
