package exp

import (
	"math"
	"strings"
	"testing"
)

func TestSharingEmpiricalMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("node simulation")
	}
	sweep, err := SharingEmpirical(7, []int{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if sweep[7] <= sweep[1] {
		t.Fatalf("queueing must inflate NET²: SF1 %v vs SF7 %v", sweep[1], sweep[7])
	}
	if sweep[1] < 1 || sweep[1] > 1.3 {
		t.Fatalf("solo NET² %v implausible", sweep[1])
	}
}

func TestMPIScalingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("coordinated runs")
	}
	rows, err := MPIScaling(7, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].SICNET2 <= rows[0].SICNET2 {
		t.Fatalf("job-level failure rate must raise NET² with ranks: %v vs %v",
			rows[0].SICNET2, rows[1].SICNET2)
	}
	for _, r := range rows {
		if r.AICNET2 < 1 || r.AICNET2 > r.SICNET2*1.05 {
			t.Fatalf("ranks %d: coord-AIC %v vs coord-SIC %v", r.Ranks, r.AICNET2, r.SICNET2)
		}
	}
}

func TestWeibullSensitivityShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injected trials")
	}
	rows, err := WeibullSensitivity(7, []float64{0.7}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Shape != 0 || rows[1].Shape != 0.7 {
		t.Fatalf("rows: %+v", rows)
	}
	// Mean wall times, pinned to 12 significant digits.
	pinned := []float64{227.145834083, 229.036974858}
	for i, r := range rows {
		if r.MeanWall < 150 {
			t.Fatalf("wall %v below base time", r.MeanWall)
		}
		if r.Trials != 10 {
			t.Fatalf("trials %d", r.Trials)
		}
		if math.Abs(r.MeanWall-pinned[i]) > 1e-11*pinned[i] {
			t.Fatalf("shape %v: mean wall %.12g, pinned at %.12g", r.Shape, r.MeanWall, pinned[i])
		}
	}
}

func TestRenderExtensions(t *testing.T) {
	out := RenderExtensions(
		map[int]float64{1: 1.05, 3: 1.2},
		[]MPIRow{{Ranks: 4, SICNET2: 1.1, AICNET2: 1.09}},
		[]WeibullRow{{Shape: 0, MeanWall: 200}, {Shape: 0.7, MeanWall: 240}},
	)
	for _, want := range []string{"SF=1", "SF=3", "coord-SIC", "exp", "0.7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPredictorAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("AIC runs")
	}
	rows, err := PredictorAccuracy(42, "sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Intervals < 10 {
		t.Fatalf("sphinx3 should exit bootstrap: %d scored intervals", r.Intervals)
	}
	// c1 is almost perfectly predictable (linear in the dirty set); the
	// size/latency targets are noisier but must stay within a factor.
	if r.MAPEC1 > 0.10 {
		t.Fatalf("c1 MAPE %v too high", r.MAPEC1)
	}
	if r.MAPEDS > 1.5 || r.MAPEDL > 1.5 {
		t.Fatalf("ds/dl MAPE out of range: %v / %v", r.MAPEDS, r.MAPEDL)
	}
}

func TestLambdaSensitivityShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep")
	}
	rows, err := LambdaSensitivity(42, "milc", []float64{1e-4, 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	// NET² grows with λ for every policy, and Moody stays worst.
	for _, r := range rows {
		if r.Moody <= r.AIC || r.Moody <= r.SIC {
			t.Fatalf("λ=%g: Moody %v not worst (AIC %v, SIC %v)", r.Lambda, r.Moody, r.AIC, r.SIC)
		}
	}
	if rows[1].AIC <= rows[0].AIC || rows[1].Moody <= rows[0].Moody {
		t.Fatalf("NET² must grow with λ: %+v", rows)
	}
}

func TestRenderAccuracy(t *testing.T) {
	out := RenderAccuracy(
		[]PredictorAccuracyRow{{Benchmark: "milc", Intervals: 3, MAPEC1: 0.02}},
		[]LambdaRow{{Lambda: 1e-3, AIC: 1.5, SIC: 1.6, Moody: 2.0}},
	)
	if !strings.Contains(out, "milc") || !strings.Contains(out, "1e-03") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationBlockSize(t *testing.T) {
	rows, err := AblationBlockSize(42, []int{32, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio <= 0 || r.Ratio > 1.1 {
			t.Fatalf("block %d ratio %v", r.BlockSize, r.Ratio)
		}
		if r.EncodeMBs <= 0 {
			t.Fatalf("block %d throughput %v", r.BlockSize, r.EncodeMBs)
		}
	}
	// Finer blocks find at least as many matches (never worse ratio beyond
	// opcode noise).
	if rows[0].Ratio > rows[1].Ratio+0.1 {
		t.Fatalf("32B ratio %v far above 256B %v", rows[0].Ratio, rows[1].Ratio)
	}
	if !strings.Contains(RenderBlockSize(rows), "block") {
		t.Fatal("render")
	}
}
