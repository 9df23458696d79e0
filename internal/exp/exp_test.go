package exp

import (
	"math"
	"strings"
	"testing"

	"aic/internal/stats"
)

func TestBenchmarkNamesAndLambda(t *testing.T) {
	if len(BenchmarkNames()) != 6 {
		t.Fatal("six benchmarks expected")
	}
	l := ExperimentLambda()
	if math.Abs(l[0]+l[1]+l[2]-1e-3) > 1e-15 {
		t.Fatalf("λ sums to %v", l[0]+l[1]+l[2])
	}
	if l[1] < l[0] || l[1] < l[2] {
		t.Fatal("level-2 failures must dominate (Coastal proportions)")
	}
}

// fig2Memo holds Fig2(42, name)'s series per benchmark, computed once per
// test binary. Each benchmark's series is independent of the others, so
// the tests sweeping overlapping benchmark sets share the work.
var fig2Memo = map[string]Fig2Series{}

// fig2At42 is Fig2(42, names...) assembled from the memo.
func fig2At42(t *testing.T, names ...string) []Fig2Series {
	t.Helper()
	out := make([]Fig2Series, len(names))
	for i, name := range names {
		s, ok := fig2Memo[name]
		if !ok {
			one, err := Fig2(42, name)
			if err != nil {
				t.Fatal(err)
			}
			s = one[0]
			fig2Memo[name] = s
		}
		out[i] = s
	}
	return out
}

func TestFig2SeriesShape(t *testing.T) {
	series := fig2At42(t, "sjeng", "lbm", "bzip2") // Fig2's default set
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 60 {
			t.Fatalf("%s: %d points", s.Benchmark, len(s.Points))
		}
		var norm []float64
		for _, p := range s.Points {
			if p.Size < 0 || p.Latency < 0 {
				t.Fatalf("%s: negative measurement", s.Benchmark)
			}
			norm = append(norm, p.NormSize)
		}
		// Normalization: mean of the normalized series is 1.
		if m := stats.Mean(norm); math.Abs(m-1) > 1e-9 {
			t.Fatalf("%s: normalized mean %v", s.Benchmark, m)
		}
	}
	// The motivating claim: these benchmarks show wide delta swings.
	for _, s := range series {
		if s.Swing() < 3 {
			t.Fatalf("%s: swing %.1fx too flat for Fig. 2", s.Benchmark, s.Swing())
		}
	}
}

func TestFig2UnknownBenchmark(t *testing.T) {
	if _, err := Fig2(1, "gcc"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFig5Shapes(t *testing.T) {
	rows, err := Fig5([]float64{1, 4, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		// L2L3 and L1L2L3 are nearly identical and the best; all
		// concurrent configurations except L1L3-at-scale beat Moody.
		if math.Abs(r.L2L3-r.L1L2L3)/r.L1L2L3 > 0.05 {
			t.Fatalf("size %gx: L2L3 %v vs L1L2L3 %v", r.Size, r.L2L3, r.L1L2L3)
		}
		if r.L2L3 >= r.Moody {
			t.Fatalf("size %gx: L2L3 %v not below Moody %v", r.Size, r.L2L3, r.Moody)
		}
		if r.L2L3 > r.L1L3+1e-9 {
			t.Fatalf("size %gx: L2L3 %v above L1L3 %v", r.Size, r.L2L3, r.L1L3)
		}
		// MPI scaling: NET² grows with system size.
		if i > 0 && r.L2L3 <= rows[i-1].L2L3 {
			t.Fatalf("NET² must grow with size: %v then %v", rows[i-1].L2L3, r.L2L3)
		}
	}
	// L1L3 deteriorates disproportionately at large sizes (f2 recoveries
	// must use expensive L3).
	last := rows[len(rows)-1]
	if last.L1L3 < 2*last.L2L3 {
		t.Fatalf("L1L3 %v should blow up vs L2L3 %v at 20x", last.L1L3, last.L2L3)
	}
}

func TestFig6Shapes(t *testing.T) {
	rows, err := Fig6([]float64{1, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	// RMS scaling keeps failure rates flat, so NET² stays moderate and
	// the Moody gap widens with size.
	gapFirst := rows[0].Moody - rows[0].L2L3
	gapLast := rows[len(rows)-1].Moody - rows[len(rows)-1].L2L3
	if gapLast <= gapFirst {
		t.Fatalf("Moody gap must widen: %v then %v", gapFirst, gapLast)
	}
	for _, r := range rows {
		if r.L2L3 >= r.Moody {
			t.Fatalf("size %gx: L2L3 %v not below Moody %v", r.Size, r.L2L3, r.Moody)
		}
		if r.L2L3 > 1.2 {
			t.Fatalf("RMS NET² at %gx suspiciously high: %v", r.Size, r.L2L3)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7([]float64{1, 10}, []int{1, 3, 7, 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// NET² grows with the sharing factor.
		prev := 0.0
		for _, sf := range []int{1, 3, 7, 15} {
			if r.BySF[sf] < prev {
				t.Fatalf("size %gx: NET² not monotone in SF", r.Size)
			}
			prev = r.BySF[sf]
		}
		// Unshared concurrent checkpointing beats Moody.
		if r.BySF[1] >= r.Moody {
			t.Fatalf("size %gx: SF=1 %v not below Moody %v", r.Size, r.BySF[1], r.Moody)
		}
	}
	// At 1x, even heavily shared cores remain profitable (the paper: 3–15
	// processes can share).
	if rows[0].BySF[3] >= rows[0].Moody {
		t.Fatalf("SF=3 at 1x should beat Moody: %v vs %v", rows[0].BySF[3], rows[0].Moody)
	}
}

func TestTable1RowsDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("log generation")
	}
	rows, err := Table1Rows(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestTable3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	rows, err := Table3(42)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.AICTime <= r.BaseTime {
			t.Fatalf("%s: AIC time %v not above base %v", r.Benchmark, r.AICTime, r.BaseTime)
		}
		if r.AICOverheadPct < 0 || r.AICOverheadPct > 8 {
			t.Fatalf("%s: overhead %v%% out of envelope", r.Benchmark, r.AICOverheadPct)
		}
		if r.RatioPA <= 0 || r.RatioPA > 1.05 || r.RatioXdelta3 <= 0 || r.RatioXdelta3 > 1.1 {
			t.Fatalf("%s: ratios %v/%v", r.Benchmark, r.RatioPA, r.RatioXdelta3)
		}
	}
	// Orderings the paper's Table 3 exhibits: sphinx3 compresses best,
	// milc/lbm worst; milc/lbm have the largest delta latencies.
	if !(byName["sphinx3"].RatioPA < byName["bzip2"].RatioPA) ||
		!(byName["bzip2"].RatioPA < byName["lbm"].RatioPA) {
		t.Fatalf("ratio ordering violated: %+v", rows)
	}
	if byName["sphinx3"].LatencyPA > byName["milc"].LatencyPA {
		t.Fatal("sphinx3 delta latency must be far below milc's")
	}
}

func TestFig11MilcOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("three policy runs")
	}
	// Just the strongest benchmark, to keep the test affordable; the full
	// figure runs in the benchmark harness.
	sys := BenchSystem(1)
	lambda := ExperimentLambda()
	aic, _, err := PolicyNET2("milc", 0, sys, lambda, 42) // PolicyAIC
	if err != nil {
		t.Fatal(err)
	}
	sic, _, err := PolicyNET2("milc", 1, sys, lambda, 42) // PolicySIC
	if err != nil {
		t.Fatal(err)
	}
	moody, _, err := PolicyNET2("milc", 2, sys, lambda, 42) // PolicyMoody
	if err != nil {
		t.Fatal(err)
	}
	if !(aic <= sic*1.01 && sic < moody && aic < moody) {
		t.Fatalf("ordering violated: AIC %v, SIC %v, Moody %v", aic, sic, moody)
	}
}

func TestFig12GapWidensWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	rows, err := Fig12(42, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	gap := func(r Fig12Row) float64 { return (r.SIC - r.AIC) / r.SIC }
	if gap(rows[1]) <= gap(rows[0]) {
		t.Fatalf("AIC-vs-SIC gap must widen with scale: %v then %v", gap(rows[0]), gap(rows[1]))
	}
	if rows[1].AIC >= rows[1].SIC {
		t.Fatal("AIC must beat SIC on milc at 4x")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	f2 := []Fig2Series{{Benchmark: "x", Points: []Fig2Point{{Time: 1, NormLatency: 1, NormSize: 1}}}}
	if !strings.Contains(RenderFig2(f2), "Fig. 2") {
		t.Fatal("RenderFig2")
	}
	sc := []ScalingRow{{Size: 1, Moody: 2, L1L3: 1.5, L2L3: 1.1, L1L2L3: 1.1}}
	if !strings.Contains(RenderScaling("Fig. 5", sc), "L2L3") {
		t.Fatal("RenderScaling")
	}
	f7 := []SharingRow{{Size: 1, Moody: 2, BySF: map[int]float64{1: 1.1, 3: 1.2}}}
	out := RenderFig7(f7)
	if !strings.Contains(out, "SF=1") || !strings.Contains(out, "SF=3") {
		t.Fatal("RenderFig7")
	}
	t3 := []Table3Row{{Benchmark: "milc", BaseTime: 527}}
	if !strings.Contains(RenderTable3(t3), "milc") {
		t.Fatal("RenderTable3")
	}
	f11 := []Fig11Row{{Benchmark: "milc", AIC: 1, SIC: 1.1, Moody: 1.5}}
	if !strings.Contains(RenderFig11(f11), "milc") {
		t.Fatal("RenderFig11")
	}
	f12 := []Fig12Row{{Scale: 1, AIC: 1, SIC: 1.1}}
	if !strings.Contains(RenderFig12(f12), "Fig. 12") {
		t.Fatal("RenderFig12")
	}
	ab := RenderAblations(
		[]CompressorAblationRow{{Benchmark: "milc"}},
		[]PredictorAblationRow{{Benchmark: "milc"}},
		[]SamplerAblationRow{{Benchmark: "milc"}},
	)
	if !strings.Contains(ab, "compressor") || !strings.Contains(ab, "predictor") || !strings.Contains(ab, "Tg") {
		t.Fatal("RenderAblations")
	}
}

func TestAblationCompressorOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple SIC runs")
	}
	rows, err := AblationCompressor(42, "sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The rsync-family codec must compress at least as well as XOR+RLE on
	// scattered binary edits.
	if r.RatioPA > r.RatioXOR+0.05 {
		t.Fatalf("PA ratio %v worse than XOR %v", r.RatioPA, r.RatioXOR)
	}
	if r.NET2PA <= 0 || r.NET2Whole <= 0 || r.NET2XOR <= 0 {
		t.Fatal("missing NET² values")
	}
}

// The paper: "five (out of those six) SPEC benchmarks examined have wide
// swings in their delta latency/size curves" — sphinx3 being the flat one
// in relative-benefit terms.
func TestFiveOfSixBenchmarksSwing(t *testing.T) {
	if testing.Short() {
		t.Skip("all six Fig. 2 curves")
	}
	wide := 0
	for _, s := range fig2At42(t, BenchmarkNames()...) {
		if s.Swing() > 5 {
			wide++
		}
	}
	if wide < 5 {
		t.Fatalf("only %d of six benchmarks show wide swings", wide)
	}
}
