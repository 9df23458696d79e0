package aic

import (
	"math"
	"strings"
	"testing"
)

func TestPolicyAndCompressorNames(t *testing.T) {
	if AIC.String() != "AIC" || SIC.String() != "SIC" || Moody.String() != "Moody" {
		t.Fatal("policy names")
	}
	if Xdelta3PA.String() != "xdelta3-pa" || Xdelta3.String() != "xdelta3" || XORRLE.String() != "xor-rle" {
		t.Fatal("compressor names")
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 6 || bs[0] != "bzip2" {
		t.Fatalf("benchmarks: %v", bs)
	}
}

func TestRunBenchmarkAIC(t *testing.T) {
	rep, err := RunBenchmark("sphinx3", Options{Policy: AIC})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "sphinx3" || rep.Policy != AIC {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.NET2 < 1 {
		t.Fatalf("NET² %v below 1", rep.NET2)
	}
	if rep.WallTime <= rep.BaseTime {
		t.Fatal("wall time must exceed base time")
	}
	if len(rep.Intervals) == 0 {
		t.Fatal("no intervals")
	}
	if rep.CompressionRatio <= 0 || rep.CompressionRatio > 1.05 {
		t.Fatalf("ratio %v", rep.CompressionRatio)
	}
	if rep.OverheadPct < 0 || rep.OverheadPct > 8 {
		t.Fatalf("overhead %v%%", rep.OverheadPct)
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("gcc", Options{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPolicyComparison(t *testing.T) {
	aic, err := RunBenchmark("milc", Options{Policy: AIC})
	if err != nil {
		t.Fatal(err)
	}
	moody, err := RunBenchmark("milc", Options{Policy: Moody})
	if err != nil {
		t.Fatal(err)
	}
	if aic.NET2 >= moody.NET2 {
		t.Fatalf("AIC %v must beat Moody %v", aic.NET2, moody.NET2)
	}
	if imp := aic.Improvement(moody); imp <= 0 || imp >= 1 {
		t.Fatalf("improvement %v", imp)
	}
	if aic.Improvement(nil) != 0 {
		t.Fatal("nil baseline improvement must be 0")
	}
}

func TestReportValidate(t *testing.T) {
	rep, err := RunBenchmark("sphinx3", Options{Policy: SIC})
	if err != nil {
		t.Fatal(err)
	}
	analytic, empirical, err := rep.Validate(8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-empirical)/analytic > 0.05 {
		t.Fatalf("analytic %v vs empirical %v diverge", analytic, empirical)
	}
	// Pinned to 12 significant digits (loose enough for fused multiply-add).
	for _, c := range []struct{ got, want float64 }{{analytic, 1.05116271097}, {empirical, 1.05077031169}} {
		if math.Abs(c.got-c.want) > 1e-11*c.want {
			t.Errorf("validate = %.12g, pinned at %.12g", c.got, c.want)
		}
	}
	empty := &Report{}
	if _, _, err := empty.Validate(10, 1); err == nil {
		t.Fatal("empty report validated")
	}
	// Moody's NET² comes from its period model, which the Monte Carlo
	// does not replay: there is nothing to cross-check.
	moody, err := RunBenchmark("sphinx3", Options{Policy: Moody})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := moody.Validate(10, 1); err == nil {
		t.Fatal("Moody report validated against the L2L3 Monte Carlo")
	}
}

func TestRunProgramCustomSpec(t *testing.T) {
	spec := ProgramSpec{
		Name:     "custom-stream",
		BaseTime: 120,
		Pages:    512,
		Phases: []Phase{
			{Duration: 10, Rate: 30, RegionLo: 0, RegionHi: 512, Pattern: Sweep, Mode: Scramble, Fraction: 0.5},
			{Duration: 5, Rate: 5, RegionLo: 0, RegionHi: 64, Pattern: Hotspot, Mode: Tick},
		},
	}
	rep, err := RunProgram(spec, Options{Policy: AIC, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "custom-stream" || len(rep.Intervals) == 0 {
		t.Fatalf("custom run: %+v", rep)
	}
	// SIC path profiles via a fresh spec instance.
	repSIC, err := RunProgram(spec, Options{Policy: SIC, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if repSIC.NET2 < 1 {
		t.Fatalf("SIC NET² %v", repSIC.NET2)
	}
}

func TestRunProgramInvalidSpec(t *testing.T) {
	if _, err := RunProgram(ProgramSpec{Name: "bad"}, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	bad := ProgramSpec{Name: "bad", BaseTime: 10, Pages: 4, Phases: []Phase{
		{Duration: 1, Rate: 1, RegionLo: 2, RegionHi: 99},
	}}
	if _, err := RunProgram(bad, Options{}); err == nil {
		t.Fatal("out-of-range region accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 1 || o.FailureRate != 1e-3 || o.Seed != 42 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestRunExperimentNamesAndErrors(t *testing.T) {
	if len(Experiments()) != 11 {
		t.Fatalf("experiments: %v", Experiments())
	}
	if _, err := RunExperiment("fig99", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentFig5(t *testing.T) {
	out, err := RunExperiment("fig5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Moody") || !strings.Contains(out, "L2L3") {
		t.Fatalf("fig5 output:\n%s", out)
	}
}

func TestRunExperimentFig2(t *testing.T) {
	out, err := RunExperiment("fig2", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sjeng") || !strings.Contains(out, "swing") {
		t.Fatalf("fig2 output:\n%s", out)
	}
}

func TestDeterministicReports(t *testing.T) {
	a, err := RunBenchmark("bzip2", Options{Policy: AIC, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark("bzip2", Options{Policy: AIC, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.NET2 != b.NET2 || a.WallTime != b.WallTime || len(a.Intervals) != len(b.Intervals) {
		t.Fatal("same seed must reproduce identical reports")
	}
}

func TestScaleAffectsNET2(t *testing.T) {
	small, err := RunBenchmark("milc", Options{Policy: SIC, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunBenchmark("milc", Options{Policy: SIC, Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if big.NET2 <= small.NET2 {
		t.Fatalf("NET² must grow with scale: %v vs %v", small.NET2, big.NET2)
	}
}

func TestFullCheckpointEveryOption(t *testing.T) {
	rep, err := RunBenchmark("sphinx3", Options{Policy: SIC, FixedInterval: 20, FullCheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Periodic fulls are dramatically larger than deltas: the max interval
	// delta size must be near the footprint while the median stays small.
	var max, min float64 = 0, math.Inf(1)
	for _, iv := range rep.Intervals {
		if iv.DeltaSize > max {
			max = iv.DeltaSize
		}
		if iv.DeltaSize < min {
			min = iv.DeltaSize
		}
	}
	if max < 4*min {
		t.Fatalf("no periodic fulls visible: min %v max %v", min, max)
	}
}
