package model

import (
	"math"
	"testing"

	"aic/internal/numeric"
)

func TestMoodyScheduleConstruction(t *testing.T) {
	s := NewMoodySchedule(0, 0)
	if len(s) != 1 || s[0] != 3 {
		t.Fatalf("(0,0) schedule = %v", s)
	}
	s = NewMoodySchedule(0, 3)
	want := MoodySchedule{2, 2, 2, 3}
	if len(s) != len(want) {
		t.Fatalf("schedule = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", s, want)
		}
	}
	s = NewMoodySchedule(2, 2)
	want = MoodySchedule{1, 1, 2, 1, 1, 2, 1, 1, 3}
	if len(s) != len(want) {
		t.Fatalf("schedule = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", s, want)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMoodyScheduleValidate(t *testing.T) {
	if (MoodySchedule{}).Validate() == nil {
		t.Fatal("empty schedule accepted")
	}
	if (MoodySchedule{5}).Validate() == nil {
		t.Fatal("bad level accepted")
	}
	if (MoodySchedule{3, 2}).Validate() == nil {
		t.Fatal("schedule not ending in max level accepted")
	}
}

func TestMoodyRestorePoint(t *testing.T) {
	s := MoodySchedule{2, 1, 2, 3}
	// At position 2 (segments 0,1 done), an f2 (class 1) needs level ≥ 2:
	// segment 0's L2 checkpoint.
	if m := s.restorePoint(2, 1); m != 0 {
		t.Fatalf("restorePoint(2, f2) = %d", m)
	}
	// An f1 (class 0) can use the most recent checkpoint: segment 1's L1.
	if m := s.restorePoint(2, 0); m != 1 {
		t.Fatalf("restorePoint(2, f1) = %d", m)
	}
	// An f3 (class 2) needs level 3: only the previous period's close.
	if m := s.restorePoint(2, 2); m != -1 {
		t.Fatalf("restorePoint(2, f3) = %d", m)
	}
	if s.levelAt(-1) != 3 {
		t.Fatal("levelAt(-1) must be the closing level")
	}
}

func TestMoodyNoFailureTime(t *testing.T) {
	p := Coastal()
	p.Lambda = [3]float64{0, 0, 0}
	sched := NewMoodySchedule(0, 3) // L2 L2 L2 L3
	iv, err := EvalMoody(500, sched, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*500 + 3*p.C[1] + p.C[2]
	if math.Abs(iv.ExpectedTime-want) > 1e-9 {
		t.Fatalf("T = %v, want %v", iv.ExpectedTime, want)
	}
	if iv.Work != 2000 {
		t.Fatalf("work = %v", iv.Work)
	}
}

func TestMoodyAnalyticVsMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	p := Coastal()
	p.Lambda = [3]float64{1e-4, 7.5e-4, 2e-5}
	sched := NewMoodySchedule(1, 2)
	ch, start, _, err := MoodyPeriod(900, sched, p)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := ch.ExpectedTime(start)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ch.Simulate(numeric.NewRNG(3), start, 120000, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-mc)/analytic > 0.02 {
		t.Fatalf("analytic %v vs MC %v", analytic, mc)
	}
}

func TestMoodySequentialCostExceedsConcurrent(t *testing.T) {
	// With identical parameters and the same work span, the sequential
	// Moody interval (single L3 period) must take at least as long as the
	// concurrent L2L3 interval, because Moody blocks for the full c3.
	p := Coastal()
	const w = 1800
	moody, err := EvalMoody(w, NewMoodySchedule(0, 0), p)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := EvalL2L3(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if moody.NET2() <= conc.NET2() {
		t.Fatalf("Moody NET² %v should exceed concurrent %v", moody.NET2(), conc.NET2())
	}
}

func TestOptimizeMoodyFindsFiniteOptimum(t *testing.T) {
	res, err := OptimizeMoody(Coastal(), 10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if res.NET2 < 1 || math.IsInf(res.NET2, 1) {
		t.Fatalf("NET² = %v", res.NET2)
	}
	if res.W < 10 || res.W > 200000 {
		t.Fatalf("w* = %v out of bounds", res.W)
	}
}

func TestOptimizeConcurrentBeatsMoodyOnCoastal(t *testing.T) {
	// The paper's headline analytic claim (Figs. 5/6): concurrent L2L3
	// yields lower NET² than Moody under the Coastal profile.
	p := Coastal()
	moody, err := OptimizeMoody(p, 10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := OptimizeConcurrent(KindL2L3, p, 10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if conc.NET2 >= moody.NET2 {
		t.Fatalf("L2L3 %v must beat Moody %v", conc.NET2, moody.NET2)
	}
}

func TestConcurrentKindString(t *testing.T) {
	if KindL1L3.String() != "L1L3" || KindL2L3.String() != "L2L3" || KindL1L2L3.String() != "L1L2L3" {
		t.Fatal("kind names")
	}
	if ConcurrentKind(9).String() == "" {
		t.Fatal("unknown kind must still format")
	}
}

func TestL2L3CloseToL1L2L3(t *testing.T) {
	// Fig. 5/6 observation: L2L3 and L1L2L3 are nearly identical, which is
	// why the paper drops L1.
	p := Coastal().ScaleMPI(4)
	a, err := OptimizeConcurrent(KindL2L3, p, 10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeConcurrent(KindL1L2L3, p, 10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.NET2-b.NET2)/b.NET2 > 0.05 {
		t.Fatalf("L2L3 %v vs L1L2L3 %v differ too much", a.NET2, b.NET2)
	}
}

func TestOptimalWorkSpanDynamic(t *testing.T) {
	cur := Coastal()
	cur.Lambda = [3]float64{8.3e-5, 7.5e-4, 1.67e-5}
	ws := OptimalWorkSpanDynamic(func(float64) Params { return cur }, cur, 1, 7200)
	w, net2, iters := ws.W, ws.NET2, ws.NRIters
	if w < 1 || w > 7200 {
		t.Fatalf("w*_L = %v out of bounds", w)
	}
	if net2 < 1 || math.IsInf(net2, 1) {
		t.Fatalf("NET² = %v", net2)
	}
	if iters > 200 {
		t.Fatalf("NR iterations %d exceed paper bound", iters)
	}
	if ws.NET2At(w) != net2 {
		t.Fatalf("NET2At(w*) = %v, search found %v", ws.NET2At(w), net2)
	}
	// Grid cross-check: the EVT+NR optimum should be no worse than a coarse
	// scan by more than a small tolerance.
	bestGrid := math.Inf(1)
	for gw := 1.0; gw <= 7200; gw *= 1.3 {
		iv, err := EvalL2L3Dynamic(gw, cur, cur)
		if err != nil {
			continue
		}
		if n := iv.NET2(); n < bestGrid {
			bestGrid = n
		}
	}
	if net2 > bestGrid*1.02 {
		t.Fatalf("EVT result %v much worse than grid %v", net2, bestGrid)
	}
}
