package workload

import (
	"testing"

	"aic/internal/ckpt"
	"aic/internal/memsim"
)

// all returns the six Table 3 benchmarks, seeded deterministically from
// seed.
func all(seed uint64) []Program {
	return []Program{
		Bzip2(seed + 1), Sjeng(seed + 2), Libquantum(seed + 3),
		Milc(seed + 4), Lbm(seed + 5), Sphinx3(seed + 6),
	}
}

func TestAllBenchmarksConstruct(t *testing.T) {
	progs := all(42)
	if len(progs) != 6 {
		t.Fatalf("got %d benchmarks", len(progs))
	}
	names := map[string]bool{}
	for _, p := range progs {
		names[p.Name()] = true
		if p.BaseTime() <= 0 || p.FootprintPages() <= 0 {
			t.Fatalf("%s: bad dimensions", p.Name())
		}
	}
	for _, want := range []string{"bzip2", "sjeng", "libquantum", "milc", "lbm", "sphinx3"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("milc", 1)
	if err != nil || p.Name() != "milc" {
		t.Fatalf("ByName: %v %v", p, err)
	}
	if _, err := ByName("gcc", 1); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBaseTimesMatchPaper(t *testing.T) {
	want := map[string]float64{
		"bzip2": 152, "sjeng": 661, "libquantum": 846,
		"milc": 527, "lbm": 462, "sphinx3": 749,
	}
	for _, p := range all(1) {
		if p.BaseTime() != want[p.Name()] {
			t.Fatalf("%s base time %v, want %v", p.Name(), p.BaseTime(), want[p.Name()])
		}
	}
}

func TestInitMapsFootprint(t *testing.T) {
	p := Sphinx3(1)
	as := memsim.New(0)
	p.Init(as)
	if as.NumPages() != p.FootprintPages() {
		t.Fatalf("mapped %d pages, want %d", as.NumPages(), p.FootprintPages())
	}
	if as.DirtyCount() != p.FootprintPages() {
		t.Fatal("init must dirty the whole footprint (first checkpoint is full)")
	}
}

func TestStepProducesDirtyPages(t *testing.T) {
	for _, p := range all(7) {
		as := memsim.New(0)
		p.Init(as)
		as.ResetDirty()
		for now := 0.0; now < 10; now++ {
			p.Step(as, now, 1)
		}
		if as.DirtyCount() == 0 {
			t.Fatalf("%s produced no dirty pages in 10 s", p.Name())
		}
		if as.DirtyCount() > p.FootprintPages() {
			t.Fatalf("%s dirtied more pages than its footprint", p.Name())
		}
	}
}

func TestStepDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) *memsim.AddressSpace {
		p := Sjeng(seed)
		as := memsim.New(0)
		p.Init(as)
		for now := 0.0; now < 30; now++ {
			p.Step(as, now, 1)
		}
		return as
	}
	if !run(5).Equal(run(5)) {
		t.Fatal("same seed produced different memory images")
	}
	if run(5).Equal(run(6)) {
		t.Fatal("different seeds produced identical images")
	}
}

func TestStepZeroDtIsNoop(t *testing.T) {
	p := Bzip2(1)
	as := memsim.New(0)
	p.Init(as)
	as.ResetDirty()
	p.Step(as, 0, 0)
	if as.DirtyCount() != 0 {
		t.Fatal("zero-dt step wrote pages")
	}
}

func TestRateCarryAccumulates(t *testing.T) {
	// A phase at 0.5 pages/s stepped at dt=1 must write ~5 pages in 10 s,
	// not zero.
	p := NewSynthetic("slow", 100, 64, 1, []Phase{
		{Duration: 100, Rate: 0.5, RegionLo: 0, RegionHi: 64, Pattern: Random, Mode: Tick},
	})
	as := memsim.New(0)
	p.Init(as)
	as.ResetDirty()
	touches := 0
	as.SetFirstWriteHook(func(uint64, float64) { touches++ })
	for now := 0.0; now < 10; now++ {
		p.Step(as, now, 1)
	}
	if touches == 0 {
		t.Fatal("sub-1-per-step rate produced no touches")
	}
}

func TestPhaseCycling(t *testing.T) {
	p := NewSynthetic("cyc", 100, 16, 1, []Phase{
		{Duration: 2, Rate: 10, RegionLo: 0, RegionHi: 8, Pattern: Random, Mode: Tick},
		{Duration: 3, Rate: 10, RegionLo: 8, RegionHi: 16, Pattern: Random, Mode: Tick},
	})
	if ph := p.phaseAt(0.5); ph.RegionLo != 0 {
		t.Fatal("phase 0 expected at t=0.5")
	}
	if ph := p.phaseAt(3.0); ph.RegionLo != 8 {
		t.Fatal("phase 1 expected at t=3")
	}
	if ph := p.phaseAt(5.5); ph.RegionLo != 0 {
		t.Fatal("cycle must wrap at t=5.5")
	}
}

func TestNewSyntheticPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { NewSynthetic("x", 10, 4, 1, nil) },
		func() { NewSynthetic("x", 0, 4, 1, []Phase{{Duration: 1, RegionHi: 1}}) },
		func() {
			NewSynthetic("x", 10, 4, 1, []Phase{{Duration: 1, RegionLo: 2, RegionHi: 9, Rate: 1}})
		},
		func() {
			NewSynthetic("x", 10, 4, 1, []Phase{{Duration: 0, RegionLo: 0, RegionHi: 4, Rate: 1}})
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: bad config accepted", i)
				}
			}()
			f()
		}()
	}
}

// Compression-behaviour ordering that Table 3 depends on: sphinx3 deltas
// compress far better than milc/lbm deltas; milc/lbm stay near-raw.
func TestCompressionRatioOrdering(t *testing.T) {
	ratio := func(p Program, horizon float64) float64 {
		as := memsim.New(0)
		b := ckpt.NewBuilder(as.PageSize(), 0, 0)
		p.Init(as)
		b.FullCheckpoint(as)
		// One warm interval so hot pages exist.
		for now := 0.0; now < horizon; now++ {
			p.Step(as, now, 1)
		}
		b.IncrementalCheckpoint(as)
		for now := horizon; now < 2*horizon; now++ {
			p.Step(as, now, 1)
		}
		_, st := b.DeltaCheckpoint(as)
		return st.Ratio()
	}
	sphinx := ratio(Sphinx3(1), 20)
	milc := ratio(Milc(2), 20)
	lbm := ratio(Lbm(3), 20)
	bzip := ratio(Bzip2(4), 20)
	if sphinx >= 0.5 {
		t.Fatalf("sphinx3 ratio %v too high", sphinx)
	}
	if milc < 0.6 || lbm < 0.6 {
		t.Fatalf("milc/lbm ratios %v/%v too low — must be near-raw", milc, lbm)
	}
	if !(sphinx < bzip && bzip < lbm) {
		t.Fatalf("ordering violated: sphinx %v, bzip %v, lbm %v", sphinx, bzip, lbm)
	}
}

// Sjeng's settle phases must produce intervals whose deltas are drastically
// smaller than scramble-phase deltas — the Fig. 2 swing.
func TestSjengDeltaSwings(t *testing.T) {
	p := Sjeng(9)
	as := memsim.New(0)
	b := ckpt.NewBuilder(as.PageSize(), 0, 0)
	p.Init(as)
	b.FullCheckpoint(as)
	var sizes []int
	now := 0.0
	for i := 0; i < 12; i++ {
		for k := 0; k < 6; k++ {
			p.Step(as, now, 1)
			now++
		}
		c, _ := b.DeltaCheckpoint(as)
		sizes = append(sizes, c.Size())
	}
	minS, maxS := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if float64(minS) > 0.3*float64(maxS) {
		t.Fatalf("sjeng delta sizes lack swings: min %d, max %d", minS, maxS)
	}
}
