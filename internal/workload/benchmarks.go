package workload

import "fmt"

// Benchmark footprints in 4-KiB pages. The paper's processes occupy up to
// 1 GB; the simulation scales footprints down (the system model's byte
// rates scale identically — see storage.BenchSystem) while preserving each
// benchmark's relative size and behaviour. Dirty rates are tuned so that a
// run spans several checkpoint intervals under the scaled Coastal remote
// bandwidth, keeping the adaptive decision problem non-degenerate.
const (
	bzipPages    = 1024 // 4 MiB: moving block-compression window
	sjengPages   = 2048 // 8 MiB: transposition table
	libqPages    = 1024 // 4 MiB: quantum register bands
	milcPages    = 4096 // 16 MiB: QCD lattice
	lbmPages     = 4096 // 16 MiB: fluid lattice, streaming
	sphinxPages  = 256  // 1 MiB: acoustic model working set
	refFootprint = milcPages
)

// ReferenceFootprintPages is the footprint the benchmark system model is
// calibrated against (the largest benchmark, standing in for the paper's
// 1-GB processes).
const ReferenceFootprintPages = refFootprint

// Bzip2 models block compression: bursts that sweep a moving window with
// mostly-new (compressed, high-entropy) output, separated by low-activity
// bookkeeping phases — moderate compressibility with visible swings.
func Bzip2(seed uint64) *Synthetic {
	return NewSynthetic("bzip2", 152, bzipPages, seed, []Phase{
		{Duration: 6, Rate: 60, RegionLo: 0, RegionHi: bzipPages, Pattern: Sweep, Mode: Scramble, Fraction: 0.6},
		{Duration: 4, Rate: 20, RegionLo: 0, RegionHi: bzipPages / 8, Pattern: Random, Mode: Tick},
	})
}

// Sjeng models game-tree search over a large transposition table: deep
// search phases scramble random table entries, then quiescence/unwind
// phases settle entries back toward canonical values — producing the wide
// delta-latency/size swings of Fig. 2 (a 95% drop within seconds).
func Sjeng(seed uint64) *Synthetic {
	return NewSynthetic("sjeng", 661, sjengPages, seed, []Phase{
		{Duration: 16, Rate: 38, RegionLo: 0, RegionHi: sjengPages, Pattern: Random, Mode: Scramble, Fraction: 0.55},
		{Duration: 14, Rate: 55, RegionLo: 0, RegionHi: sjengPages, Pattern: Random, Mode: Settle, Fraction: 1.0},
		{Duration: 6, Rate: 10, RegionLo: 0, RegionHi: sjengPages / 16, Pattern: Hotspot, Mode: Tick},
	})
}

// Libquantum models quantum register simulation: banded sweeps whose
// updates rewrite about half of each touched page, with short control
// phases.
func Libquantum(seed uint64) *Synthetic {
	return NewSynthetic("libquantum", 846, libqPages, seed, []Phase{
		{Duration: 10, Rate: 25, RegionLo: 0, RegionHi: libqPages / 2, Pattern: Sweep, Mode: Scramble, Fraction: 0.5},
		{Duration: 10, Rate: 25, RegionLo: libqPages / 2, RegionHi: libqPages, Pattern: Sweep, Mode: Scramble, Fraction: 0.5},
		{Duration: 5, Rate: 10, RegionLo: 0, RegionHi: libqPages / 8, Pattern: Random, Mode: Tick},
	})
}

// Milc models lattice QCD: sweeps that rewrite most of every touched page
// with fresh values — large, poorly compressible deltas (ratio ≈ 0.8,
// the paper's hardest case and AIC's biggest win in Fig. 11) — with the
// sweep intensity alternating between full-lattice update phases and
// lighter measurement phases.
func Milc(seed uint64) *Synthetic {
	return NewSynthetic("milc", 527, milcPages, seed, []Phase{
		{Duration: 20, Rate: 30, RegionLo: 0, RegionHi: milcPages, Pattern: Sweep, Mode: Scramble, Fraction: 0.74},
		{Duration: 20, Rate: 8, RegionLo: 0, RegionHi: milcPages / 4, Pattern: Random, Mode: Scramble, Fraction: 0.74},
	})
}

// Lbm models the lattice-Boltzmann stream/collide kernel: a steady
// streaming sweep rewriting ~90% of each page — the least compressible
// workload, with rate modulation between collision-heavy and
// propagation-heavy stretches.
func Lbm(seed uint64) *Synthetic {
	return NewSynthetic("lbm", 462, lbmPages, seed, []Phase{
		{Duration: 20, Rate: 25, RegionLo: 0, RegionHi: lbmPages, Pattern: Sweep, Mode: Scramble, Fraction: 0.9},
		{Duration: 20, Rate: 10, RegionLo: 0, RegionHi: lbmPages, Pattern: Sweep, Mode: Scramble, Fraction: 0.9},
	})
}

// Sphinx3 models speech decoding: a small hot working set with light,
// localized updates — tiny deltas (order half-MB in the paper) that
// compress extremely well and leave adaptivity little to gain.
func Sphinx3(seed uint64) *Synthetic {
	return NewSynthetic("sphinx3", 749, sphinxPages, seed, []Phase{
		{Duration: 12, Rate: 25, RegionLo: 0, RegionHi: sphinxPages, Pattern: Hotspot, Mode: Scramble, Fraction: 0.14},
		{Duration: 8, Rate: 40, RegionLo: 0, RegionHi: sphinxPages / 4, Pattern: Random, Mode: Tick},
	})
}

// ByName returns the named benchmark or an error listing the valid names.
func ByName(name string, seed uint64) (Program, error) {
	switch name {
	case "bzip2":
		return Bzip2(seed), nil
	case "sjeng":
		return Sjeng(seed), nil
	case "libquantum":
		return Libquantum(seed), nil
	case "milc":
		return Milc(seed), nil
	case "lbm":
		return Lbm(seed), nil
	case "sphinx3":
		return Sphinx3(seed), nil
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (want bzip2|sjeng|libquantum|milc|lbm|sphinx3)", name)
}
