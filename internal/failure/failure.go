// Package failure generates the multi-level failure processes of the paper:
// independent Poisson arrivals per level, where level-1 failures are
// transient (recoverable on the same core from any checkpoint), level-2
// failures are partial node failures (handled by the RAID-5 group), and
// level-3 failures are total node failures that also destroy the local disk
// and require remote storage for recovery.
package failure

import (
	"fmt"
	"math"

	"aic/internal/numeric"
)

// Level identifies the minimum checkpoint level able to recover a failure.
type Level int

// Failure levels (the paper's f1, f2, f3).
const (
	Transient   Level = 1 // re-run on the same core
	PartialNode Level = 2 // some cores lost; local disk survives
	TotalNode   Level = 3 // node and its local disk lost
)

// String names the failure class.
func (l Level) String() string {
	switch l {
	case Transient:
		return "transient"
	case PartialNode:
		return "partial-node"
	case TotalNode:
		return "total-node"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Event is one failure occurrence.
type Event struct {
	Time  float64
	Level Level
}

// CoastalProportions returns each level's share of the total system failure
// rate under the Coastal profile (≈ 8.3%, 75%, 16.7%), which the paper uses
// to split its inflated experimental rate λ = 1e-3 across levels.
func CoastalProportions() [3]float64 {
	const total = 2e-7 + 1.8e-6 + 4e-7
	return [3]float64{2e-7 / total, 1.8e-6 / total, 4e-7 / total}
}

// SplitRate distributes a total failure rate across levels by the given
// proportions (normalized internally).
func SplitRate(total float64, proportions [3]float64) [3]float64 {
	sum := proportions[0] + proportions[1] + proportions[2]
	if sum <= 0 || total <= 0 {
		return [3]float64{}
	}
	var out [3]float64
	for i := range out {
		out[i] = total * proportions[i] / sum
	}
	return out
}

// Injector produces failure events from independent per-level Poisson
// processes. It is deterministic given its RNG seed.
type Injector struct {
	rng   *numeric.RNG
	rates [3]float64
}

// NewInjector creates an injector with per-level rates (index 0 = level 1).
// All-zero rates yield an injector that never fires.
func NewInjector(rng *numeric.RNG, rates [3]float64) *Injector {
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) {
			panic(fmt.Sprintf("failure: invalid rate λ%d = %v", i+1, r))
		}
	}
	return &Injector{rng: rng, rates: rates}
}

// TotalRate returns the combined arrival rate.
func (in *Injector) TotalRate() float64 { return in.rates[0] + in.rates[1] + in.rates[2] }

// Next returns the first failure event strictly after now, or ok=false when
// no level has a positive rate. By superposition, the combined process is
// Poisson with the total rate; the firing level is chosen proportionally.
func (in *Injector) Next(now float64) (Event, bool) {
	total := in.TotalRate()
	if total <= 0 {
		return Event{}, false
	}
	t := now + in.rng.Exp(total)
	u := in.rng.Float64() * total
	acc := 0.0
	for i, r := range in.rates {
		acc += r
		if u < acc {
			return Event{Time: t, Level: Level(i + 1)}, true
		}
	}
	return Event{Time: t, Level: TotalNode}, true
}
