// Package sim is the discrete-event Monte Carlo cross-validator for the
// analytic models: it replays a job's measured interval trace
// (core.IntervalRecord) under explicit exponential failure arrivals,
// walking the concurrent L2L3 recovery semantics (Section III) with an
// implementation independent of the markov package's linear-system solver.
// Agreement with core.TraceNET2 on the same trace is the repository's
// strongest correctness evidence for Eq. (1).
package sim

import (
	"fmt"
	"math"

	"aic/internal/core"
	"aic/internal/numeric"
)

// segments mirrors model.clampSegments for one interval's costs.
func segments(iv core.IntervalRecord) (phaseBoth, phaseOne, full float64) {
	lo := math.Max(iv.C1, math.Min(iv.C2, iv.C3))
	hi := math.Max(lo, math.Max(iv.C2, iv.C3))
	return lo - iv.C1, hi - lo, hi - iv.C1
}

// failureDraw samples the time to the next failure and its class.
type failureDraw struct {
	rng   *numeric.RNG
	rates [3]float64
	total float64
}

func newFailureDraw(rng *numeric.RNG, rates [3]float64) *failureDraw {
	return &failureDraw{rng: rng, rates: rates, total: rates[0] + rates[1] + rates[2]}
}

// next returns (timeToFailure, class 1..3). With zero total rate it returns
// (+Inf, 0).
func (f *failureDraw) next() (float64, int) {
	if f.total <= 0 {
		return math.Inf(1), 0
	}
	t := f.rng.Exp(f.total)
	u := f.rng.Float64() * f.total
	acc := 0.0
	for i, r := range f.rates {
		acc += r
		if u < acc {
			return t, i + 1
		}
	}
	return t, 3
}

// phase identifiers of the interval walk.
type phase int

const (
	phS1  phase = iota // w + c1 (work + local checkpoint)
	phS2               // both remote transfers in flight
	phS3               // only L3 in flight (current L2 complete)
	phS6               // recovering from the current interval's L2
	phS7               // redoing the concurrent window after S6
	phR2p              // recovering from the previous interval's L2
	phR3p              // recovering from the previous interval's L3
	phS5               // re-running work lost with the previous interval
)

// simulateInterval walks one interval to completion under failures,
// returning the elapsed wall time. prevFull is the previous interval's
// concurrent window (the S5 rerun length); prevR2/prevR3 its recovery
// times. Each level recovers in its checkpoint latency (r_k = c_k). The
// walk mirrors the L2L3 chain of Fig. 8 state by state.
func simulateInterval(iv core.IntervalRecord, prevFull, prevR2, prevR3 float64, fd *failureDraw) float64 {
	phaseBoth, phaseOne, full := segments(iv)
	dur := map[phase]float64{
		phS1: iv.W + iv.C1, phS2: phaseBoth, phS3: phaseOne,
		phS6: iv.C2, phS7: full, phR2p: prevR2, phR3p: prevR3, phS5: prevFull,
	}
	succ := map[phase]phase{
		phS2: phS3, phS6: phS7, phR2p: phS5, phR3p: phS5, phS5: phS1,
	}
	elapsed := 0.0
	p := phS1
	for steps := 0; ; steps++ {
		if steps > 1<<22 {
			panic("sim: interval failed to complete (rates pathologically high)")
		}
		d := dur[p]
		tFail, class := fd.next()
		if tFail >= d {
			elapsed += d
			switch p {
			case phS1:
				p = phS2
			case phS3, phS7:
				return elapsed // interval complete: L3 landed
			default:
				p = succ[p]
			}
			continue
		}
		elapsed += tFail
		switch p {
		case phS1, phS2, phR2p, phS5:
			// No current-interval L2 yet: recover from interval i−1.
			if class == 3 {
				p = phR3p
			} else {
				p = phR2p
			}
		case phS3, phS6, phS7:
			// Current L2 complete: f1/f2 recover from it; f3 falls back.
			if class == 3 {
				p = phR3p
			} else {
				p = phS6
			}
		case phR3p:
			p = phR3p
		}
	}
}

// Result summarizes a Monte Carlo run.
type Result struct {
	Trials   int
	MeanTime float64 // mean turnaround across trials
	Work     float64 // base work accomplished (denominator of NET²)
	NET2     float64
	NET2Err  float64 // standard error of the NET² estimate
}

// MonteCarloNET2 replays the interval sequence trials times under the given
// failure rates and returns the empirical NET² (mean turnaround over base
// work). The very first interval recovers from the job's pre-staged initial
// checkpoint, whose recovery times are taken from the first interval.
func MonteCarloNET2(ivs []core.IntervalRecord, lambda [3]float64, trials int, seed uint64) (Result, error) {
	if len(ivs) == 0 {
		return Result{}, fmt.Errorf("sim: no intervals")
	}
	if trials <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive trials")
	}
	rng := numeric.NewRNG(seed)
	var work float64
	for _, iv := range ivs {
		_, _, full := segments(iv)
		work += iv.W + full
	}
	times := make([]float64, trials)
	var mean numeric.KahanSum
	for t := 0; t < trials; t++ {
		fd := newFailureDraw(rng.Split(), lambda)
		var total numeric.KahanSum
		prevFull, prevR2, prevR3 := 0.0, ivs[0].C2, ivs[0].C3
		for _, iv := range ivs {
			total.Add(simulateInterval(iv, prevFull, prevR2, prevR3, fd))
			_, _, full := segments(iv)
			prevFull, prevR2, prevR3 = full, iv.C2, iv.C3
		}
		times[t] = total.Value()
		mean.Add(times[t])
	}
	res := Result{
		Trials:   trials,
		MeanTime: mean.Value() / float64(trials),
		Work:     work,
	}
	if work > 0 {
		res.NET2 = res.MeanTime / work
		var sq numeric.KahanSum
		for _, t := range times {
			d := t - res.MeanTime
			sq.Add(d * d)
		}
		if trials > 1 {
			res.NET2Err = math.Sqrt(sq.Value()/float64(trials-1)) / math.Sqrt(float64(trials)) / work
		}
	}
	return res, nil
}
