// Package model builds the paper's concurrent multi-level checkpointing
// chains (L1L3, L2L3, L1L2L3 — Fig. 4), the non-static per-interval L2L3
// model used by AIC (Fig. 8), and the Moody sequential baseline, together
// with the NET² optimizers that search the work span w (and Moody's n_k).
package model

import (
	"fmt"
	"math"
)

// Params carries the per-level failure rates, checkpoint latencies and
// recovery times of a system configuration (Table 2 symbols λ_k, c_k, r_k).
// Index 0 is level 1.
type Params struct {
	Lambda [3]float64 // failure arrival rate per level (1/s)
	C      [3]float64 // checkpoint latency per level (s)
	R      [3]float64 // recovery time per level (s)
}

// Coastal returns the LLNL Coastal cluster profile used throughout the
// paper's evaluation (Section III.D): λ = (2e-7, 1.8e-6, 4e-7),
// c = (0.5, 4.5, 1052), r_k = c_k.
func Coastal() Params {
	p := Params{
		Lambda: [3]float64{2e-7, 1.8e-6, 4e-7},
		C:      [3]float64{0.5, 4.5, 1052},
	}
	p.R = p.C
	return p
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	for k := 0; k < 3; k++ {
		if p.Lambda[k] < 0 || math.IsNaN(p.Lambda[k]) {
			return fmt.Errorf("model: λ%d = %v invalid", k+1, p.Lambda[k])
		}
		if p.C[k] < 0 || math.IsNaN(p.C[k]) {
			return fmt.Errorf("model: c%d = %v invalid", k+1, p.C[k])
		}
		if p.R[k] < 0 || math.IsNaN(p.R[k]) {
			return fmt.Errorf("model: r%d = %v invalid", k+1, p.R[k])
		}
	}
	return nil
}

// ScaleMPI returns the profile under MPI system-size scaling (Section
// III.D): the failure of any process fails the whole job, so every λ_k
// scales with size; remote-storage bandwidth congests, so c3 (and r3) scale
// too, while c1, c2 stay flat.
func (p Params) ScaleMPI(size float64) Params {
	out := p
	for k := 0; k < 3; k++ {
		out.Lambda[k] *= size
	}
	out.C[2] *= size
	out.R[2] *= size
	return out
}

// ScaleRMS returns the profile under RMS system-size scaling: processes run
// almost independently so λ is unchanged, but per-node bandwidth to remote
// storage still shrinks, scaling c3 (and r3).
func (p Params) ScaleRMS(size float64) Params {
	out := p
	out.C[2] *= size
	out.R[2] *= size
	return out
}

// ShareCheckpointCore returns the profile when sf computation processes
// share one checkpointing core (Section III.D worst case): the concurrent
// transfer segments c2−c1 and c3−c1 stretch by sf. Recovery reads are
// likewise shared.
func (p Params) ShareCheckpointCore(sf float64) Params {
	if sf < 1 {
		sf = 1
	}
	out := p
	out.C[1] = p.C[0] + sf*math.Max(0, p.C[1]-p.C[0])
	out.C[2] = p.C[0] + sf*math.Max(0, p.C[2]-p.C[0])
	out.R[1] = p.R[0] + sf*math.Max(0, p.R[1]-p.R[0])
	out.R[2] = p.R[0] + sf*math.Max(0, p.R[2]-p.R[0])
	return out
}
