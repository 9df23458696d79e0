package exp

import (
	"fmt"
	"math"
	"strings"

	"aic/internal/core"
	"aic/internal/failure"
	"aic/internal/par"
)

// PredictorAccuracyRow quantifies the online predictor's error on one
// benchmark: the mean absolute percentage error of the predicted (c1, dl,
// ds) against the realized values, over the intervals where the stepwise
// model was established.
type PredictorAccuracyRow struct {
	Benchmark string
	Intervals int     // intervals with an established prediction
	MAPEC1    float64 // mean |pred−actual|/actual for c1
	MAPEDL    float64
	MAPEDS    float64
}

// PredictorAccuracy runs AIC on each benchmark and scores its predictions.
// The paper claims the lightweight predictor suffices for per-second online
// decisions; this experiment makes the claim measurable.
func PredictorAccuracy(seed uint64, benchmarks ...string) ([]PredictorAccuracyRow, error) {
	if len(benchmarks) == 0 {
		benchmarks = BenchmarkNames()
	}
	sys := BenchSystem(1)
	lambda := ExperimentLambda()
	rows := make([]PredictorAccuracyRow, len(benchmarks))
	err := par.For(0, len(benchmarks), func(_, i int) error {
		res, err := runPolicy(benchmarks[i], core.PolicyAIC, sys, lambda, seed, core.CompressorPA)
		if err != nil {
			return err
		}
		row := PredictorAccuracyRow{Benchmark: benchmarks[i]}
		var c1, dl, ds float64
		for _, iv := range res.Intervals {
			if iv.PredC1 <= 0 && iv.PredDL <= 0 && iv.PredDS <= 0 {
				continue // bootstrap interval: no prediction yet
			}
			row.Intervals++
			c1 += mape(iv.PredC1, iv.C1)
			dl += mape(iv.PredDL, iv.DL)
			ds += mape(iv.PredDS, iv.DS)
		}
		if row.Intervals > 0 {
			n := float64(row.Intervals)
			row.MAPEC1, row.MAPEDL, row.MAPEDS = c1/n, dl/n, ds/n
		}
		rows[i] = row
		return nil
	})
	return rows, err
}

func mape(pred, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(pred-actual) / actual
}

// LambdaRow is one failure-rate point of the sensitivity sweep.
type LambdaRow struct {
	Lambda float64
	AIC    float64
	SIC    float64
	Moody  float64
}

// LambdaSensitivity sweeps the total failure rate on one benchmark under
// the three policies — the paper evaluates only λ = 1e-3 ("unusually high
// ... to be able to collect experimental data"); this shows how the
// policies separate as failures rarefy toward production rates.
func LambdaSensitivity(seed uint64, benchmark string, lambdas []float64) ([]LambdaRow, error) {
	if benchmark == "" {
		benchmark = "milc"
	}
	if len(lambdas) == 0 {
		lambdas = []float64{1e-4, 3e-4, 1e-3, 3e-3}
	}
	sys := BenchSystem(1)
	rows := make([]LambdaRow, len(lambdas))
	for i, l := range lambdas {
		rows[i].Lambda = l
	}
	err := par.For(0, len(lambdas)*3, func(_, k int) error {
		i, p := k/3, k%3
		lambda := failure.SplitRate(lambdas[i], failure.CoastalProportions())
		policy := []core.PolicyKind{core.PolicyAIC, core.PolicySIC, core.PolicyMoody}[p]
		n, _, err := PolicyNET2(benchmark, policy, sys, lambda, seed)
		if err != nil {
			return fmt.Errorf("λ=%g/%v: %w", lambdas[i], policy, err)
		}
		switch policy {
		case core.PolicyAIC:
			rows[i].AIC = n
		case core.PolicySIC:
			rows[i].SIC = n
		case core.PolicyMoody:
			rows[i].Moody = n
		}
		return nil
	})
	return rows, err
}

// RenderAccuracy formats the predictor-accuracy and λ-sensitivity studies.
func RenderAccuracy(acc []PredictorAccuracyRow, lam []LambdaRow) string {
	var b strings.Builder
	if len(acc) > 0 {
		b.WriteString("Study — online predictor accuracy (MAPE of predictions vs realized):\n")
		fmt.Fprintf(&b, "  %-11s %4s %8s %8s %8s\n", "benchmark", "iv", "c1", "dl", "ds")
		for _, r := range acc {
			fmt.Fprintf(&b, "  %-11s %4d %7.1f%% %7.1f%% %7.1f%%\n",
				r.Benchmark, r.Intervals, 100*r.MAPEC1, 100*r.MAPEDL, 100*r.MAPEDS)
		}
		b.WriteString("  (iv = intervals with an established stepwise model; 0 = the run\n")
		b.WriteString("   ended within the four-sample bootstrap, as happens when the\n")
		b.WriteString("   transfer window allows only a handful of checkpoints)\n")
	}
	if len(lam) > 0 {
		b.WriteString("Study — failure-rate sensitivity (milc NET² by policy):\n")
		fmt.Fprintf(&b, "  %10s %9s %9s %9s\n", "λ", "AIC", "SIC", "Moody")
		for _, r := range lam {
			fmt.Fprintf(&b, "  %10.0e %9.4f %9.4f %9.4f\n", r.Lambda, r.AIC, r.SIC, r.Moody)
		}
	}
	return b.String()
}
