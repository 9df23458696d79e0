package exp

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"aic/internal/trace"
)

// Experiment is one reproducible table or figure of the paper: its text
// report and, for the tabular ones, the same rows as CSV for external
// plotting.
type Experiment struct {
	Name string
	Text func(seed uint64) (string, error)
	CSV  func(seed uint64) (string, error) // nil: no CSV form
}

// Experiments is every experiment, in report order. The facade's
// Experiments and RunExperiment, CSV, and cmd/aicbench all read it.
var Experiments = []Experiment{
	{"fig2", func(seed uint64) (string, error) { return then(RenderFig2)(Fig2(seed)) },
		func(seed uint64) (string, error) { return then(fig2CSV)(Fig2(seed)) }},
	{"fig5", func(uint64) (string, error) {
		return then(scalingText("Fig. 5 — NET² of pF3D (MPI scaling) vs system size"))(Fig5(nil))
	}, func(uint64) (string, error) { return then(scalingCSV)(Fig5(nil)) }},
	{"fig6", func(uint64) (string, error) {
		return then(scalingText("Fig. 6 — NET² of RMS vs system size"))(Fig6(nil))
	}, func(uint64) (string, error) { return then(scalingCSV)(Fig6(nil)) }},
	{"fig7", func(uint64) (string, error) { return then(RenderFig7)(Fig7(nil, nil)) },
		func(uint64) (string, error) { return then(fig7CSV)(Fig7(nil, nil)) }},
	{"fig11", func(seed uint64) (string, error) { return then(RenderFig11)(Fig11(seed)) },
		func(seed uint64) (string, error) { return then(fig11CSV)(Fig11(seed)) }},
	{"fig12", func(seed uint64) (string, error) { return then(RenderFig12)(Fig12(seed, nil)) },
		func(seed uint64) (string, error) { return then(fig12CSV)(Fig12(seed, nil)) }},
	{"table1", func(seed uint64) (string, error) { return then(RenderTable1)(Table1Rows(0, seed)) },
		func(seed uint64) (string, error) { return then(table1CSV)(Table1Rows(0, seed)) }},
	{"table3", func(seed uint64) (string, error) { return then(RenderTable3)(Table3(seed)) },
		func(seed uint64) (string, error) { return then(table3CSV)(Table3(seed)) }},
	{"ablations", ablationsText, nil},
	{"extensions", extensionsText, nil},
	{"studies", studiesText, nil},
}

// Lookup returns the experiment called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// CSV renders an experiment's rows as CSV. It fails for a name with no
// CSV form.
func CSV(name string, seed uint64) (string, error) {
	e, ok := Lookup(name)
	if !ok || e.CSV == nil {
		return "", fmt.Errorf("exp: no CSV form for experiment %q", name)
	}
	return e.CSV(seed)
}

// then turns a renderer into one that passes a computation's error through,
// so an entry reads then(render)(compute(seed)).
func then[T any](render func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

func scalingText(title string) func([]ScalingRow) string {
	return func(rows []ScalingRow) string { return RenderScaling(title, rows) }
}

func studiesText(seed uint64) (string, error) {
	acc, err := PredictorAccuracy(seed)
	if err != nil {
		return "", err
	}
	lam, err := LambdaSensitivity(seed, "milc", nil)
	if err != nil {
		return "", err
	}
	return RenderAccuracy(acc, lam), nil
}

func extensionsText(seed uint64) (string, error) {
	sharing, err := SharingEmpirical(seed, nil)
	if err != nil {
		return "", err
	}
	mpiRows, err := MPIScaling(seed, nil)
	if err != nil {
		return "", err
	}
	weibull, err := WeibullSensitivity(seed, nil, 0)
	if err != nil {
		return "", err
	}
	return RenderExtensions(sharing, mpiRows, weibull), nil
}

func ablationsText(seed uint64) (string, error) {
	comp, err := AblationCompressor(seed)
	if err != nil {
		return "", err
	}
	pred, err := AblationPredictor(seed)
	if err != nil {
		return "", err
	}
	samp, err := AblationSampler(seed)
	if err != nil {
		return "", err
	}
	bs, err := AblationBlockSize(seed, nil)
	if err != nil {
		return "", err
	}
	return RenderAblations(comp, pred, samp) + RenderBlockSize(bs), nil
}

// g8 formats a CSV number.
func g8(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// csvTable renders a header and its rows as CSV.
func csvTable(header []string, rows [][]string) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(header)
	w.WriteAll(rows) // flushes
	return b.String()
}

// fig2CSV renders Fig. 2 series: one row per second, a normalized latency
// and size column pair per benchmark.
func fig2CSV(series []Fig2Series) string {
	header := []string{"time_s"}
	for _, s := range series {
		header = append(header, s.Benchmark+"_norm_latency", s.Benchmark+"_norm_size")
	}
	var rows [][]string
	if len(series) > 0 {
		for i := range series[0].Points {
			row := []string{g8(series[0].Points[i].Time)}
			for _, s := range series {
				row = append(row, g8(s.Points[i].NormLatency), g8(s.Points[i].NormSize))
			}
			rows = append(rows, row)
		}
	}
	return csvTable(header, rows)
}

func scalingCSV(rows []ScalingRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{g8(r.Size), g8(r.Moody), g8(r.L1L3), g8(r.L2L3), g8(r.L1L2L3)})
	}
	return csvTable([]string{"size", "moody", "l1l3", "l2l3", "l1l2l3"}, out)
}

func fig7CSV(rows []SharingRow) string {
	var sfs []int
	if len(rows) > 0 {
		for sf := range rows[0].BySF {
			sfs = append(sfs, sf)
		}
		sort.Ints(sfs)
	}
	header := []string{"size", "moody"}
	for _, sf := range sfs {
		header = append(header, fmt.Sprintf("sf%d", sf))
	}
	var out [][]string
	for _, r := range rows {
		row := []string{g8(r.Size), g8(r.Moody)}
		for _, sf := range sfs {
			row = append(row, g8(r.BySF[sf]))
		}
		out = append(out, row)
	}
	return csvTable(header, out)
}

func fig11CSV(rows []Fig11Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Benchmark, g8(r.AIC), g8(r.SIC), g8(r.Moody)})
	}
	return csvTable([]string{"benchmark", "aic", "sic", "moody"}, out)
}

func fig12CSV(rows []Fig12Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{g8(r.Scale), g8(r.AIC), g8(r.SIC)})
	}
	return csvTable([]string{"scale", "aic", "sic"}, out)
}

func table1CSV(rows []trace.Table1Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			strconv.Itoa(r.System.ID), r.System.Type,
			strconv.Itoa(r.System.Nodes), strconv.Itoa(r.System.CoresPerNode),
			g8(r.CandidateFrac), g8(r.PaperFrac),
			g8(r.CandidateFracReserved), g8(r.PaperFracReserved),
		})
	}
	return csvTable([]string{"system", "type", "nodes", "cores_per_node",
		"candidate_frac", "paper_frac", "candidate_frac_rescheduled", "paper_frac_rescheduled"}, out)
}

func table3CSV(rows []Table3Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Benchmark, g8(r.BaseTime), g8(r.RatioXdelta3), g8(r.RatioPA),
			g8(r.LatencyXdelta3), g8(r.LatencyPA), g8(r.AICTime), g8(r.AICOverheadPct)})
	}
	return csvTable([]string{"benchmark", "base_s", "ratio_xdelta3", "ratio_pa",
		"latency_xdelta3_s", "latency_pa_s", "aic_time_s", "aic_overhead_pct"}, out)
}
