package exp

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CSV renders an experiment's rows as machine-readable CSV for external
// plotting — the same data the text renderers show. Supported names match
// the aicbench experiment names (fig2, fig5, fig6, fig7, fig11, fig12,
// table1, table3).
func CSV(name string, seed uint64) (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

	switch name {
	case "fig2":
		series, err := Fig2(seed)
		if err != nil {
			return "", err
		}
		return fig2CSV(series), nil
	case "fig5", "fig6":
		var rows []ScalingRow
		var err error
		if name == "fig5" {
			rows, err = Fig5(nil)
		} else {
			rows, err = Fig6(nil)
		}
		if err != nil {
			return "", err
		}
		w.Write([]string{"size", "moody", "l1l3", "l2l3", "l1l2l3"})
		for _, r := range rows {
			w.Write([]string{f(r.Size), f(r.Moody), f(r.L1L3), f(r.L2L3), f(r.L1L2L3)})
		}
	case "fig7":
		rows, err := Fig7(nil, nil)
		if err != nil {
			return "", err
		}
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
		w.Write(header)
		for _, r := range rows {
			row := []string{f(r.Size), f(r.Moody)}
			for _, sf := range sfs {
				row = append(row, f(r.BySF[sf]))
			}
			w.Write(row)
		}
	case "fig11":
		rows, err := Fig11(seed)
		if err != nil {
			return "", err
		}
		w.Write([]string{"benchmark", "aic", "sic", "moody"})
		for _, r := range rows {
			w.Write([]string{r.Benchmark, f(r.AIC), f(r.SIC), f(r.Moody)})
		}
	case "fig12":
		rows, err := Fig12(seed, nil)
		if err != nil {
			return "", err
		}
		w.Write([]string{"scale", "aic", "sic"})
		for _, r := range rows {
			w.Write([]string{f(r.Scale), f(r.AIC), f(r.SIC)})
		}
	case "table1":
		rows, err := Table1Rows(0, seed)
		if err != nil {
			return "", err
		}
		w.Write([]string{"system", "type", "nodes", "cores_per_node",
			"candidate_frac", "paper_frac", "candidate_frac_rescheduled", "paper_frac_rescheduled"})
		for _, r := range rows {
			w.Write([]string{
				strconv.Itoa(r.System.ID), r.System.Type,
				strconv.Itoa(r.System.Nodes), strconv.Itoa(r.System.CoresPerNode),
				f(r.CandidateFrac), f(r.PaperFrac),
				f(r.CandidateFracReserved), f(r.PaperFracReserved),
			})
		}
	case "table3":
		rows, err := Table3(seed)
		if err != nil {
			return "", err
		}
		w.Write([]string{"benchmark", "base_s", "ratio_xdelta3", "ratio_pa",
			"latency_xdelta3_s", "latency_pa_s", "aic_time_s", "aic_overhead_pct"})
		for _, r := range rows {
			w.Write([]string{r.Benchmark, f(r.BaseTime), f(r.RatioXdelta3), f(r.RatioPA),
				f(r.LatencyXdelta3), f(r.LatencyPA), f(r.AICTime), f(r.AICOverheadPct)})
		}
	default:
		return "", fmt.Errorf("exp: no CSV form for experiment %q", name)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", err
	}
	return b.String(), nil
}

// fig2CSV renders Fig. 2 series: one row per second, a normalized latency
// and size column pair per benchmark.
func fig2CSV(series []Fig2Series) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	header := []string{"time_s"}
	for _, s := range series {
		header = append(header, s.Benchmark+"_norm_latency", s.Benchmark+"_norm_size")
	}
	w.Write(header)
	if len(series) > 0 {
		for i := range series[0].Points {
			row := []string{f(series[0].Points[i].Time)}
			for _, s := range series {
				row = append(row, f(s.Points[i].NormLatency), f(s.Points[i].NormSize))
			}
			w.Write(row)
		}
	}
	w.Flush()
	return b.String()
}
