// Command bench is the repository's benchmark: checkpoint-to-quorum-ack and
// restore-to-image through both client facades, over real loopback TCP into
// directory-store peers with a modelled flush, plus an outside-in per-layer
// trace. README.md defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process exit. Exit codes: 0 every output correct,
// 1 a check failed, 2 the benchmark could not run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run (default: all of them)")
	seed := fl.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Int("seconds", refSeconds, "run length the fixed op counts are sized for")
	trace := fl.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; default both")
	selfcheck := fl.Bool("selfcheck", false, "run the untraced pass twice and fail if the two disagree")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	b := &bench{seed: *seed, out: outDir(), stdout: stdout, stderr: stderr}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ok := true
	for _, w := range selected {
		w = w.scaled(*seconds)
		var err error
		passed := true
		switch {
		case *selfcheck:
			passed, err = b.selfcheck(ctx, w)
		case *trace == 0:
			_, passed, err = b.untraced(ctx, w)
		case *trace == 1:
			passed, err = b.traced(ctx, w, 0)
		default:
			var e2e map[string]float64
			if e2e, passed, err = b.untraced(ctx, w); err == nil {
				var tracedOK bool
				tracedOK, err = b.traced(ctx, w, e2e["ckpt_ack_p50_ms"])
				passed = passed && tracedOK
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		ok = ok && passed
	}
	if !ok {
		return 1
	}
	return 0
}

// outDir is where traces go: bench/out under the checkout's root, wherever
// in the checkout the command was started.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

type bench struct {
	seed   int64
	out    string
	stdout io.Writer
	stderr io.Writer
	// corrupt is handed to every runner (tests only).
	corrupt func(disks map[string]*memFS) error
}

func (b *bench) runner(w workload, nRounds int, tr *tracer) *runner {
	return &runner{w: w, seed: b.seed, rounds: nRounds, tr: tr, corrupt: b.corrupt}
}

// endToEndMetrics reduces one untraced pass to the end-to-end metrics.
func endToEndMetrics(w workload, out *outcome) map[string]float64 {
	var p50, mibps, cpu []float64
	for _, rs := range out.rounds {
		p50 = append(p50, median(rs.ackMs))
		mibps = append(mibps, ratio(float64(rs.protected)/(1<<20), rs.blocked.Seconds()))
		cpu = append(cpu, ratio(ms(rs.cpu), float64(rs.acked)))
	}
	return map[string]float64{
		"setup_s":         median(out.setupS),
		"ckpt_ack_p50_ms": median(p50),
		"ckpt_mibps":      median(mibps),
		"restore_p50_ms":  median(out.restoreMs),
		"cpu_ms_per_ckpt": median(cpu),
		"space_amp":       ratio(float64(out.diskBytes), float64(w.imageBytes())),
	}
}

// exactCounts are the counts of a pass that must repeat exactly.
func exactCounts(out *outcome) map[string]int64 {
	var samples int
	for _, rs := range out.rounds {
		samples += len(rs.ackMs)
	}
	return map[string]int64{
		"ops_attempted":    int64(out.attempted),
		"ops_failed":       int64(out.failed),
		"ckpt_ack_samples": int64(samples),
		"restore_samples":  int64(len(out.restoreMs)),
		"delta_ckpts":      int64(out.deltaCkpts),
		"retire_ops":       int64(out.retires),
		"encoded_bytes":    out.encodedBytes,
		"dirty_bytes":      out.inputBytes,
		"pages_delta":      int64(out.hotPagesCoded),
		"pages_raw":        int64(out.rawPagesStored),
		"elems_dropped":    int64(out.elemsDropped),
		"disk_bytes":       out.diskBytes,
	}
}

// untraced runs the pass that yields the end-to-end metrics.
func (b *bench) untraced(ctx context.Context, w workload) (map[string]float64, bool, error) {
	r := b.runner(w, rounds, nil)
	if err := r.run(ctx, setupRepeats, false); err != nil {
		return nil, false, err
	}
	m := endToEndMetrics(w, &r.out)
	return m, b.report(w, "untraced", &r.out, endToEnd, m, nil), nil
}

// traced runs the pass that yields the per-layer metrics. baselineP50 is
// the untraced ckpt_ack_p50_ms to measure tracing overhead against; 0 makes
// the pass measure one itself, over as many rounds as it traces.
func (b *bench) traced(ctx context.Context, w workload, baselineP50 float64) (bool, error) {
	if baselineP50 == 0 {
		base := b.runner(w, tracedRounds, nil)
		if err := base.run(ctx, 1, true); err != nil {
			return false, err
		}
		baselineP50 = endToEndMetrics(w, &base.out)["ckpt_ack_p50_ms"]
	}
	tr := newTracer()
	r := b.runner(w, tracedRounds, tr)
	if err := r.run(ctx, 1, false); err != nil {
		return false, err
	}
	trees, err := buildTrees(tr.spans, r.out.ops)
	if err != nil {
		return false, err
	}
	m, problems := layerMetrics(w, &r.out, trees, baselineP50)
	if err := writeTrace(filepath.Join(b.out, "trace-"+w.name+".json"), tr.spans); err != nil {
		return false, err
	}
	return b.report(w, "traced", &r.out, perLayer, m, problems), nil
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one pass: a detail line (environment, sample counts, exact
// counts, errors) and then the result line in the driver's format, which is
// therefore the last line of a single-pass run.
func (b *bench) report(w workload, pass string, out *outcome, defs []metricDef, m map[string]float64, problems []string) bool {
	metrics := make(map[string]metricValue, len(defs))
	for _, def := range defs {
		v := m[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is not finite", def.name))
			v = 0
		}
		metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	correct := out.failed == 0 && len(problems) == 0
	detail := map[string]any{
		"workload": w.name,
		"pass":     pass,
		"counts":   exactCounts(out), // ops_attempted and ops_failed among them
		"setup_s":  out.setupS,
		"phase_s":  out.phaseS,
		"errors":   append(append([]string{}, out.errs...), problems...),
		"env": map[string]any{
			"seed":           b.seed,
			"nproc":          runtime.NumCPU(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"go":             runtime.Version(),
			"store_backing":  "memory",
			"flush_stall_ms": ms(flushStall),
			"rounds":         len(out.rounds),
			"cycles":         w.cycles,
		},
	}
	for _, line := range []any{detail, map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return false
		}
		fmt.Fprintln(b.stdout, string(data))
	}
	return correct
}

// selfcheck runs the untraced pass twice back to back and prints how far
// the two disagree: every end-to-end metric must agree within its bound and
// every exact count exactly.
func (b *bench) selfcheck(ctx context.Context, w workload) (bool, error) {
	var ms [2]map[string]float64
	var counts [2]map[string]int64
	ok := true
	for i := range ms {
		r := b.runner(w, rounds, nil)
		if err := r.run(ctx, setupRepeats, false); err != nil {
			return false, err
		}
		ms[i], counts[i] = endToEndMetrics(w, &r.out), exactCounts(&r.out)
		ok = ok && r.out.failed == 0
	}
	fmt.Fprintf(b.stdout, "%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "spread", "bound")
	for _, def := range endToEnd {
		a, c := ms[0][def.name], ms[1][def.name]
		spread := ratio(math.Abs(a-c), math.Min(a, c))
		verdict := ""
		if spread > def.bound {
			verdict, ok = "  FAIL", false
		}
		fmt.Fprintf(b.stdout, "%-16s %-18s %14.4f %14.4f %8.2f%% %6.1f%%%s\n",
			w.name, def.name, a, c, 100*spread, 100*def.bound, verdict)
	}
	for _, name := range sortedKeys(counts[0]) {
		verdict := ""
		if counts[0][name] != counts[1][name] {
			verdict, ok = "  FAIL", false
		}
		fmt.Fprintf(b.stdout, "%-16s %-18s %14d %14d %9s %7s%s\n",
			w.name, name, counts[0][name], counts[1][name], "", "exact", verdict)
	}
	return ok, nil
}
