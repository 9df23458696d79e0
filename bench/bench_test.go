package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny shrinks a workload to test-only counts: same facades, same phases,
// same cycle structure, kilobyte images.
func tiny(w workload) workload {
	w.pages = 64
	if w.hotPages > 0 {
		w.hotPages = 8
	}
	if w.coldPages > 0 {
		w.coldPages = 8
	}
	if w.stripeThreshold > 0 {
		w.stripeThreshold = 8 << 10
	}
	if w.ring {
		w.deltaSteps = 3 // the directory facade keeps 16: fewer would never compact
	}
	w.cycles, w.warmCycles = 1, 1
	w.restoreAt, w.restores, w.warmRestore = 2, w.ranks, 1
	return w
}

type resultLine struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// lastLine decodes the result line strictly: exactly the driver's four keys.
func lastLine(t *testing.T, out string) (resultLine, string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	raw := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(raw), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, raw)
	}
	if len(keys) != 4 {
		t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
		t.Fatalf("result line misses a key: %s", raw)
	}
	return res, raw
}

func checkMetrics(t *testing.T, res resultLine, raw string, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		if n := strings.Count(raw, fmt.Sprintf("%q:{", def.name)); n != 1 {
			t.Errorf("metric %s emitted %d times, want once", def.name, n)
		}
		v, ok := res.Metrics[def.name]
		if !ok {
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != def.unit {
			t.Errorf("metric %s = %v %q, want a finite value in %q", def.name, v.Value, v.Unit, def.unit)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			b := &bench{seed: 1, out: t.TempDir(), stdout: &out, stderr: os.Stderr}

			e2e, ok, err := b.untraced(context.Background(), w)
			if err != nil || !ok {
				t.Fatalf("untraced pass: ok=%v err=%v\n%s", ok, err, out.String())
			}
			res, raw := lastLine(t, out.String())
			checkMetrics(t, res, raw, endToEnd)
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("untraced pass not correct: %s", raw)
			}
			for _, def := range endToEnd {
				if res.Metrics[def.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", def.name, res.Metrics[def.name].Value)
				}
			}

			out.Reset()
			ok, err = b.traced(context.Background(), w, e2e["ckpt_ack_p50_ms"])
			if err != nil || !ok {
				t.Fatalf("traced pass: ok=%v err=%v\n%s", ok, err, out.String())
			}
			res, raw = lastLine(t, out.String())
			checkMetrics(t, res, raw, perLayer)
			if !*res.Correct || *res.Failed != 0 {
				t.Errorf("traced pass not correct: %s", raw)
			}
			if _, err := os.Stat(filepath.Join(b.out, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace written: %v", err)
			}
		})
	}
}

// A byte flipped in one stored checkpoint file must fail verification: the
// ring restores around it from another replica, but the scrub cannot.
func TestFlippedByteFailsVerification(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			b := &bench{seed: 1, out: t.TempDir(), stdout: &out, stderr: os.Stderr}
			b.corrupt = func(disks map[string]*memFS) error {
				disk := disks[peerName(0)]
				disk.mu.Lock()
				defer disk.mu.Unlock()
				for name, data := range disk.files {
					if strings.HasSuffix(name, ".aic") {
						damaged := append([]byte(nil), data...)
						damaged[len(damaged)/2] ^= 0x08
						disk.files[name] = damaged
						return nil
					}
				}
				return fmt.Errorf("no checkpoint file to damage on %s", peerName(0))
			}
			_, ok, err := b.untraced(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			res, raw := lastLine(t, out.String())
			if ok || *res.Correct || *res.Failed == 0 {
				t.Errorf("damaged store passed verification: %s", raw)
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"stray"}} {
		if code := run(context.Background(), args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestScaledKeepsPopulations(t *testing.T) {
	for _, w := range workloads {
		half, twice := w.scaled(refSeconds/2), w.scaled(2*refSeconds)
		if w.scaled(refSeconds) != w {
			t.Errorf("%s: scaling to the reference length changed the workload", w.name)
		}
		if half.cycles < 1 || twice.cycles != 2*w.cycles || twice.restores != 2*w.restores {
			t.Errorf("%s: cycles %d→%d/%d, restores %d→%d/%d", w.name, w.cycles, half.cycles, twice.cycles, w.restores, half.restores, twice.restores)
		}
		half.cycles, half.restores = w.cycles, w.restores
		if half != w {
			t.Errorf("%s: scaling changed more than cycle and restore counts", w.name)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in spec.go are what the
// program emits. They must say the same.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds != refSeconds {
		t.Errorf("paths %v run_seconds %d, want [bench] %d", spec.Paths, spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, want %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s[%d] is %+v, want %+v", kind, i, g, def)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != def.bound) {
				t.Errorf("%s[%d] %s: bound %v, want %v (present=%v)", kind, i, g.Name, g.Bound, def.bound, bounded)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
