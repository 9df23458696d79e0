// Package metrics is a small, dependency-free metrics registry for the
// checkpoint stack: counters, gauges and fixed-bucket histograms with
// Prometheus text exposition. It exists so the hot layers (FSStore group
// commits, the replication client/server, the quorum fan-out, the facade)
// can be observed in production and closed-loop controlled by
// internal/control without importing anything outside the standard library.
//
// Design points, chosen for this codebase's invariants:
//
//   - Instruments are nil-safe: every method on a nil *Counter, *Gauge or
//     *Histogram is a no-op, so instrumented hot paths pay one predictable
//     branch when metrics are disabled instead of growing conditional
//     plumbing.
//   - Histogram bucket boundaries are fixed at registration, so the text
//     exposition is byte-deterministic for a deterministic workload — the
//     property the chaos harness and the golden tests pin.
//   - Registration is get-or-create: registering the same name again with
//     the same type, help and labels returns the existing instrument
//     (several stores can share one registry), while a mismatched
//     re-registration panics — that is a programming error the metricnames
//     analyzer also catches statically.
//   - Exposition is deterministic: families sort by name, series by label
//     values, floats format with strconv 'g' shortest form.
//
// Metric names follow the project convention enforced by the metricnames
// analyzer: snake_case, aic_-prefixed, unit-suffixed (_total, _seconds,
// _bytes, ...). DESIGN.md §14 documents the stable metric surface.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind is the instrument type of one family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// DefBuckets are the default latency buckets in seconds, spanning the
// microsecond-to-seconds range the storage and network paths live in.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds a set of metric families and renders them in Prometheus
// text exposition format. The zero value is not usable; call NewRegistry.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with its labelled series.
type family struct {
	name    string
	help    string
	typ     kind
	labels  []string  // label names, fixed at registration
	buckets []float64 // histogram upper bounds, fixed at registration

	mu     sync.Mutex
	series map[string]*series // label-value key → series
}

// series is one (labelset → value) time series.
type series struct {
	labelVals []string

	// bits holds the float64 value for counters and gauges.
	bits atomic.Uint64

	// Histogram state: cumulative bucket counts (one per bound, +Inf
	// implicit via count), total count, and the observation sum.
	bucketCounts []atomic.Uint64
	count        atomic.Uint64
	sumBits      atomic.Uint64
}

func (r *Registry) register(name, help string, typ kind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.typ != typ || f.help != help || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns (creating if needed) the series for the label values.
func (f *family) get(labelVals []string) *series {
	if f == nil {
		return nil
	}
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labelVals: append([]string(nil), labelVals...)}
		if f.typ == kindHistogram {
			s.bucketCounts = make([]atomic.Uint64, len(f.buckets))
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v < 0 {
		return
	}
	addFloat(&c.s.bits, v)
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	addFloat(&g.s.bits, v)
}

// Histogram counts observations into fixed buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.s.bucketCounts[i].Add(1)
			break
		}
	}
	h.s.count.Add(1)
	addFloat(&h.s.sumBits, v)
}

// Snapshot returns a point-in-time copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil || h.s == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Bounds:  append([]float64(nil), h.f.buckets...),
		Buckets: make([]uint64, len(h.f.buckets)),
		Count:   h.s.count.Load(),
		Sum:     math.Float64frombits(h.s.sumBits.Load()),
	}
	for i := range h.s.bucketCounts {
		snap.Buckets[i] = h.s.bucketCounts[i].Load()
	}
	return snap
}

// HistogramSnapshot is a consistent-enough copy of one histogram series:
// per-bucket (non-cumulative) counts aligned with Bounds, the total
// observation count (including values above the last bound) and their sum.
type HistogramSnapshot struct {
	Bounds  []float64
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// Sub returns the windowed difference cur − prev (observations recorded
// between the two snapshots). Counters only grow, so a negative difference
// means the snapshots are unrelated; Sub clamps at zero.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds:  append([]float64(nil), s.Bounds...),
		Buckets: make([]uint64, len(s.Buckets)),
		Count:   s.Count,
		Sum:     s.Sum - prev.Sum,
	}
	if prev.Count <= s.Count {
		out.Count = s.Count - prev.Count
	}
	for i := range s.Buckets {
		if i < len(prev.Buckets) && prev.Buckets[i] <= s.Buckets[i] {
			out.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
		} else {
			out.Buckets[i] = s.Buckets[i]
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the snapshot's
// observations by linear attribution to bucket upper bounds. Observations
// above the last bound report the last bound (the estimate saturates).
// A snapshot with no observations reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return &Counter{s: f.get(nil)}
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return &Gauge{s: f.get(nil)}
}

// Histogram registers (or finds) an unlabelled histogram with the given
// bucket upper bounds (nil selects DefBuckets). Bounds must ascend.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, checkBuckets(name, buckets))
	if f == nil {
		return nil
	}
	return &Histogram{f: f, s: f.get(nil)}
}

// CounterVec registers (or finds) a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, kindCounter, labels, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// With returns the counter for the given label values (in declaration
// order), creating the series on first use.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.get(labelVals)}
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, kindGauge, labels, nil)
	if f == nil {
		return nil
	}
	return &GaugeVec{f: f}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.f.get(labelVals)}
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family (nil buckets selects
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, kindHistogram, labels, checkBuckets(name, buckets))
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{f: v.f, s: v.f.get(labelVals)}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets must strictly ascend", name))
		}
	}
	return buckets
}

// Value returns the current value of a counter or gauge series by name and
// label values; ok is false when the family or series does not exist.
// Callers read series through this without holding instrument handles.
func (r *Registry) Value(name string, labelVals ...string) (float64, bool) {
	f := r.lookup(name)
	if f == nil || f.typ == kindHistogram {
		return 0, false
	}
	s := f.find(labelVals)
	if s == nil {
		return 0, false
	}
	return math.Float64frombits(s.bits.Load()), true
}

// HistogramSnapshot returns a snapshot of a histogram series by name and
// label values; ok is false when it does not exist.
func (r *Registry) HistogramSnapshot(name string, labelVals ...string) (HistogramSnapshot, bool) {
	f := r.lookup(name)
	if f == nil || f.typ != kindHistogram {
		return HistogramSnapshot{}, false
	}
	s := f.find(labelVals)
	if s == nil {
		return HistogramSnapshot{}, false
	}
	return (&Histogram{f: f, s: s}).Snapshot(), true
}

func (r *Registry) lookup(name string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.families[name]
}

// find returns the series for the label values without creating it.
func (f *family) find(labelVals []string) *series {
	key := strings.Join(labelVals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.series[key]
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4). Output is deterministic: families sort by name, series
// by label values.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text returns the exposition as a string (the test and chaos-transcript
// convenience form of WriteText).
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

func (f *family) writeText(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, f.series[k])
	}
	f.mu.Unlock()

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, s := range ordered {
		switch f.typ {
		case kindCounter, kindGauge:
			v := math.Float64frombits(s.bits.Load())
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, ""), formatFloat(v))
		case kindHistogram:
			// Per the format, bucket counts are cumulative and le is a label.
			var cum uint64
			for i, ub := range f.buckets {
				cum += s.bucketCounts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelVals, formatFloat(ub)), cum)
			}
			count := s.count.Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, "+Inf"), count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelVals, ""),
				formatFloat(math.Float64frombits(s.sumBits.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelVals, ""), count)
		}
	}
}

// labelString renders {k="v",...}, appending le when non-empty (histogram
// buckets); it returns "" for an empty label set.
func labelString(names, vals []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(vals[i]))
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `le=%q`, le)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// addFloat atomically adds delta to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Handler returns an http.Handler serving the text exposition — the body
// cmd/aicd mounts at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
