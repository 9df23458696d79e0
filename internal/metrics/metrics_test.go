package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter and one labelled counter from
// many goroutines; run under -race this doubles as the data-race proof.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aic_test_ops_total", "ops")
	vec := r.CounterVec("aic_test_labelled_ops_total", "labelled ops", "peer")
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				vec.With("a").Add(2)
			}
		}()
	}
	wg.Wait()
	if got, _ := r.Value("aic_test_ops_total"); got != workers*perWorker {
		t.Fatalf("counter = %v, want %v", got, workers*perWorker)
	}
	if got, ok := r.Value("aic_test_labelled_ops_total", "a"); !ok || got != 2*workers*perWorker {
		t.Fatalf("labelled counter = %v ok=%v, want %v", got, ok, 2*workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("aic_test_depth", "queue depth")
	g.Set(5)
	g.Add(3)
	g.Add(-1)
	if got, _ := r.Value("aic_test_depth"); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got, _ := r.Value("aic_test_depth"); got != 7 {
		t.Fatalf("gauge after balanced inc/dec = %v, want 7", got)
	}
}

// TestHistogramBucketEdges pins the boundary convention: v <= bound lands
// in the bucket, v just above falls through to the next.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aic_test_lat_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// Buckets are non-cumulative in the snapshot: le=1 gets {0.5, 1},
	// le=2 gets {1.0000001, 2}, le=4 gets {3, 4}, and {5, 100} overflow.
	want := []uint64{2, 2, 2}
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (snap %+v)", i, snap.Buckets[i], w, snap)
		}
	}
	if snap.Count != 8 {
		t.Fatalf("count = %d, want 8", snap.Count)
	}
	if want := 0.5 + 1 + 1.0000001 + 2 + 3 + 4 + 5 + 100; math.Abs(snap.Sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", snap.Sum, want)
	}
}

func TestHistogramSnapshotSubAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aic_test_q_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.0005) // le=0.001
	}
	prev := h.Snapshot()
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // le=0.1
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // le=1
	}
	win := h.Snapshot().Sub(prev)
	if win.Count != 100 {
		t.Fatalf("windowed count = %d, want 100", win.Count)
	}
	// p50 of the window sits in the 0.1 bucket, p99 in the 1 bucket; the
	// pre-window fast observations must not dilute the estimate.
	if got := win.Quantile(0.5); got != 0.1 {
		t.Fatalf("p50 = %v, want 0.1", got)
	}
	if got := win.Quantile(0.99); got != 1 {
		t.Fatalf("p99 = %v, want 1", got)
	}
	if empty := (HistogramSnapshot{}); empty.Quantile(0.99) != 0 {
		t.Fatal("empty snapshot should report zeros")
	}
}

// TestWriteTextGolden pins the exposition format byte-for-byte: family
// ordering, label ordering, cumulative buckets, +Inf, _sum/_count.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("aic_z_ops_total", "last family by name").Add(3)
	g := r.GaugeVec("aic_a_depth", "first family", "proc")
	g.With("p2").Set(2)
	g.With("p1").Set(1.5)
	h := r.HistogramVec("aic_m_lat_seconds", "mid family", []float64{0.5, 2}, "peer")
	h.With("x").Observe(0.25)
	h.With("x").Observe(0.75)
	h.With("x").Observe(9)

	const want = `# HELP aic_a_depth first family
# TYPE aic_a_depth gauge
aic_a_depth{proc="p1"} 1.5
aic_a_depth{proc="p2"} 2
# HELP aic_m_lat_seconds mid family
# TYPE aic_m_lat_seconds histogram
aic_m_lat_seconds_bucket{peer="x",le="0.5"} 1
aic_m_lat_seconds_bucket{peer="x",le="2"} 2
aic_m_lat_seconds_bucket{peer="x",le="+Inf"} 3
aic_m_lat_seconds_sum{peer="x"} 10
aic_m_lat_seconds_count{peer="x"} 3
# HELP aic_z_ops_total last family by name
# TYPE aic_z_ops_total counter
aic_z_ops_total 3
`
	if got := r.Text(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Determinism: a second render must be byte-identical.
	if again := r.Text(); again != r.Text() {
		t.Fatal("exposition not deterministic across renders")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("aic_test_nil_total", "n")
	g := r.Gauge("aic_test_nil_depth", "n")
	h := r.Histogram("aic_test_nil_seconds", "n", nil)
	cv := r.CounterVec("aic_test_nilv_total", "n", "l")
	c.Inc()
	g.Set(1)
	h.Observe(1)
	cv.With("x").Inc()
	if _, ok := r.Value("aic_test_nil_total"); ok || h.Snapshot().Count != 0 {
		t.Fatal("nil-registry instruments must be inert")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
}

func TestRegisterIdempotentAndMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("aic_test_same_total", "same")
	b := r.Counter("aic_test_same_total", "same")
	a.Inc()
	b.Inc()
	if got, _ := r.Value("aic_test_same_total"); got != 2 {
		t.Fatalf("re-registration must share state, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch on re-registration must panic")
		}
	}()
	r.Gauge("aic_test_same_total", "same")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("aic_test_esc_total", "esc", "path").With(`a\b` + "\n").Inc()
	text := r.Text()
	if !strings.Contains(text, `path="a\\b\n"`) {
		t.Fatalf("label not escaped: %q", text)
	}
}
