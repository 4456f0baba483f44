package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help", nil)
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters only go up; negative adds are dropped
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "help", nil); again != c {
		t.Fatal("re-registration returned a different counter instance")
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "", nil)
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// TestHistogramBoundaryEdges pins the le-inclusive bucket contract:
// a value exactly on a boundary lands in that boundary's bucket, values
// above every boundary land in +Inf, and the cumulative counts add up.
func TestHistogramBoundaryEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", nil, []float64{1, 2, 4})
	for _, v := range []float64{
		0.5, // below the first bound -> bucket le=1
		1,   // exactly on a boundary -> bucket le=1 (inclusive)
		2,   // exactly on a boundary -> bucket le=2
		3,   // between bounds -> bucket le=4
		4,   // top boundary -> bucket le=4
		5,   // above every bound -> +Inf overflow
		math.Inf(1),
	} {
		h.Observe(v)
	}
	want := []int64{2, 1, 2, 2} // per-bucket (non-cumulative) counts
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 7 {
		t.Errorf("total count = %d, want 7", got)
	}
	if got := h.Sum(); !math.IsInf(got, 1) {
		t.Errorf("sum = %v, want +Inf (an Inf observation was recorded)", got)
	}
}

func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", nil, []float64{1})
	h.Observe(0.25)
	h.Observe(0.5)
	if got := h.Sum(); got != 0.75 {
		t.Errorf("sum = %v, want 0.75", got)
	}
}

// TestHistogramQuantile pins the histogram_quantile estimate on a
// hand-built histogram: find the bucket holding rank q·count, interpolate
// inside it from its lower bound (0 for the first bucket), and report the
// highest finite bound for a rank in +Inf.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", nil, []float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram: Quantile(0.5) = %v, want 0", got)
	}
	// Per-bucket counts 2, 4, 2, 1, +Inf 1; cumulative 2, 6, 8, 9, 10.
	for _, v := range []float64{0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 3, 3, 6, 100} {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 0},        // first non-empty bucket's lower bound
		{0.1, 0.5},    // rank 1 of 2 in (0, 1]
		{0.5, 1.75},   // rank 5: 3 of 4 into (1, 2]
		{0.8, 4},      // rank 8: the top of (2, 4]
		{0.9, 8},      // rank 9: the single observation in (4, 8]
		{0.95, 8},     // rank 9.5 is in +Inf: the highest finite bound
		{1, 8},        // so is the maximum
		{0.99, 8},     // and p99
		{0.25, 1.125}, // rank 2.5: 0.5 of 4 into (1, 2]
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	one := r.Histogram("one", "", nil, []float64{1, 2, 4, 8})
	one.Observe(3)
	for _, tc := range []struct{ q, want float64 }{{0.5, 3}, {0.9, 3.8}, {0.99, 3.98}} {
		if got := one.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("single observation: Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	inf := r.Histogram("inf", "", nil, []float64{1, 2})
	inf.Observe(50)
	if got := inf.Quantile(0.5); got != 2 {
		t.Errorf("+Inf only: Quantile(0.5) = %v, want 2", got)
	}

	var nilHist *Histogram
	if got := nilHist.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram: Quantile(0.5) = %v, want 0", got)
	}
}

// TestGaugeSetMaxConcurrent: racing SetMax calls (run under -race) leave
// the largest value, and a smaller value never lowers the mark.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("g", "", nil)
	const workers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.SetMax(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*per-1); got != want {
		t.Fatalf("SetMax high-water mark = %v, want %v", got, want)
	}
	g.SetMax(3)
	if got := g.Value(); got != workers*per-1 {
		t.Fatalf("a smaller SetMax lowered the gauge to %v", got)
	}
	var nilGauge *Gauge
	nilGauge.SetMax(1)
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0,2,3) did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

// TestConcurrentUpdates hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the lock-free-safety
// check, and the final values pin that no update was lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h", "", nil, ExpBuckets(0.001, 2, 10))
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 0.001)
				// Concurrent registration of the same coordinates must
				// stay idempotent too.
				if r.Counter("c_total", "", nil) != c {
					t.Error("concurrent re-registration returned a new instance")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestExpositionGolden pins the exact exposition bytes: family and series
// order, label rendering, cumulative histogram buckets, +Inf, sum/count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.", Labels{"endpoint": "/embed"}).Add(3)
	r.Counter("app_requests_total", "Requests served.", Labels{"endpoint": "/search"}).Add(1)
	r.Gauge("app_temperature", "", nil).Set(36.6)
	r.GaugeFunc("app_live", "Live entries.", nil, func() float64 { return 7 })
	h := r.Histogram("app_latency_seconds", "Request latency.", Labels{"endpoint": "/embed"}, []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.01) // boundary: lands in le="0.01"
	h.Observe(0.05)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{endpoint="/embed",le="0.01"} 2
app_latency_seconds_bucket{endpoint="/embed",le="0.1"} 3
app_latency_seconds_bucket{endpoint="/embed",le="+Inf"} 4
app_latency_seconds_sum{endpoint="/embed"} 3.065
app_latency_seconds_count{endpoint="/embed"} 4
# HELP app_live Live entries.
# TYPE app_live gauge
app_live 7
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{endpoint="/embed"} 3
app_requests_total{endpoint="/search"} 1
# TYPE app_temperature gauge
app_temperature 36.6
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", Labels{"path": "a\\b\"c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `c_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition %q does not contain %q", b.String(), want)
	}
}

// TestNilSafety pins the off switch: a nil registry hands out nil
// instruments and every operation no-ops without panicking.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "", nil)
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("g", "", nil)
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := r.Histogram("h", "", nil, []float64{1})
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded an observation")
	}
	r.GaugeFunc("f", "", nil, func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestBuildInfo(t *testing.T) {
	goVersion, modVersion, revision := BuildInfo()
	if goVersion == "" || modVersion == "" || revision == "" {
		t.Errorf("BuildInfo returned empties: %q %q %q", goVersion, modVersion, revision)
	}
	if !strings.HasPrefix(goVersion, "go") {
		t.Errorf("go version = %q", goVersion)
	}
}
