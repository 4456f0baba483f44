// Package obs is Gem's zero-dependency metrics core: atomic counters,
// gauges and fixed-boundary histograms behind a named registry with
// Prometheus text-format exposition.
//
// Design constraints, in order:
//
//   - Allocation-light hot path. Counter.Add and Histogram.Observe are a
//     handful of atomic operations — no maps, no locks, no allocation —
//     so instrumentation can sit on the serve layer's request path
//     without showing up in its latency percentiles.
//   - Determinism-neutral by construction. Metrics are write-only from
//     the instrumented code's point of view: nothing in this package
//     feeds back into request handling, so responses are byte-identical
//     with metrics on or off. The serve determinism suite pins that.
//   - Nil-safe off switch. Every method is a no-op on a nil receiver and
//     a nil *Registry hands out nil instruments, so callers wire
//     instrumentation unconditionally and disable it by not building a
//     registry — no flag checks at the call sites.
//
// Exposition is deterministic: families sort by name, series sort by
// label signature, and floats render in Go 'g' format, so golden tests
// can assert exact output and scrapes diff cleanly.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are the constant label set of one series. Instruments are
// registered per label combination; the hot path never touches a label
// map.
type Labels map[string]string

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v when v exceeds its current value: a
// high-water mark that concurrent callers cannot lower.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-boundary buckets
// (Prometheus le semantics: bucket i counts v <= bounds[i], inclusive),
// with an implicit +Inf overflow bucket, plus a running sum. Boundaries
// are frozen at registration; Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Upper bound search: first boundary >= v. Values exactly on a
	// boundary land in that boundary's bucket (le is inclusive).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations the
// way Prometheus' histogram_quantile does: it finds the bucket holding
// rank q·count and interpolates linearly between that bucket's lower bound
// (0 for the first bucket) and its upper bound. A rank in the +Inf bucket
// reports the highest finite bound; an empty (or nil) histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	cum := make([]int64, len(h.counts))
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
		cum[i] = n
	}
	if n == 0 {
		return 0
	}
	rank := math.Max(0, math.Min(1, q)) * float64(n)
	// The first non-empty bucket whose cumulative count reaches the rank.
	b := sort.Search(len(cum), func(i int) bool { return cum[i] > 0 && float64(cum[i]) >= rank })
	if b == len(h.bounds) {
		return h.bounds[b-1]
	}
	lo, below := 0.0, int64(0)
	if b > 0 {
		lo, below = h.bounds[b-1], cum[b-1]
	}
	return lo + (h.bounds[b]-lo)*(rank-float64(below))/float64(cum[b]-below)
}

// ExpBuckets returns n exponentially growing upper boundaries starting at
// start: start, start·factor, start·factor², … — the standard latency
// histogram shape. start must be positive and factor > 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefBuckets are the default latency boundaries in seconds: 100µs to
// ~3.3s in ×2 steps — wide enough for a cache hit and a cold sharded
// search to land in distinct buckets.
func DefBuckets() []float64 { return ExpBuckets(100e-6, 2, 16) }

// metricKind tags a registered family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered (name, labels) instrument.
type series struct {
	labels string // rendered {k="v",...} signature, "" for none
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	order  []string // label signatures in sorted order, maintained on insert
}

// Registry is a named collection of instruments. All methods are safe for
// concurrent use; registration takes a lock, instruments do not. A nil
// *Registry hands out nil instruments (whose methods no-op), which is the
// metrics-disabled mode.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fam: make(map[string]*family)}
}

// lookup finds or creates the (name, labels) series, enforcing that one
// name keeps one kind and one help string.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels) *series {
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fam[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fam[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sig}
		f.series[sig] = s
		i := sort.SearchStrings(f.order, sig)
		f.order = append(f.order, "")
		copy(f.order[i+1:], f.order[i:])
		f.order[i] = sig
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. Repeated calls with the same coordinates return the same instance.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindCounter, labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — for values that already live elsewhere (cache sizes, live column
// counts) and would otherwise need write-through shadowing. fn must be
// safe to call concurrently with anything.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	s := r.lookup(name, help, kindGaugeFunc, labels)
	s.fn = fn
}

// Histogram returns the histogram for (name, labels) with the given upper
// boundaries (ascending; an implicit +Inf bucket is appended), creating
// it on first use. Later calls with the same coordinates return the first
// instance; their bounds argument is ignored.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindHistogram, labels)
	if s.hist == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
			}
		}
		s.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return s.hist
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// by label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// The registry lock is held across the whole render: registration is
	// rare and cheap, instrument updates never take this lock, and holding
	// it keeps family.order immutable while it is iterated. GaugeFunc
	// callbacks therefore must not register metrics (they read foreign
	// state, they don't create it).
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fam))
	for name := range r.fam {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fam[name]
	}

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, sig := range f.order {
			s := f.series[sig]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, sig, s.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, sig, fmtFloat(s.gauge.Value()))
			case kindGaugeFunc:
				v := 0.0
				if s.fn != nil {
					v = s.fn()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, sig, fmtFloat(v))
			case kindHistogram:
				h := s.hist
				var cum int64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLE(sig, fmtFloat(bound)), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLE(sig, "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, sig, fmtFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, sig, cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as GET /metrics content
// (text/plain; version=0.0.4).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// fmtFloat renders a float the shortest way that round-trips.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders a deterministic {k="v",...} signature (empty
// string for no labels), escaping backslashes, quotes and newlines per
// the exposition format.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLE splices the le label into an existing signature, keeping the
// histogram's constant labels.
func withLE(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return sig[:len(sig)-1] + `,le="` + le + `"}`
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// BuildInfo reports the running binary's identity from
// debug.ReadBuildInfo: the Go toolchain version, the main module version,
// and the VCS revision when the build recorded one ("unknown" where the
// build info is absent, e.g. plain `go test` binaries).
func BuildInfo() (goVersion, modVersion, revision string) {
	goVersion, modVersion, revision = runtime.Version(), "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" {
		modVersion = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return
}
