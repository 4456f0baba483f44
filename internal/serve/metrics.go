package serve

// Metrics and request tracing for the HTTP layer. Everything here is
// observational: instruments are obs package atomics (nil-safe no-ops on a
// proxy without metrics), span timings live in the request context and surface
// only through /metrics and the slow-request log — never in a response
// body, which is what keeps /embed and /search byte-identical with
// instrumentation on or off.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gem-embeddings/gem/internal/obs"
)

// serveMetrics bundles the server's instruments. They are always live —
// on Config.Metrics, or on a private registry when that is nil — because
// /stats reads its counters and latency percentiles from them: one
// instrument per event, whichever endpoint reports it.
type serveMetrics struct {
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	batches     *obs.Counter
	batchCols   *obs.Counter
	batchMax    *obs.Gauge
	embedErrors *obs.Counter
	// embedSeconds times each successful embed call: its count is the
	// /stats request total, its quantiles the latency percentiles.
	embedSeconds *obs.Histogram
	embedColumns *obs.Counter
	indexErrors  *obs.Counter
	removes      *obs.Counter
	compactions  *obs.Counter
	storeErrors  *obs.Counter
	// embedValues / embedDistinct: what missed columns held and what their
	// signatures cost (a signature evaluates each distinct value once).
	embedValues   *obs.Counter
	embedDistinct *obs.Counter

	stageCacheLookup *obs.Histogram
	stageBatchWait   *obs.Histogram
	stageSignatures  *obs.Histogram
	stageIndexAdd    *obs.Histogram

	stageSearchEmbed *obs.Histogram
	stageScatter     *obs.Histogram
	stageMerge       *obs.Histogram

	searchBatchSize *obs.Histogram
	// lockWait: how long a search waited for the shared index lock — zero
	// unless a catalog mutation (above all a compaction's rebuild) held it.
	lockWait *obs.Histogram

	compactSeconds *obs.Histogram
	replaySeconds  *obs.Gauge
}

// batchSizeBuckets covers the queries-per-request histogram: powers of two
// from single-query requests up past the largest sensible client batch.
func batchSizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// embedBuckets covers one embed call: 1 µs to ≈ 8 s in ×2 steps. A cache
// hit is µs-scale, below DefBuckets' 100 µs floor.
func embedBuckets() []float64 { return obs.ExpBuckets(1e-6, 2, 24) }

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("gem_embed_stage_seconds",
			"Wall-clock of one embed hot-path stage.",
			obs.Labels{"stage": name}, obs.DefBuckets())
	}
	searchStage := func(name string) *obs.Histogram {
		return reg.Histogram("gem_search_stage_seconds",
			"Wall-clock of one search hot-path stage.",
			obs.Labels{"stage": name}, obs.DefBuckets())
	}
	return &serveMetrics{
		cacheHits:   reg.Counter("gem_cache_hits_total", "Embedding cache hits.", nil),
		cacheMisses: reg.Counter("gem_cache_misses_total", "Embedding cache misses.", nil),
		batches:     reg.Counter("gem_batches_total", "Coalesced signature batches processed.", nil),
		batchCols:   reg.Counter("gem_batch_columns_total", "Distinct columns embedded across batches.", nil),
		batchMax:    reg.Gauge("gem_batch_max_columns", "Distinct columns in the widest coalesced batch so far.", nil),
		embedErrors: reg.Counter("gem_embed_errors_total", "Columns that failed to embed.", nil),
		embedSeconds: reg.Histogram("gem_embed_seconds",
			"Wall-clock of one successful embed call (an /embed, a /search's query embedding, a /columns add), cache hits included.",
			nil, embedBuckets()),
		embedColumns:     reg.Counter("gem_embed_columns_total", "Columns answered by successful embed calls, cached or not.", nil),
		indexErrors:      reg.Counter("gem_index_errors_total", "Fresh embeddings the warm index failed to take.", nil),
		removes:          reg.Counter("gem_catalog_removes_total", "Columns removed from the catalog.", nil),
		compactions:      reg.Counter("gem_catalog_compactions_total", "Successful catalog compactions.", nil),
		storeErrors:      reg.Counter("gem_store_errors_total", "Catalog store failures (journal appends, compactions, store/index divergence).", nil),
		embedValues:      reg.Counter("gem_embed_values_total", "Values of the columns embedded on cache misses.", nil),
		embedDistinct:    reg.Counter("gem_embed_distinct_values_total", "Distinct values of the columns embedded on cache misses: the mixture kernel runs once per distinct value, so this over gem_embed_values_total is the share of the per-value cost paid.", nil),
		stageCacheLookup: stage("cache_lookup"),
		stageBatchWait:   stage("batch_wait"),
		stageSignatures:  stage("signatures"),
		stageIndexAdd:    stage("index_add"),
		stageSearchEmbed: searchStage("embed"),
		stageScatter:     searchStage("scatter"),
		stageMerge:       searchStage("merge"),
		searchBatchSize: reg.Histogram("gem_search_batch_size",
			"Queries answered per /search request.", nil, batchSizeBuckets()),
		lockWait: reg.Histogram("gem_index_lock_wait_seconds",
			"How long a search waited for the shared index lock, i.e. the reader stall behind a catalog mutation or compaction holding it exclusively.",
			nil, obs.DefBuckets()),
		compactSeconds: reg.Histogram("gem_catalog_compact_seconds",
			"Wall-clock of one catalog compaction (store fold + index rebuild), spent under the index write lock.",
			nil, obs.DefBuckets()),
		replaySeconds: reg.Gauge("gem_catalog_replay_seconds",
			"Wall-clock of the startup replay of the catalog stores into the indexes.", nil),
	}
}

// httpMetrics are the per-endpoint HTTP instruments the server and the
// proxy share. The series of every endpointLabel value are registered up
// front, so a request costs two map reads and a few atomic updates; the
// error counter stays lazy, since its label space (endpoint × code) is
// driven by traffic and it fires only on responses of 400 and up. A nil
// registry no-ops.
type httpMetrics struct {
	reg      *obs.Registry
	requests map[string]*obs.Counter
	seconds  map[string]*obs.Histogram
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	m := &httpMetrics{reg: reg, requests: map[string]*obs.Counter{}, seconds: map[string]*obs.Histogram{}}
	for _, e := range endpointLabels {
		l := obs.Labels{"endpoint": e}
		m.requests[e] = reg.Counter("gem_http_requests_total", "HTTP requests by endpoint.", l)
		m.seconds[e] = reg.Histogram("gem_http_request_seconds", "HTTP request latency by endpoint.", l, obs.DefBuckets())
	}
	return m
}

// request records one finished HTTP request.
func (m *httpMetrics) request(endpoint string, code int, seconds float64) {
	m.requests[endpoint].Inc()
	m.seconds[endpoint].Observe(seconds)
	if code >= 400 {
		m.reg.Counter("gem_http_errors_total", "HTTP error responses by endpoint and status code.",
			obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)}).Inc()
	}
}

// registerMetrics installs the registry-resident series that need server
// state: uptime, build identity, cache and catalog gauges, and the
// per-shard search observer. Called once from New.
func (s *Server) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	goVersion, modVersion, revision := obs.BuildInfo()
	reg.Gauge("gem_build_info", "Build identity; value is always 1.",
		obs.Labels{"go_version": goVersion, "version": modVersion, "revision": revision}).Set(1)
	reg.GaugeFunc("gem_uptime_seconds", "Seconds since the server started.", nil,
		//lint:gemallow detnondet uptime gauge is scrape-only telemetry
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("gem_cache_entries", "Live embedding cache entries.", nil,
		func() float64 { return float64(s.cache.len()) })
	if s.cat == nil {
		return
	}
	reg.GaugeFunc("gem_catalog_live_columns", "Live indexed columns.", nil,
		func() float64 { live, _ := s.indexShape(); return float64(live) })
	reg.GaugeFunc("gem_catalog_tombstones", "Removed-but-not-compacted index slots.", nil,
		func() float64 { _, tombs := s.indexShape(); return float64(tombs) })
	shardHists := make([]*obs.Histogram, s.cat.Shards())
	for i := range shardHists {
		shardHists[i] = reg.Histogram("gem_search_shard_seconds",
			"Per-shard index search latency inside the scatter phase.",
			obs.Labels{"shard": strconv.Itoa(i)}, obs.DefBuckets())
	}
	s.cat.SetSearchObserver(func(shard int, seconds float64) {
		shardHists[shard].Observe(seconds)
	})
}

// spanSet accumulates named stage durations for one request. Stages of one
// request can be recorded from the request goroutine and the dispatcher
// goroutine concurrently, hence the mutex. A nil *spanSet no-ops.
type spanSet struct {
	mu    sync.Mutex
	order []string
	durs  map[string]time.Duration
}

func (ss *spanSet) add(name string, d time.Duration) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.durs == nil {
		ss.durs = make(map[string]time.Duration, 8)
	}
	if _, seen := ss.durs[name]; !seen {
		ss.order = append(ss.order, name)
	}
	ss.durs[name] += d
}

// format renders "name=1.234ms name=0.017ms" in first-recorded order.
func (ss *spanSet) format() string {
	if ss == nil {
		return ""
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var b strings.Builder
	for i, name := range ss.order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3fms", name, ss.durs[name].Seconds()*1000)
	}
	return b.String()
}

type spanCtxKey struct{}

func withSpans(ctx context.Context, ss *spanSet) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ss)
}

// spansFrom returns the request's span collector, or nil (no-op) when the
// request was not traced.
func spansFrom(ctx context.Context) *spanSet {
	ss, _ := ctx.Value(spanCtxKey{}).(*spanSet)
	return ss
}

// endpointLabels are every value endpointLabel returns.
var endpointLabels = []string{"/embed", "/search", "/columns", "/columns/compact", "/columns/{ref}",
	"/healthz", "/stats", "/metrics", "other"}

// endpointLabel collapses a request path onto a bounded endpoint label so
// client-chosen path segments cannot explode the metric label space.
func endpointLabel(path string) string {
	switch path {
	case "/embed", "/search", "/columns", "/columns/compact", "/healthz", "/stats", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/columns/") {
		return "/columns/{ref}"
	}
	return "other"
}

// responseRecorder captures the response status for the request metrics
// and normalizes error bodies: a ≥400 response whose handler did not set a
// JSON Content-Type (the mux's own text/plain 404/405, http.Error callers)
// is buffered and rewritten as the API's standard {"error": ...} body.
type responseRecorder struct {
	http.ResponseWriter
	code        int
	wroteHeader bool
	intercept   bool
	buf         bytes.Buffer
}

// WriteHeader is part of the JSON error interception layer: non-JSON
// error responses are held back and rewritten by flush.
//
//gem:errwriter
func (r *responseRecorder) WriteHeader(code int) {
	if r.wroteHeader {
		return
	}
	r.wroteHeader = true
	r.code = code
	if code >= 400 && !strings.HasPrefix(r.Header().Get("Content-Type"), "application/json") {
		// Hold the header back: the body arrives first (buffered), then
		// flush rewrites it as JSON.
		r.intercept = true
		return
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write is part of the JSON error interception layer: intercepted error
// bodies buffer here until flush rewrites them.
//
//gem:errwriter
func (r *responseRecorder) Write(p []byte) (int, error) {
	if !r.wroteHeader {
		r.WriteHeader(http.StatusOK)
	}
	if r.intercept {
		return r.buf.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

// flush completes an intercepted error response. Must be called after the
// handler returns.
//
//gem:errwriter
func (r *responseRecorder) flush() {
	if !r.wroteHeader {
		r.code = http.StatusOK
		return
	}
	if !r.intercept {
		return
	}
	msg := strings.TrimSpace(r.buf.String())
	if msg == "" {
		msg = http.StatusText(r.code)
	}
	r.Header().Set("Content-Type", "application/json")
	r.Header().Del("Content-Length")
	r.ResponseWriter.WriteHeader(r.code)
	_ = json.NewEncoder(r.ResponseWriter).Encode(errorResponse{Error: msg})
}

// httpInstrumentor is the outermost middleware shared by the shard server
// and the proxy: per-endpoint request/error counters and latency
// histograms, JSON-normalized error bodies, and (server only) span tracing
// plus the slow-request log.
type httpInstrumentor struct {
	met           *httpMetrics
	trace         bool
	slowThreshold time.Duration
	slowLog       *log.Logger
	reqID         atomic.Int64
}

func (ins *httpInstrumentor) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := endpointLabel(r.URL.Path)
		var spans *spanSet
		if ins.trace {
			spans = &spanSet{}
			r = r.WithContext(withSpans(r.Context(), spans))
		}
		rec := &responseRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		rec.flush()
		total := time.Since(start)
		ins.met.request(endpoint, rec.code, total.Seconds())
		if ins.slowThreshold > 0 && total >= ins.slowThreshold {
			// The request id exists only in this log line — handing it to
			// the response would break the byte-identity contract.
			ins.slowLog.Printf("slow request id=%d endpoint=%s method=%s status=%d total_ms=%.3f stages=[%s]",
				ins.reqID.Add(1), endpoint, r.Method, rec.code, total.Seconds()*1000, spans.format())
		}
	})
}
