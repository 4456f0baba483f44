package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/obs"
)

const searchBody = `{"column":{"name":"cost","values":[10,21,34,11,50,3]},"k":2}`

// TestMetricsDeterminismNeutral is the tentpole's hard constraint: /embed
// and /search bodies are byte-identical with metrics (and the slow log) on
// vs off, at workers 1, 2 and 8, cold and cached — and so are the bodies of
// a timed compaction and of the search that follows it.
func TestMetricsDeterminismNeutral(t *testing.T) {
	var ref []byte // metrics-off, workers 1, cold /embed answer
	var refSearch, refCompact, refAfter []byte
	for _, workers := range []int{1, 2, 8} {
		for _, metricsOn := range []bool{false, true} {
			cfg := Config{Index: ann.NewFlat(ann.Cosine)}
			if metricsOn {
				cfg.Metrics = obs.NewRegistry()
				cfg.SlowThreshold = time.Nanosecond // trace + log every request
				cfg.SlowLog = log.New(&syncBuffer{}, "", 0)
			}
			ts := httpServer(t, workers, cfg)
			code, cold := post(t, ts.URL+"/embed", embedBody)
			if code != http.StatusOK {
				t.Fatalf("workers=%d metrics=%v: embed status %d: %s", workers, metricsOn, code, cold)
			}
			_, cached := post(t, ts.URL+"/embed", embedBody)
			code, search := post(t, ts.URL+"/search", searchBody)
			if code != http.StatusOK {
				t.Fatalf("workers=%d metrics=%v: search status %d: %s", workers, metricsOn, code, search)
			}
			resp := do(t, http.MethodDelete, ts.URL+"/columns/price", "")
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("workers=%d metrics=%v: remove status %d", workers, metricsOn, resp.StatusCode)
			}
			code, compact := post(t, ts.URL+"/columns/compact", "")
			if code != http.StatusOK {
				t.Fatalf("workers=%d metrics=%v: compact status %d: %s", workers, metricsOn, code, compact)
			}
			_, after := post(t, ts.URL+"/search", searchBody)
			if ref == nil {
				ref, refSearch, refCompact, refAfter = cold, search, compact, after
				continue
			}
			if !bytes.Equal(refCompact, compact) {
				t.Errorf("workers=%d metrics=%v: /columns/compact body differs from reference", workers, metricsOn)
			}
			if !bytes.Equal(refAfter, after) {
				t.Errorf("workers=%d metrics=%v: /search body after compaction differs from reference:\n%s\n%s", workers, metricsOn, refAfter, after)
			}
			if !bytes.Equal(ref, cold) || !bytes.Equal(ref, cached) {
				t.Errorf("workers=%d metrics=%v: /embed body differs from reference", workers, metricsOn)
			}
			if !bytes.Equal(refSearch, search) {
				t.Errorf("workers=%d metrics=%v: /search body differs from reference:\n%s\n%s", workers, metricsOn, refSearch, search)
			}
		}
	}
}

// metricValue extracts the value of the first exposition line whose series
// name+labels start with prefix.
func metricValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no series with prefix %q in exposition:\n%s", prefix, exposition)
	return 0
}

// TestMetricsExposition drives traffic through a 2-shard server and pins
// the acceptance series: per-endpoint counters and latency histograms,
// cache hits/misses, stage timings, and per-shard search fan-out timings.
func TestMetricsExposition(t *testing.T) {
	cfg := Config{Metrics: obs.NewRegistry()}
	s, closeAll := newShardedServer(t, t.TempDir(), 2, 2, cfg)
	defer closeAll()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Enroll enough columns that both shards own some, then embed (one
	// miss + one hit) and search.
	var cols []string
	for i := 0; i < 8; i++ {
		cols = append(cols, fmt.Sprintf(`{"name":"c%d","values":[%d,%d,%d]}`, i, i+1, 2*i+3, 7*i+5))
	}
	if code, body := post(t, ts.URL+"/columns", `{"columns":[`+strings.Join(cols, ",")+`]}`); code != http.StatusOK {
		t.Fatalf("add columns: status %d: %s", code, body)
	}
	post(t, ts.URL+"/embed", embedBody)
	post(t, ts.URL+"/embed", embedBody)
	post(t, ts.URL+"/embed", `{"columns":[{"name":"levels","values":[1,1,1,2,2,3]}]}`)
	if code, body := post(t, ts.URL+"/search", searchBody); code != http.StatusOK {
		t.Fatalf("search: status %d: %s", code, body)
	}
	if code, body := post(t, ts.URL+"/columns/compact", ""); code != http.StatusOK {
		t.Fatalf("compact: status %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp := string(raw)

	for prefix, min := range map[string]float64{
		`gem_http_requests_total{endpoint="/embed"}`:          3,
		`gem_http_requests_total{endpoint="/search"}`:         1,
		`gem_http_requests_total{endpoint="/columns"}`:        1,
		`gem_http_request_seconds_count{endpoint="/embed"}`:   3,
		`gem_cache_hits_total`:                                1,
		`gem_cache_misses_total`:                              1,
		`gem_batches_total`:                                   1,
		`gem_embed_stage_seconds_count{stage="cache_lookup"}`: 1,
		`gem_embed_stage_seconds_count{stage="signatures"}`:   1,
		`gem_embed_stage_seconds_count{stage="batch_wait"}`:   1,
		`gem_search_stage_seconds_count{stage="embed"}`:       1,
		`gem_search_stage_seconds_count{stage="scatter"}`:     1,
		`gem_search_stage_seconds_count{stage="merge"}`:       1,
		`gem_search_shard_seconds_count{shard="0"}`:           1,
		`gem_search_shard_seconds_count{shard="1"}`:           1,
		`gem_index_lock_wait_seconds_count`:                   1,
		`gem_catalog_live_columns`:                            8,
		`gem_catalog_compact_seconds_count`:                   1,
		`gem_catalog_replay_seconds`:                          0,
		`gem_uptime_seconds`:                                  0,
		`gem_build_info`:                                      1,
	} {
		if got := metricValue(t, exp, prefix); got < min {
			t.Errorf("%s = %v, want >= %v", prefix, got, min)
		}
	}
	// The miss path counts what it was handed and what its signatures
	// evaluated: 8 × 3 added values, 12 embedded, 6 searched — all distinct
	// within their columns — and the six-value, three-level column; the
	// cached re-embed counts nothing.
	values := metricValue(t, exp, "gem_embed_values_total")
	distinct := metricValue(t, exp, "gem_embed_distinct_values_total")
	if values != 48 || distinct != 45 {
		t.Errorf("gem_embed_values_total = %v, gem_embed_distinct_values_total = %v, want 48 and 45", values, distinct)
	}
	// A histogram family must expose cumulative buckets ending in +Inf.
	if !strings.Contains(exp, `gem_http_request_seconds_bucket{endpoint="/embed",le="+Inf"}`) {
		t.Error("missing +Inf bucket for the /embed latency histogram")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestLog pins the slow-log record shape: one line per slow
// request with a request id, the endpoint, the status, and a stage
// breakdown — and nothing about it in the response body.
func TestSlowRequestLog(t *testing.T) {
	buf := &syncBuffer{}
	s := newTestServer(t, 1, Config{
		Index:         ann.NewFlat(ann.Cosine),
		SlowThreshold: time.Nanosecond, // everything is slow
		SlowLog:       log.New(buf, "", 0),
	})
	h := s.Handler()

	// Direct ServeHTTP keeps the log write synchronous with the assertion.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/embed", strings.NewReader(embedBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("embed status %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "id=") {
		t.Error("response body leaked a request id")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(searchBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
	}

	got := buf.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d lines, want 2:\n%s", len(lines), got)
	}
	embedLine := regexp.MustCompile(`^slow request id=1 endpoint=/embed method=POST status=200 total_ms=\d+\.\d{3} stages=\[cache_lookup=\d+\.\d{3}ms batch_wait=\d+\.\d{3}ms signatures=\d+\.\d{3}ms index_add=\d+\.\d{3}ms\]$`)
	if !embedLine.MatchString(lines[0]) {
		t.Errorf("embed slow-log line does not match the pinned format:\n%s", lines[0])
	}
	for _, want := range []string{"slow request id=2 endpoint=/search", "embed=", "scatter=", "merge="} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("search slow-log line missing %q:\n%s", want, lines[1])
		}
	}
}

// TestMetricsDisabled pins the off switch: without a registry /metrics is
// a JSON 404 and serving works untouched.
func TestMetricsDisabled(t *testing.T) {
	ts := httpServer(t, 1, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without a registry: status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics 404 Content-Type = %q, want application/json", ct)
	}
	if code, _ := post(t, ts.URL+"/embed", embedBody); code != http.StatusOK {
		t.Errorf("embed with metrics off: status %d", code)
	}
}

// TestStatsMatchMetrics pins the one-instrument-set contract: after embeds
// (cold and cached), a search, adds, removes, a compaction and a dead-store
// failure on a metrics-on sharded server, every /stats counter equals the
// /metrics series it is read from.
func TestStatsMatchMetrics(t *testing.T) {
	cfg := Config{Metrics: obs.NewRegistry()}
	s, closeAll := newShardedServer(t, t.TempDir(), 2, 2, cfg)
	defer closeAll()
	h := s.Handler()

	ds := testCatalog()
	var cols []string
	for _, c := range ds.Columns[:8] {
		cols = append(cols, colJSON(c))
	}
	mustOK := func(method, path, body string) {
		t.Helper()
		if code, resp := doReq(t, h, method, path, body); code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, code, resp)
		}
	}
	mustOK("POST", "/columns", `{"columns":[`+strings.Join(cols, ",")+`]}`)
	mustOK("POST", "/embed", embedBody)
	mustOK("POST", "/embed", embedBody)
	mustOK("POST", "/search", searchBody)
	mustOK("DELETE", "/columns/"+ds.Columns[1].Name, "")
	mustOK("POST", "/columns/compact", "")
	mustOK("DELETE", "/columns/"+ds.Columns[2].Name, "")
	// Kill every shard store under the server: the next add and remove
	// fail and count as store errors.
	for i := 0; i < s.cat.Shards(); i++ {
		if err := s.cat.Store(i).Close(); err != nil {
			t.Fatal(err)
		}
	}
	if code, _ := doReq(t, h, "POST", "/columns", `{"columns":[`+colJSON(ds.Columns[9])+`]}`); code == http.StatusOK {
		t.Fatal("add with dead stores succeeded")
	}
	if code, _ := doReq(t, h, "DELETE", "/columns/"+ds.Columns[3].Name, ""); code == http.StatusOK {
		t.Fatal("remove with dead stores succeeded")
	}

	code, body := doReq(t, h, "GET", "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("/stats: status %d: %s", code, body)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	code, raw := doReq(t, h, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	exp := string(raw)
	for _, c := range []struct {
		field  string
		stats  float64
		series string
	}{
		{"hits", float64(st.Hits), "gem_cache_hits_total"},
		{"misses", float64(st.Misses), "gem_cache_misses_total"},
		{"batches", float64(st.Batches), "gem_batches_total"},
		{"max_batch", float64(st.MaxBatch), "gem_batch_max_columns"},
		{"requests", float64(st.Requests), "gem_embed_seconds_count"},
		{"columns", float64(st.Columns), "gem_embed_columns_total"},
		{"errors", float64(st.Errors), "gem_embed_errors_total"},
		{"index_errors", float64(st.IndexErrors), "gem_index_errors_total"},
		{"removes", float64(st.Removes), "gem_catalog_removes_total"},
		{"compactions", float64(st.Compactions), "gem_catalog_compactions_total"},
		{"store_errors", float64(st.StoreErrors), "gem_store_errors_total"},
		{"cache_entries", float64(st.CacheEntries), "gem_cache_entries"},
		{"index_size", float64(st.IndexSize), "gem_catalog_live_columns"},
		{"index_tombstones", float64(st.IndexTombstones), "gem_catalog_tombstones"},
	} {
		if got := metricValue(t, exp, c.series+" "); got != c.stats {
			t.Errorf("/stats %s = %v, /metrics %s = %v", c.field, c.stats, c.series, got)
		}
	}
	batchCols := metricValue(t, exp, "gem_batch_columns_total ")
	if want := batchCols / metricValue(t, exp, "gem_batches_total "); st.MeanBatch != want {
		t.Errorf("/stats mean_batch = %v, /metrics batch columns / batches = %v", st.MeanBatch, want)
	}
	// The traffic above reached every counter it should have; the failed
	// add still embedded its column before the store refused it.
	if st.Hits == 0 || st.Removes != 2 || st.Compactions != 1 || st.StoreErrors == 0 || st.Requests != 5 {
		t.Errorf("traffic did not land: %+v", st)
	}
}

// TestStatsLatencyPercentilesBucketed feeds the embed latency histogram a
// known sample and checks that each /stats percentile lands in the bucket
// that holds the true order statistic — the resolution the histogram
// promises.
func TestStatsLatencyPercentilesBucketed(t *testing.T) {
	s := newTestServer(t, 1, Config{})
	rng := rand.New(rand.NewSource(1))
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 2e-6 * math.Pow(25000, rng.Float64()) // 2 µs .. 50 ms, log-uniform
		s.met.embedSeconds.Observe(lat[i])
	}
	sort.Float64s(lat)
	st := s.Stats()
	if st.Requests != int64(len(lat)) {
		t.Fatalf("requests = %d, want %d", st.Requests, len(lat))
	}
	bounds := embedBuckets()
	for _, p := range []struct {
		name  string
		q, ms float64
	}{{"p50", 0.50, st.LatencyP50Ms}, {"p90", 0.90, st.LatencyP90Ms}, {"p99", 0.99, st.LatencyP99Ms}} {
		// The order statistic at rank q·n and the bucket holding it.
		v := lat[int(math.Ceil(p.q*float64(len(lat))))-1]
		b := sort.SearchFloat64s(bounds, v)
		lo := 0.0
		if b > 0 {
			lo = bounds[b-1]
		}
		if got := p.ms / 1000; got < lo*(1-1e-9) || got > bounds[b]*(1+1e-9) {
			t.Errorf("%s = %v s, outside the bucket (%v, %v] that holds the order statistic %v", p.name, got, lo, bounds[b], v)
		}
	}
}

// TestHTTPRequestZeroAlloc: recording a successful request reads
// pre-registered series — no label map, no registry lock, no allocation.
func TestHTTPRequestZeroAlloc(t *testing.T) {
	m := newHTTPMetrics(obs.NewRegistry())
	if allocs := testing.AllocsPerRun(1000, func() { m.request("/search", http.StatusOK, 1e-3) }); allocs != 0 {
		t.Errorf("httpMetrics.request: %v allocs per request, want 0", allocs)
	}
}
