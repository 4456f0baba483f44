package serve

// The scatter-gather HTTP front door: a Proxy fans one /search out to N
// remote gemserve backends (one shard of the catalog each, typically on
// separate machines) and merges the per-backend top-k into one ranked
// answer. All backends must serve the same fitted model — that is what
// makes their distances comparable — and /healthz verifies it by
// comparing fingerprints.
//
// The merge is deterministic: hits order by (distance, backend, id), so
// repeated identical queries against unchanged backends return identical
// bytes no matter which backend answered first. Backend ids are local to
// their shard process; results therefore carry a "shard" field alongside
// the id, and the (shard, id) pair is the global handle.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gem-embeddings/gem/internal/obs"
)

// ProxyConfig assembles a Proxy.
type ProxyConfig struct {
	// Backends are the base URLs of the shard servers, e.g.
	// "http://10.0.0.1:8080". At least one is required.
	Backends []string
	// Client issues the fan-out requests. Default http.DefaultClient.
	Client *http.Client
	// MaxBodyBytes caps one incoming request body, as in Config. Default
	// 8 MiB; negative disables the cap.
	MaxBodyBytes int64
	// Metrics, when set, receives the proxy's own request series plus
	// per-backend fan-out latency/error/health series, exposed at
	// GET /metrics (which additionally scrapes each backend's /stats and
	// re-exports its health and latency percentiles as gauges).
	Metrics *obs.Registry
}

// Proxy merges remote shard servers behind one /search endpoint. Safe
// for concurrent use.
type Proxy struct {
	backends []string
	client   *http.Client
	maxBody  int64
	reg      *obs.Registry
	start    time.Time
}

// NewProxy validates the backend list.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("%w: a proxy needs at least one backend", ErrInput)
	}
	//lint:gemallow detnondet start stamp feeds only the uptime gauge and health body
	p := &Proxy{client: cfg.Client, maxBody: cfg.MaxBodyBytes, reg: cfg.Metrics, start: time.Now()}
	for _, b := range cfg.Backends {
		if !strings.HasPrefix(b, "http://") && !strings.HasPrefix(b, "https://") {
			return nil, fmt.Errorf("%w: backend %q is not an http(s) URL", ErrInput, b)
		}
		p.backends = append(p.backends, strings.TrimRight(b, "/"))
	}
	if p.client == nil {
		p.client = http.DefaultClient
	}
	if p.maxBody == 0 {
		p.maxBody = 8 << 20
	}
	if p.reg != nil {
		goVersion, modVersion, revision := obs.BuildInfo()
		p.reg.Gauge("gem_build_info", "Build identity; value is always 1.",
			obs.Labels{"go_version": goVersion, "version": modVersion, "revision": revision}).Set(1)
		p.reg.GaugeFunc("gem_uptime_seconds", "Seconds since the proxy started.", nil,
			func() float64 { return time.Since(p.start).Seconds() })
	}
	return p, nil
}

// ProxyHit is one merged search result: a backend-local hit tagged with
// the shard (backend position) that holds it.
type ProxyHit struct {
	Shard int `json:"shard"`
	Hit
}

type proxySearchResponse struct {
	Results []ProxyHit `json:"results"`
}

// proxyBatchSearchResponse is the batched answer: one merged entry per
// query column, in request order.
type proxyBatchSearchResponse struct {
	Results []proxyBatchEntry `json:"results"`
}

type proxyBatchEntry struct {
	Column  string     `json:"column"`
	Results []ProxyHit `json:"results"`
}

type proxyHealthResponse struct {
	Status        string  `json:"status"`
	Shards        int     `json:"shards"`
	Fingerprint   string  `json:"fingerprint"`
	IndexSize     int     `json:"index_size"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Version       string  `json:"version"`
	Revision      string  `json:"revision"`
}

type proxyStatsResponse struct {
	Shards    int     `json:"shards"`
	IndexSize int     `json:"index_size"`
	Requests  int64   `json:"requests"`
	Backends  []Stats `json:"backends"`
}

// Handler returns the proxy's HTTP API:
//
//	POST /search   same payload as a shard server; merged top-k answer
//	GET  /healthz  aggregate liveness + model-identity agreement + build info
//	GET  /stats    per-backend counters plus fleet totals
//	GET  /metrics  Prometheus exposition incl. scraped backend health/latency
//
// The instrumentation middleware wraps the mux, so mux-generated 404/405
// bodies use the API's JSON error shape and every request is counted.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", p.handleSearch)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /stats", p.handleStats)
	if p.reg != nil {
		mux.HandleFunc("GET /metrics", p.handleMetrics)
	}
	ins := &httpInstrumentor{met: newHTTPMetrics(p.reg)}
	return ins.wrap(mux)
}

// handleMetrics refreshes the re-exported backend gauges from a live
// /stats scrape of every backend, then serves the exposition. An
// unreachable backend only zeroes its up gauge — the scrape never fails
// the exposition.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var wg sync.WaitGroup
	for i := range p.backends {
		wg.Add(1)
		//lint:gemallow poolgo network fan-out blocks on I/O, not CPU; the pool budget is for compute
		go func(i int) {
			defer wg.Done()
			be := obs.Labels{"backend": strconv.Itoa(i)}
			var st Stats
			if err := p.call(r, http.MethodGet, p.backends[i]+"/stats", nil, &st); err != nil {
				p.reg.Gauge("gem_proxy_backend_up", "1 when the backend's last scrape succeeded.", be).Set(0)
				return
			}
			p.reg.Gauge("gem_proxy_backend_up", "1 when the backend's last scrape succeeded.", be).Set(1)
			p.reg.Gauge("gem_proxy_backend_index_size", "Live indexed columns on the backend.", be).Set(float64(st.IndexSize))
			p.reg.Gauge("gem_proxy_backend_requests", "Embed requests served by the backend.", be).Set(float64(st.Requests))
			p.reg.Gauge("gem_proxy_backend_uptime_seconds", "Backend uptime at last scrape.", be).Set(st.UptimeSeconds)
			p.reg.Gauge("gem_proxy_backend_latency_p50_ms", "Backend p50 embed latency at last scrape.", be).Set(st.LatencyP50Ms)
			p.reg.Gauge("gem_proxy_backend_latency_p99_ms", "Backend p99 embed latency at last scrape.", be).Set(st.LatencyP99Ms)
		}(i)
	}
	wg.Wait()
	p.reg.Handler().ServeHTTP(w, r)
}

// timedCall is call plus per-backend fan-out instrumentation: latency
// histogram, error counter, and an up gauge flipped by the outcome.
func (p *Proxy) timedCall(r *http.Request, i int, method, path string, body []byte, v any) error {
	if p.reg == nil {
		return p.call(r, method, p.backends[i]+path, body, v)
	}
	be := obs.Labels{"backend": strconv.Itoa(i)}
	//lint:gemallow detnondet backend latency histogram is scrape-only telemetry
	t0 := time.Now()
	err := p.call(r, method, p.backends[i]+path, body, v)
	p.reg.Histogram("gem_proxy_backend_seconds", "Fan-out request latency by backend.", be, obs.DefBuckets()).
		Observe(time.Since(t0).Seconds()) //lint:gemallow detnondet backend latency histogram is scrape-only telemetry
	if err != nil {
		p.reg.Counter("gem_proxy_backend_errors_total", "Failed fan-out requests by backend.", be).Inc()
		p.reg.Gauge("gem_proxy_backend_up", "1 when the backend's last scrape succeeded.", be).Set(0)
	} else {
		p.reg.Gauge("gem_proxy_backend_up", "1 when the backend's last scrape succeeded.", be).Set(1)
	}
	return err
}

// rawSearchRequest is the proxy's shallow view of a /search payload:
// shape and k are inspected, but column values are never parsed — the
// original body bytes ship to the backends verbatim, so front-door cost
// does not scale with the number of values in the batch.
type rawSearchRequest struct {
	Column  json.RawMessage   `json:"column"`
	Columns []json.RawMessage `json:"columns"`
	K       int               `json:"k"`
}

// rawPresent reports whether a raw field carries a value. An absent
// field, null, or an empty object all count as unset, matching the shard
// server's view of an empty column.
func rawPresent(m json.RawMessage) bool {
	s := strings.TrimSpace(string(m))
	return s != "" && s != "null" && s != "{}"
}

func (p *Proxy) handleSearch(w http.ResponseWriter, r *http.Request) {
	body := r.Body
	if p.maxBody > 0 {
		body = http.MaxBytesReader(w, body, p.maxBody)
	}
	payload, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return
	}
	var req rawSearchRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	// Mirror the shard server's k contract at the front door: negative k
	// is a client bug rejected before it costs a fan-out, 0 means the
	// default (which the backends apply identically to the forwarded
	// payload).
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%s: k = %d", ErrInput, req.K))
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	batched := len(req.Columns) > 0
	if batched && rawPresent(req.Column) {
		writeError(w, http.StatusBadRequest, "request sets both column and columns; use one")
		return
	}
	if p.reg != nil {
		n := 1
		if batched {
			n = len(req.Columns)
		}
		p.reg.Histogram("gem_search_batch_size",
			"Queries answered per /search request.", nil, batchSizeBuckets()).Observe(float64(n))
	}
	// The whole batch ships to every backend in ONE request per backend
	// per round trip — the original body bytes, batched or not — so a
	// client batch of 256 queries costs the fan-out overhead once, not
	// 256 times, and the proxy never re-encodes the query values.

	if batched {
		resps := make([]searchBatchResponse, len(p.backends))
		if !p.fanoutSearch(w, r, payload, func(i int) any { return &resps[i] }) {
			return
		}
		entries := make([]proxyBatchEntry, len(req.Columns))
		per := make([][]Hit, len(p.backends))
		for j := range req.Columns {
			for i := range p.backends {
				// A backend answering a different number of entries than the
				// batch asked for is a contract violation, not a merge input.
				if len(resps[i].Results) != len(req.Columns) {
					writeError(w, http.StatusBadGateway,
						fmt.Sprintf("shard %d (%s): %d result entries for %d queries",
							i, p.backends[i], len(resps[i].Results), len(req.Columns)))
					return
				}
				per[i] = resps[i].Results[j].Results
			}
			// Backends echo the query column names in request order; shard
			// 0's echo names the entries, sparing a local parse of the batch.
			entries[j] = proxyBatchEntry{Column: resps[0].Results[j].Column, Results: mergeProxyHits(per, k)}
		}
		writeJSONCompact(w, proxyBatchSearchResponse{Results: entries})
		return
	}

	resps := make([]searchResponse, len(p.backends))
	if !p.fanoutSearch(w, r, payload, func(i int) any { return &resps[i] }) {
		return
	}
	per := make([][]Hit, len(p.backends))
	for i := range resps {
		per[i] = resps[i].Results
	}
	writeJSON(w, proxySearchResponse{Results: mergeProxyHits(per, k)})
}

// fanoutSearch POSTs the payload to every backend's /search concurrently,
// decoding backend i's answer into dst(i). On any backend failure it
// writes the 502 itself and reports false.
func (p *Proxy) fanoutSearch(w http.ResponseWriter, r *http.Request, payload []byte, dst func(i int) any) bool {
	errs := make([]error, len(p.backends))
	var wg sync.WaitGroup
	for i := range p.backends {
		wg.Add(1)
		//lint:gemallow poolgo network fan-out blocks on I/O, not CPU; the pool budget is for compute
		go func(i int) {
			defer wg.Done()
			errs[i] = p.timedCall(r, i, http.MethodPost, "/search", payload, dst(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("shard %d (%s): %v", i, p.backends[i], err))
			return false
		}
	}
	return true
}

// mergeProxyHits merges per-backend top-k lists into one ranked top-k by
// (distance, backend, id) — the deterministic order documented on Proxy.
func mergeProxyHits(per [][]Hit, k int) []ProxyHit {
	merged := make([]ProxyHit, 0, k)
	for i, hits := range per {
		for _, h := range hits {
			merged = append(merged, ProxyHit{Shard: i, Hit: h})
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Dist != merged[b].Dist {
			return merged[a].Dist < merged[b].Dist
		}
		if merged[a].Shard != merged[b].Shard {
			return merged[a].Shard < merged[b].Shard
		}
		return merged[a].ID < merged[b].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healths := make([]healthResponse, len(p.backends))
	errs := make([]error, len(p.backends))
	var wg sync.WaitGroup
	for i := range p.backends {
		wg.Add(1)
		//lint:gemallow poolgo network fan-out blocks on I/O, not CPU; the pool budget is for compute
		go func(i int) {
			defer wg.Done()
			errs[i] = p.timedCall(r, i, http.MethodGet, "/healthz", nil, &healths[i])
		}(i)
	}
	wg.Wait()
	total := 0
	for i := range p.backends {
		if errs[i] != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("shard %d (%s): %v", i, p.backends[i], errs[i]))
			return
		}
		// Distances are only comparable when every backend serves the
		// same fitted model; a mixed fleet is an operator error that must
		// not answer queries quietly.
		if healths[i].Fingerprint != healths[0].Fingerprint {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("shard %d (%s) serves a different model than shard 0", i, p.backends[i]))
			return
		}
		total += healths[i].IndexSize
	}
	goVersion, modVersion, revision := obs.BuildInfo()
	writeJSON(w, proxyHealthResponse{
		Status:      "ok",
		Shards:      len(p.backends),
		Fingerprint: healths[0].Fingerprint,
		IndexSize:   total,
		//lint:gemallow detnondet uptime is operator telemetry on the health endpoint
		UptimeSeconds: time.Since(p.start).Seconds(),
		GoVersion:     goVersion,
		Version:       modVersion,
		Revision:      revision,
	})
}

func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	all := make([]Stats, len(p.backends))
	errs := make([]error, len(p.backends))
	var wg sync.WaitGroup
	for i := range p.backends {
		wg.Add(1)
		//lint:gemallow poolgo network fan-out blocks on I/O, not CPU; the pool budget is for compute
		go func(i int) {
			defer wg.Done()
			errs[i] = p.timedCall(r, i, http.MethodGet, "/stats", nil, &all[i])
		}(i)
	}
	wg.Wait()
	resp := proxyStatsResponse{Shards: len(p.backends), Backends: all}
	for i := range p.backends {
		if errs[i] != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("shard %d (%s): %v", i, p.backends[i], errs[i]))
			return
		}
		resp.IndexSize += all[i].IndexSize
		resp.Requests += all[i].Requests
	}
	writeJSON(w, resp)
}

// call issues one backend request bound to the incoming request's
// context and decodes the JSON answer; a non-200 backend answer is
// surfaced as its error message.
func (p *Proxy) call(r *http.Request, method, url string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.Unmarshal(data, v)
}
