package serve

// Proxy tests run two real shard servers behind httptest listeners and
// drive the front door over actual HTTP: the merged /search must equal a
// single server holding the union of both shards' columns, byte-layout
// determinism must hold across repeats, and the failure paths (dead
// backend, mixed-model fleet, bad k) must answer with the right status.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/table"
)

// newProxyFleet starts nBackends store-less shard servers over one shared
// fitted model, splits cols round-robin across them, and returns the
// proxy plus the per-backend servers (for direct inspection).
func newProxyFleet(t *testing.T, nBackends int, cols []table.Column) (*Proxy, []*Server) {
	t.Helper()
	servers := make([]*Server, nBackends)
	backends := make([]string, nBackends)
	for i := range servers {
		servers[i] = newTestServer(t, 2, Config{Index: ann.NewFlat(ann.Euclidean)})
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		backends[i] = ts.URL
	}
	for i, c := range cols {
		if _, err := servers[i%nBackends].AddColumns(context.Background(), []table.Column{c}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewProxy(ProxyConfig{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	return p, servers
}

func TestProxySearchMergesShards(t *testing.T) {
	ds := testCatalog()
	cols := ds.Columns[:12]
	p, _ := newProxyFleet(t, 2, cols)
	h := p.Handler()

	// Reference: one server holding every column. Distances must agree
	// hit for hit; ids differ (backend-local), so compare (name, dist).
	ref := newTestServer(t, 2, Config{Index: ann.NewFlat(ann.Euclidean)})
	if _, err := ref.AddColumns(context.Background(), cols); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3, 8, 20} {
		q := ds.Columns[15] // not indexed anywhere: no self-hit filtering asymmetry
		wantHits, err := ref.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		code, body := doReq(t, h, "POST", "/search", fmt.Sprintf(`{"column":%s,"k":%d}`, colJSON(q), k))
		if code != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, code, body)
		}
		var resp proxySearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(wantHits) {
			t.Fatalf("k=%d: %d merged hits, reference has %d", k, len(resp.Results), len(wantHits))
		}
		for i, got := range resp.Results {
			if got.Name != wantHits[i].Name || got.Dist != wantHits[i].Dist {
				t.Fatalf("k=%d hit %d: got (%s, %g), want (%s, %g)",
					k, i, got.Name, got.Dist, wantHits[i].Name, wantHits[i].Dist)
			}
			if got.Shard < 0 || got.Shard >= 2 {
				t.Fatalf("k=%d hit %d: shard %d out of range", k, i, got.Shard)
			}
		}

		// Determinism: repeated identical queries return identical bytes.
		_, body2 := doReq(t, h, "POST", "/search", fmt.Sprintf(`{"column":%s,"k":%d}`, colJSON(q), k))
		if !bytes.Equal(body, body2) {
			t.Fatalf("k=%d: repeated query diverged:\n%s\n%s", k, body, body2)
		}
	}
}

func TestProxySearchRejectsBadK(t *testing.T) {
	ds := testCatalog()
	p, _ := newProxyFleet(t, 2, ds.Columns[:4])
	h := p.Handler()
	for _, k := range []int{-1, -50} {
		code, body := doReq(t, h, "POST", "/search", fmt.Sprintf(`{"column":%s,"k":%d}`, colJSON(ds.Columns[0]), k))
		if code != http.StatusBadRequest {
			t.Fatalf("k=%d: status %d: %s", k, code, body)
		}
	}
	// k omitted → default 10.
	code, body := doReq(t, h, "POST", "/search", `{"column":`+colJSON(ds.Columns[9])+`}`)
	if code != http.StatusOK {
		t.Fatalf("default k: status %d: %s", code, body)
	}
}

func TestProxyBodyCap(t *testing.T) {
	ds := testCatalog()
	servers := newTestServer(t, 2, Config{Index: ann.NewFlat(ann.Euclidean)})
	ts := httptest.NewServer(servers.Handler())
	defer ts.Close()
	p, err := NewProxy(ProxyConfig{Backends: []string{ts.URL}, MaxBodyBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	big := `{"column":{"name":"huge","values":[` + strings.Repeat("1,", 400) + `1]},"k":3}`
	code, body := doReq(t, p.Handler(), "POST", "/search", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized proxy body: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "request body exceeds 512 bytes") {
		t.Fatalf("413 body: %s", body)
	}
	small := fmt.Sprintf(`{"column":%s,"k":2}`, colJSON(ds.Columns[0]))
	if len(small) >= 512 {
		t.Fatalf("fixture too large for cap: %d bytes", len(small))
	}
	if code, body := doReq(t, p.Handler(), "POST", "/search", small); code != http.StatusOK {
		t.Fatalf("within-cap search: status %d: %s", code, body)
	}
}

func TestProxyDeadBackend(t *testing.T) {
	ds := testCatalog()
	s := newTestServer(t, 2, Config{Index: ann.NewFlat(ann.Euclidean)})
	if _, err := s.AddColumns(context.Background(), ds.Columns[:4]); err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(s.Handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on

	p, err := NewProxy(ProxyConfig{Backends: []string{live.URL, dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range [][3]string{
		{"POST", "/search", fmt.Sprintf(`{"column":%s,"k":2}`, colJSON(ds.Columns[0]))},
		{"GET", "/healthz", ""},
		{"GET", "/stats", ""},
	} {
		code, body := doReq(t, p.Handler(), req[0], req[1], req[2])
		if code != http.StatusBadGateway {
			t.Fatalf("%s %s with dead backend: status %d: %s", req[0], req[1], code, body)
		}
		if !strings.Contains(string(body), "shard 1") {
			t.Fatalf("%s %s error does not name the dead shard: %s", req[0], req[1], body)
		}
	}
}

func TestProxyHealthzAggregates(t *testing.T) {
	ds := testCatalog()
	p, servers := newProxyFleet(t, 2, ds.Columns[:9])
	code, body := doReq(t, p.Handler(), "GET", "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", code, body)
	}
	var resp proxyHealthResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	wantSize := servers[0].IndexLen() + servers[1].IndexLen()
	if resp.Status != "ok" || resp.Shards != 2 || resp.IndexSize != wantSize || resp.Fingerprint == "" {
		t.Fatalf("healthz aggregate: %+v (want index_size %d)", resp, wantSize)
	}
}

func TestProxyHealthzRejectsMixedFleet(t *testing.T) {
	// Two backends, one of which lies about its fingerprint: the proxy
	// must refuse to report healthy, because cross-shard distances from
	// different models are not comparable.
	s := newTestServer(t, 2, Config{Index: ann.NewFlat(ann.Euclidean)})
	real := httptest.NewServer(s.Handler())
	defer real.Close()
	imposter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, healthResponse{Status: "ok", Fingerprint: "some-other-model"})
	}))
	defer imposter.Close()

	p, err := NewProxy(ProxyConfig{Backends: []string{real.URL, imposter.URL}})
	if err != nil {
		t.Fatal(err)
	}
	code, body := doReq(t, p.Handler(), "GET", "/healthz", "")
	if code != http.StatusBadGateway {
		t.Fatalf("mixed fleet healthz: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "different model") {
		t.Fatalf("mixed fleet error: %s", body)
	}
}

func TestProxyStatsAggregates(t *testing.T) {
	ds := testCatalog()
	p, servers := newProxyFleet(t, 2, ds.Columns[:6])
	// Generate some backend traffic so requests > 0.
	if _, err := servers[0].Embed(context.Background(), ds.Columns[:2]); err != nil {
		t.Fatal(err)
	}
	code, body := doReq(t, p.Handler(), "GET", "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, body)
	}
	var resp proxyStatsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shards != 2 || len(resp.Backends) != 2 {
		t.Fatalf("stats shape: %+v", resp)
	}
	if want := servers[0].IndexLen() + servers[1].IndexLen(); resp.IndexSize != want {
		t.Fatalf("stats index_size %d, want %d", resp.IndexSize, want)
	}
}

func TestNewProxyValidation(t *testing.T) {
	if _, err := NewProxy(ProxyConfig{}); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := NewProxy(ProxyConfig{Backends: []string{"10.0.0.1:8080"}}); err == nil {
		t.Fatal("schemeless backend accepted")
	}
	p, err := NewProxy(ProxyConfig{Backends: []string{"http://a/", "https://b"}})
	if err != nil {
		t.Fatal(err)
	}
	if p.backends[0] != "http://a" || p.backends[1] != "https://b" {
		t.Fatalf("backend normalization: %v", p.backends)
	}
}

// TestProxyMetricsOwnFamilies: the proxy's /metrics carries its own HTTP
// and fan-out series and none of the server's embed, cache, batch, catalog
// or index families, which a proxy never records.
func TestProxyMetricsOwnFamilies(t *testing.T) {
	ds := testCatalog()
	fleet, _ := newProxyFleet(t, 2, ds.Columns[:6])
	p, err := NewProxy(ProxyConfig{Backends: fleet.backends, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handler()
	for _, req := range [][3]string{
		{"POST", "/search", fmt.Sprintf(`{"column":%s,"k":2}`, colJSON(ds.Columns[8]))},
		{"GET", "/healthz", ""},
		{"GET", "/stats", ""},
	} {
		if code, body := doReq(t, h, req[0], req[1], req[2]); code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", req[0], req[1], code, body)
		}
	}
	code, raw := doReq(t, h, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	exp := string(raw)
	for _, want := range []string{`gem_http_requests_total{endpoint="/search"} 1`, `gem_proxy_backend_up{backend="1"} 1`} {
		if !strings.Contains(exp, want) {
			t.Errorf("proxy exposition lacks %q", want)
		}
	}
	for _, line := range strings.Split(exp, "\n") {
		for _, prefix := range []string{"gem_cache_", "gem_embed_", "gem_batch", "gem_catalog_", "gem_index_"} {
			if strings.HasPrefix(line, prefix) || strings.HasPrefix(line, "# TYPE "+prefix) {
				t.Errorf("proxy exposition carries a server-only family: %s", line)
			}
		}
	}
}
