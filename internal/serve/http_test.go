package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/data"
)

func httpServer(t *testing.T, workers int, cfg Config) *httptest.Server {
	t.Helper()
	s := newTestServer(t, workers, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

const embedBody = `{"table":"t1","columns":[` +
	`{"name":"price","values":[9.99,20,35.5,12,48,3.2]},` +
	`{"name":"quantity","values":[5,30,25,14,2,9]}]}`

// TestHTTPEmbedByteIdentical is the HTTP form of the determinism pin: the
// same POST body yields byte-identical responses cold, cached, coalesced
// and across servers with different worker counts.
func TestHTTPEmbedByteIdentical(t *testing.T) {
	ts1 := httpServer(t, 1, Config{MaxBatch: 1})
	code, cold := post(t, ts1.URL+"/embed", embedBody)
	if code != http.StatusOK {
		t.Fatalf("cold POST: status %d: %s", code, cold)
	}
	_, cached := post(t, ts1.URL+"/embed", embedBody)
	if !bytes.Equal(cold, cached) {
		t.Errorf("cached response differs from cold:\n%s\n%s", cold, cached)
	}

	ts2 := httpServer(t, 8, Config{MaxBatch: 32})
	// Concurrent identical posts coalesce in one batch on the second
	// server; every byte must still match the first server's cold answer.
	var wg sync.WaitGroup
	results := make([][]byte, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts2.URL+"/embed", "application/json", strings.NewReader(embedBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			results[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !bytes.Equal(cold, r) {
			t.Errorf("coalesced response %d differs from cold reference:\n%s\n%s", i, cold, r)
		}
	}

	var parsed embedResponse
	if err := json.Unmarshal(cold, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Embeddings) != 2 || parsed.Dim == 0 {
		t.Errorf("unexpected response shape: %+v", parsed)
	}
	if len(parsed.Embeddings[0].Embedding) != parsed.Dim {
		t.Errorf("row width %d != dim %d", len(parsed.Embeddings[0].Embedding), parsed.Dim)
	}
}

func TestHTTPStatsAndHealthz(t *testing.T) {
	ts := httpServer(t, 2, Config{})
	post(t, ts.URL+"/embed", embedBody)
	post(t, ts.URL+"/embed", embedBody)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
	if st.Requests != 2 {
		t.Errorf("requests = %d, want 2", st.Requests)
	}
	if st.LatencyP50Ms <= 0 {
		t.Errorf("p50 latency = %v, want > 0", st.LatencyP50Ms)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Fingerprint == "" || h.Dim == 0 || h.Components == 0 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestHTTPSearch(t *testing.T) {
	s := newTestServer(t, 2, Config{Index: ann.NewFlat(ann.Cosine)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post(t, ts.URL+"/embed", embedBody)
	code, body := post(t, ts.URL+"/search",
		`{"column":{"name":"cost","values":[10,21,34,11,50,3]},"k":1}`)
	if code != http.StatusOK {
		t.Fatalf("search: status %d: %s", code, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || sr.Results[0].Name == "" {
		t.Errorf("search results = %+v", sr.Results)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts := httpServer(t, 1, Config{})
	if code, _ := post(t, ts.URL+"/embed", "{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", code)
	}
	if code, body := post(t, ts.URL+"/embed", `{"columns":[{"name":"x","values":[]}]}`); code != http.StatusBadRequest {
		t.Errorf("empty column: status %d: %s", code, body)
	}
	if code, _ := post(t, ts.URL+"/search", `{"column":{"name":"x","values":[1,2]},"k":3}`); code != http.StatusNotImplemented {
		t.Errorf("search without index: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/embed")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /embed: status %d", resp.StatusCode)
	}
}

// TestHTTPEmbedIndependentOfRowOrder is the /embed form of the row-order
// contract: a column whose rows arrive shuffled gets the same embedding
// bytes. Columns of the four paper corpora are posted, then posted again
// with every column's rows shuffled. The cache keys on the values in the
// order they arrive, so a shuffled column is a miss that recomputes the
// same bits rather than a hit that replays them.
func TestHTTPEmbedIndependentOfRowOrder(t *testing.T) {
	s := newTestServer(t, 2, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	type column struct {
		Name   string    `json:"name"`
		Values []float64 `json:"values"`
	}
	body := func(cols []column) string {
		b, err := json.Marshal(struct {
			Columns []column `json:"columns"`
		}{cols})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rng := rand.New(rand.NewSource(6))
	for _, ds := range data.AllCorpora(data.Config{Seed: 8, Scale: 0.03}) {
		var cols, shuf []column
		for _, c := range ds.Columns[:min(24, len(ds.Columns))] {
			vs := append([]float64(nil), c.Values...)
			rng.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
			cols = append(cols, column{c.Name, c.Values})
			shuf = append(shuf, column{c.Name, vs})
		}
		code, want := post(t, ts.URL+"/embed", body(cols))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ds.Name, code, want)
		}
		_, got := post(t, ts.URL+"/embed", body(shuf))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: shuffled rows changed the /embed response:\n%s\n%s", ds.Name, got, want)
		}
	}
}
