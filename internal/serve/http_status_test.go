package serve

// Satellite audit of the HTTP error contract: every error response — the
// handlers' own, the mux's 404/405, the body-cap 413 and the proxy's 502 —
// carries Content-Type application/json and the {"error": ...} shape.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gem-embeddings/gem/internal/ann"
)

// checkJSONError asserts one error response: expected status, JSON
// Content-Type, non-empty {"error": ...} body.
func checkJSONError(t *testing.T, name string, resp *http.Response, wantCode int) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", name, err)
	}
	if resp.StatusCode != wantCode {
		t.Errorf("%s: status %d, want %d (body %q)", name, resp.StatusCode, wantCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s: Content-Type %q, want application/json", name, ct)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Errorf("%s: body is not the JSON error shape: %q", name, body)
	} else if e.Error == "" {
		t.Errorf("%s: empty error message in %q", name, body)
	}
}

func do(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPErrorContract drives every server error path in one table.
func TestHTTPErrorContract(t *testing.T) {
	plain := httpServer(t, 1, Config{MaxBodyBytes: 256})
	indexed := httpServer(t, 1, Config{Index: ann.NewFlat(ann.Cosine)})

	big := `{"columns":[{"name":"x","values":[` + strings.Repeat("1,", 400) + `1]}]}`
	cases := []struct {
		name     string
		base     *httptest.Server
		method   string
		path     string
		body     string
		wantCode int
	}{
		{"mux 405 on GET /embed", plain, http.MethodGet, "/embed", "", http.StatusMethodNotAllowed},
		{"mux 405 on DELETE /search", plain, http.MethodDelete, "/search", "", http.StatusMethodNotAllowed},
		{"mux 405 on PUT /columns", indexed, http.MethodPut, "/columns", "", http.StatusMethodNotAllowed},
		{"mux 405 on POST /healthz", plain, http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
		{"mux 404 on unknown path", plain, http.MethodGet, "/nope", "", http.StatusNotFound},
		{"malformed JSON", plain, http.MethodPost, "/embed", "{not json", http.StatusBadRequest},
		{"empty column", plain, http.MethodPost, "/embed", `{"columns":[{"name":"x","values":[]}]}`, http.StatusBadRequest},
		{"no columns", plain, http.MethodPost, "/embed", `{"columns":[]}`, http.StatusBadRequest},
		{"body over the cap", plain, http.MethodPost, "/embed", big, http.StatusRequestEntityTooLarge},
		{"search without an index", plain, http.MethodPost, "/search", `{"column":{"name":"x","values":[1,2]},"k":3}`, http.StatusNotImplemented},
		{"columns without an index", plain, http.MethodGet, "/columns", "", http.StatusNotImplemented},
		{"remove of unknown ref", indexed, http.MethodDelete, "/columns/ghost", "", http.StatusNotFound},
		{"negative k", indexed, http.MethodPost, "/search", `{"column":{"name":"x","values":[1,2]},"k":-1}`, http.StatusBadRequest},
		{"non-number value", plain, http.MethodPost, "/embed", `{"columns":[{"name":"x","values":[1,"2"]}]}`, http.StatusBadRequest},
		{"overflowing value", plain, http.MethodPost, "/embed", `{"columns":[{"name":"x","values":[1e999]}]}`, http.StatusBadRequest},
		{"garbage after /embed body", plain, http.MethodPost, "/embed", embedBody + ` trailing garbage`, http.StatusBadRequest},
		{"second value after /embed body", plain, http.MethodPost, "/embed", embedBody + `{}`, http.StatusBadRequest},
		{"garbage after /search body", indexed, http.MethodPost, "/search", searchBody + `]`, http.StatusBadRequest},
		{"garbage after /columns body", indexed, http.MethodPost, "/columns", `{"columns":[{"name":"x","values":[1,2]}]} x`, http.StatusBadRequest},
	}
	for _, c := range cases {
		checkJSONError(t, c.name, do(t, c.method, c.base.URL+c.path, c.body), c.wantCode)
	}
	// A rejected /columns body enrolled nothing, and whitespace after a body
	// is still a body.
	if code, body := post(t, indexed.URL+"/search", searchBody+" \r\n\t"); code != http.StatusOK || !strings.Contains(string(body), `"results": []`) {
		t.Errorf("search with trailing whitespace on an empty catalog: status %d: %s", code, body)
	}
}

// TestProxyErrorContract covers the proxy's error paths, including the 502
// from a dead backend.
func TestProxyErrorContract(t *testing.T) {
	p, err := NewProxy(ProxyConfig{
		Backends:     []string{"http://127.0.0.1:1"}, // nothing listens there
		MaxBodyBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	big := `{"column":{"name":"x","values":[` + strings.Repeat("1,", 400) + `1]},"k":3}`
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
	}{
		{"mux 405 on GET /search", http.MethodGet, "/search", "", http.StatusMethodNotAllowed},
		{"mux 404 on unknown path", http.MethodGet, "/nope", "", http.StatusNotFound},
		{"malformed JSON", http.MethodPost, "/search", "{not json", http.StatusBadRequest},
		{"negative k", http.MethodPost, "/search", `{"column":{"name":"x","values":[1]},"k":-1}`, http.StatusBadRequest},
		{"body over the cap", http.MethodPost, "/search", big, http.StatusRequestEntityTooLarge},
		{"dead backend", http.MethodPost, "/search", `{"column":{"name":"x","values":[1,2]},"k":3}`, http.StatusBadGateway},
		{"dead backend healthz", http.MethodGet, "/healthz", "", http.StatusBadGateway},
	}
	for _, c := range cases {
		checkJSONError(t, c.name, do(t, c.method, ts.URL+c.path, c.body), c.wantCode)
	}
}
