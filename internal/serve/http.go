package serve

// HTTP JSON front end. /embed responses carry no cache flags, timings or
// any other request-varying field: the body is a pure function of the
// request payload, which is what lets the determinism tests (and the CI
// smoke) assert byte-identical answers across the cold, cached and
// coalesced paths. Operational signals live on /stats instead.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/table"
)

// columnJSON is the wire form of one incoming column.
type columnJSON struct {
	Name   string     `json:"name"`
	Values jsonValues `json:"values"`
}

// jsonValues is a column's values array, decoded without encoding/json's
// reflective per-element path, which costs several times the
// strconv.ParseFloat call inside it and is most of reading a large /embed
// body (BenchmarkDecodeColumns). It accepts and rejects exactly what a plain
// []float64 field does, and yields the same values; FuzzDecodeColumnValues
// holds the two side by side.
type jsonValues []float64

// The types a []float64 field's UnmarshalTypeErrors name, so the 400 text
// is the one clients have always seen.
var (
	float64Type      = reflect.TypeOf(float64(0))
	float64SliceType = reflect.TypeOf([]float64(nil))
)

// UnmarshalJSON is handed the bytes of one JSON value that encoding/json has
// already checked for syntax, so inside an array it only has to split the
// elements: a number goes through strconv.ParseFloat (what encoding/json
// calls too), a null element leaves the slot as it is (zero in a fresh
// slice — encoding/json decodes into the existing slice the same way), and
// anything else is the UnmarshalTypeError a []float64 reports. A null array
// decodes to nil, [] to an empty non-nil slice.
func (v *jsonValues) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*v = nil
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return &json.UnmarshalTypeError{Value: jsonKind(data), Type: float64SliceType}
	}
	end := len(data) - 1
	p := skipJSONSpace(data, 1, end)
	if p == end {
		*v = jsonValues{}
		return nil
	}
	// One element more than commas, exactly, when every element is a number
	// or null; anything holding a comma of its own is rejected below.
	n := bytes.Count(data, []byte{','}) + 1
	out := *v
	if n > cap(out) {
		out = make(jsonValues, n)
		copy(out, (*v)[:cap(*v)])
	}
	out = out[:n]
	for i := range out {
		start := p
		for p < end && data[p] != ',' && !isJSONSpace(data[p]) {
			p++
		}
		tok := data[start:p]
		switch {
		case len(tok) > 0 && (tok[0] == '-' || '0' <= tok[0] && tok[0] <= '9'):
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return &json.UnmarshalTypeError{Value: "number " + string(tok), Type: float64Type}
			}
			out[i] = f
		case string(tok) == "null":
		default:
			return &json.UnmarshalTypeError{Value: jsonKind(tok), Type: float64Type}
		}
		p = skipJSONSpace(data, p, end)
		if i < n-1 {
			if p == end || data[p] != ',' {
				return errMalformedValues
			}
			p = skipJSONSpace(data, p+1, end)
		}
	}
	if p != end {
		return errMalformedValues
	}
	*v = out
	return nil
}

// errMalformedValues is unreachable through encoding/json, which validates
// the text first; it answers a direct call on text that is not JSON.
var errMalformedValues = errors.New("serve: malformed values array")

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r'
}

// skipJSONSpace returns the first position in data[p:end] that holds no
// JSON whitespace, or end.
func skipJSONSpace(data []byte, p, end int) int {
	for p < end && isJSONSpace(data[p]) {
		p++
	}
	return p
}

// jsonKind names the JSON value starting at data the way encoding/json's
// UnmarshalTypeError does.
func jsonKind(data []byte) string {
	if len(data) == 0 {
		return "value"
	}
	switch data[0] {
	case '"':
		return "string"
	case '{':
		return "object"
	case '[':
		return "array"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	default:
		return "number"
	}
}

func (c columnJSON) column() table.Column {
	return table.Column{Name: c.Name, Values: c.Values}
}

// embedRequest is the POST /embed payload.
type embedRequest struct {
	// Table optionally names the source table (informational).
	Table   string       `json:"table,omitempty"`
	Columns []columnJSON `json:"columns"`
}

// embedResponse is the POST /embed answer: one row per requested column, in
// request order.
type embedResponse struct {
	Dim        int             `json:"dim"`
	Embeddings []embeddingJSON `json:"embeddings"`
}

type embeddingJSON struct {
	Column    string    `json:"column"`
	Embedding []float64 `json:"embedding"`
}

// searchRequest is the POST /search payload. Exactly one of Column
// (single-query, the historical shape) or Columns (batched) is set; a
// single-column request and its response are byte-for-byte the historical
// wire format.
type searchRequest struct {
	Column  columnJSON   `json:"column"`
	Columns []columnJSON `json:"columns,omitempty"`
	K       int          `json:"k"`
}

// batched reports whether the request uses the multi-column form.
func (r *searchRequest) batched() bool { return len(r.Columns) > 0 }

// checkShape rejects a payload that sets both the single-column and the
// batched field: silently preferring one would mask a client bug.
func (r *searchRequest) checkShape() error {
	if r.batched() && (r.Column.Name != "" || len(r.Column.Values) > 0) {
		return fmt.Errorf("request sets both column and columns; use one")
	}
	return nil
}

// queryColumns returns the batch's query columns.
func (r *searchRequest) queryColumns() []table.Column {
	cols := make([]table.Column, len(r.Columns))
	for i, c := range r.Columns {
		cols[i] = c.column()
	}
	return cols
}

type searchResponse struct {
	Results []Hit `json:"results"`
}

// searchBatchResponse is the batched /search answer: one entry per query
// column, in request order.
type searchBatchResponse struct {
	Results []searchBatchEntry `json:"results"`
}

type searchBatchEntry struct {
	Column  string `json:"column"`
	Results []Hit  `json:"results"`
}

type healthResponse struct {
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	Components  int    `json:"components"`
	Dim         int    `json:"dim"`
	IndexSize   int    `json:"index_size"`
	// UptimeSeconds and the build identity fields (debug.ReadBuildInfo)
	// let fleet checks confirm WHICH binary answered, not just that one
	// did.
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Version       string  `json:"version"`
	Revision      string  `json:"revision"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// columnsResponse is the GET /columns answer.
type columnsResponse struct {
	Columns []ColumnInfo `json:"columns"`
	Live    int          `json:"live"`
}

// addColumnsRequest is the POST /columns payload (same column shape as
// /embed).
type addColumnsRequest struct {
	Columns []columnJSON `json:"columns"`
}

type addColumnsResponse struct {
	IDs []int `json:"ids"`
	Dim int   `json:"dim"`
}

type removeColumnsResponse struct {
	Removed []int `json:"removed"`
}

type compactResponse struct {
	Live int `json:"live"`
}

// Handler returns the server's HTTP API:
//
//	POST /embed            {"columns":[{"name":...,"values":[...]}]} → embeddings
//	POST /search           {"column":{...},"k":10}                   → nearest indexed columns
//	                       {"columns":[{...},...],"k":10}            → batched: one result entry per query column
//	GET  /columns                                                    → live catalog columns
//	POST /columns          {"columns":[...]}                         → add (embed + index + journal)
//	DELETE /columns/{ref}  ref = header name or @id                  → remove
//	POST /columns/compact                                            → drop tombstones, snapshot the store
//	GET  /healthz                                                    → liveness + model identity + build info
//	GET  /stats                                                      → cache/batch/catalog counters
//	GET  /metrics                                                    → Prometheus exposition (when metrics are on)
//
// Every route is method-scoped; the instrumentation middleware wraps the
// mux, so mux-generated 404/405 bodies come back as the same JSON error
// shape the handlers produce, and every request (matched or not) lands in
// the per-endpoint metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /embed", s.handleEmbed)
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.HandleFunc("GET /columns", s.handleColumnsList)
	mux.HandleFunc("POST /columns", s.handleColumnsAdd)
	mux.HandleFunc("DELETE /columns/{ref}", s.handleColumnsRemove)
	mux.HandleFunc("POST /columns/compact", s.handleCompact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	if s.cfg.Metrics != nil {
		mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
	}
	return s.ins.wrap(mux)
}

func (s *Server) handleColumnsList(w http.ResponseWriter, r *http.Request) {
	cols, err := s.Columns()
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, columnsResponse{Columns: cols, Live: len(cols)})
}

// decodeBody decodes one JSON request body under the configured size cap
// and writes the error response itself when decoding fails: 413 when the
// cap cut the body off, 400 for malformed JSON or anything after the JSON
// value. Reports whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, body, s.cfg.MaxBodyBytes)
	}
	dec := json.NewDecoder(body)
	err := dec.Decode(v)
	if err == nil {
		// Decode stops at the end of the first value; a body is that value
		// and nothing but whitespace after it.
		if _, terr := dec.Token(); terr == nil {
			err = errors.New("unexpected data after the request object")
		} else if terr != io.EOF {
			err = terr
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleColumnsAdd(w http.ResponseWriter, r *http.Request) {
	var req addColumnsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	cols := make([]table.Column, len(req.Columns))
	for i, c := range req.Columns {
		cols[i] = c.column()
	}
	ids, err := s.AddColumns(r.Context(), cols)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, addColumnsResponse{IDs: ids, Dim: s.dim})
}

func (s *Server) handleColumnsRemove(w http.ResponseWriter, r *http.Request) {
	ids, err := s.RemoveColumns(r.PathValue("ref"))
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, removeColumnsResponse{Removed: ids})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	live, err := s.CompactCatalog()
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, compactResponse{Live: live})
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req embedRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	cols := make([]table.Column, len(req.Columns))
	for i, c := range req.Columns {
		cols[i] = c.column()
	}
	rows, err := s.Embed(r.Context(), cols)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	resp := embedResponse{Dim: s.dim, Embeddings: make([]embeddingJSON, len(rows))}
	for i, row := range rows {
		resp.Embeddings[i] = embeddingJSON{Column: cols[i].Name, Embedding: row}
	}
	writeJSON(w, resp)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if err := req.checkShape(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.batched() {
		cols := req.queryColumns()
		batches, err := s.SearchBatch(r.Context(), cols, req.K)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		resp := searchBatchResponse{Results: make([]searchBatchEntry, len(cols))}
		for i, hits := range batches {
			if hits == nil {
				hits = []Hit{}
			}
			resp.Results[i] = searchBatchEntry{Column: cols[i].Name, Results: hits}
		}
		writeJSONCompact(w, resp)
		return
	}
	hits, err := s.Search(r.Context(), req.Column.column(), req.K)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	if hits == nil {
		hits = []Hit{}
	}
	writeJSON(w, searchResponse{Results: hits})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	goVersion, modVersion, revision := obs.BuildInfo()
	writeJSON(w, healthResponse{
		Status:      "ok",
		Fingerprint: s.fp,
		Components:  s.emb.Model().K(),
		Dim:         s.dim,
		IndexSize:   s.IndexLen(),
		//lint:gemallow detnondet uptime is operator telemetry on the health endpoint
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     goVersion,
		Version:       modVersion,
		Revision:      revision,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrInput):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNoIndex):
		return http.StatusNotImplemented
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONCompact writes v without indentation. Batched /search answers
// use it: they are machine-consumed fan-out payloads whose encoding cost
// and bytes on the wire scale with batch size, and compact encoding is
// measurably cheaper. Single-query responses keep the historical indented
// form byte for byte.
func writeJSONCompact(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeError is the blessed error writer: every error answer is the JSON
// {"error": ...} body, status and body set together.
//
//gem:errwriter
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg})
}
