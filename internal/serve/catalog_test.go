package serve

// Tests of the durable mutable catalog: store replay at startup, the
// /columns lifecycle, compaction alignment, and the restart acceptance
// criterion — a server restarted from snapshot+journal answers /embed and
// /search byte-identically to the server that wrote them.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"math/rand"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/table"
)

// newCatalogServer builds a server on the shared test embedder with an
// empty HNSW index wired to a store in dir.
func newCatalogServer(t *testing.T, dir string, workers int, cfg Config) *Server {
	t.Helper()
	emb := fittedEmbedder(t, workers)
	fp, err := emb.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ann.NewHNSW(ann.HNSWConfig{Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := catalog.Open(dir, StoreIdentity(fp, idx))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Index = idx
	cfg.Store = st
	s, err := New(emb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// doReq issues one request against a handler and returns status + body.
func doReq(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// mutateAndCapture drives one fixed mutation history against a fresh
// catalog server and then captures a fixed read-only request sequence. The
// restart test compares the captures byte for byte.
func mutateAndCapture(t *testing.T, s *Server, mutate bool) map[string][]byte {
	t.Helper()
	h := s.Handler()
	ds := testCatalog()
	if mutate {
		if _, err := s.AddColumns(context.Background(), ds.Columns[:9]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RemoveColumns(ds.Columns[2].Name, "@4"); err != nil {
			t.Fatal(err)
		}
	}
	out := make(map[string][]byte)
	capture := func(name, method, path, body string) {
		t.Helper()
		code, b := doReq(t, h, method, path, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, b)
		}
		out[name] = b
	}
	// The capture sequence touches only columns that both tests leave
	// enrolled and live: 3 as the search query, 6 and 7 for /embed. On a
	// restarted server every one of them must come straight out of the
	// store-warmed cache.
	capture("search", "POST", "/search",
		`{"column":`+colJSON(ds.Columns[3])+`,"k":5}`)
	capture("embed", "POST", "/embed", colsJSON(ds.Columns[6:8]))
	capture("columns", "GET", "/columns", "")
	return out
}

// colJSON renders one column as its wire object.
func colJSON(c table.Column) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%q,"values":[`, c.Name)
	for j, v := range c.Values {
		if j > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteString("]}")
	return b.String()
}

// colsJSON renders columns as an /embed or /columns request body.
func colsJSON(cols []table.Column) string {
	var b strings.Builder
	b.WriteString(`{"columns":[`)
	for i, c := range cols {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(colJSON(c))
	}
	b.WriteString("]}")
	return b.String()
}

// TestCatalogRestartByteIdentical is the acceptance pin: a server
// restarted from snapshot+journal serves byte-identical /embed and
// /search (and /columns) responses to the pre-restart server, at several
// worker counts.
func TestCatalogRestartByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			a := newCatalogServer(t, dir, workers, Config{})
			want := mutateAndCapture(t, a, true)
			liveA := a.IndexLen()
			a.Close()
			if err := a.store.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart: same store directory, fresh server. Workers differ on
			// purpose for the odd runs: responses must not depend on them.
			b := newCatalogServer(t, dir, workers, Config{})
			if b.IndexLen() != liveA {
				t.Fatalf("restarted live %d, want %d", b.IndexLen(), liveA)
			}
			// The restarted server must answer from the warmed cache: the
			// capture sequence includes previously stored columns.
			got := mutateAndCapture(t, b, false)
			for name, w := range want {
				if !bytes.Equal(w, got[name]) {
					t.Errorf("%s response changed across restart:\npre:  %s\npost: %s", name, w, got[name])
				}
			}
			st := b.Stats()
			if st.StoreErrors != 0 {
				t.Fatalf("store errors after restart: %+v", st)
			}
			// Every /embed of stored content after restart is a cache hit —
			// the "restart without re-embedding" guarantee. The capture
			// replayed 3 stored columns and 1 stored query column.
			if st.Misses != 0 {
				t.Errorf("restarted server re-embedded %d columns; stats %+v", st.Misses, st)
			}
		})
	}
}

// TestCatalogRestartAfterCompaction: compaction re-numbers ids; a restart
// from the compacted snapshot + later journal still matches the live
// server byte for byte.
func TestCatalogRestartAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	ds := testCatalog()
	a := newCatalogServer(t, dir, 2, Config{})
	if _, err := a.AddColumns(context.Background(), ds.Columns[:8]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RemoveColumns(ds.Columns[1].Name, ds.Columns[5].Name); err != nil {
		t.Fatal(err)
	}
	live, err := a.CompactCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if live != 6 {
		t.Fatalf("live after compaction %d, want 6", live)
	}
	// Post-compaction mutations land in the fresh journal.
	if _, err := a.AddColumns(context.Background(), ds.Columns[8:10]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RemoveColumns("@0"); err != nil {
		t.Fatal(err)
	}
	want := mutateAndCapture(t, a, false)
	wantStats := a.Stats()
	a.Close()
	if err := a.store.Close(); err != nil {
		t.Fatal(err)
	}

	b := newCatalogServer(t, dir, 2, Config{})
	got := mutateAndCapture(t, b, false)
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Errorf("%s response changed across post-compaction restart:\npre:  %s\npost: %s", name, w, got[name])
		}
	}
	st := b.Stats()
	if st.IndexSize != wantStats.IndexSize || st.IndexTombstones != wantStats.IndexTombstones {
		t.Fatalf("restarted shape %d/%d, want %d/%d",
			st.IndexSize, st.IndexTombstones, wantStats.IndexSize, wantStats.IndexTombstones)
	}
}

// TestCatalogCompactionAlignsStoreAndIndex: after interleaved adds,
// removes and a compaction, the store's live entries line up id-for-id
// with the index — searching any stored vector returns its own id.
func TestCatalogCompactionAlignsStoreAndIndex(t *testing.T) {
	dir := t.TempDir()
	ds := testCatalog()
	s := newCatalogServer(t, dir, 2, Config{})
	if _, err := s.AddColumns(context.Background(), ds.Columns[:10]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveColumns("@2", "@3", "@7"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompactCatalog(); err != nil {
		t.Fatal(err)
	}
	live := s.store.Live()
	if len(live) != 7 || s.IndexLen() != 7 {
		t.Fatalf("store %d / index %d live entries, want 7", len(live), s.IndexLen())
	}
	cols, err := s.Columns()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range live {
		if cols[i].ID != i || cols[i].Name != e.Name || cols[i].Key != e.Key.String() {
			t.Fatalf("entry %d misaligned: store %+v, server %+v", i, e, cols[i])
		}
	}
}

// TestCatalogRemoveSemantics: with a store, membership is explicit —
// /embed never enrolls (or resurrects) a column; AddColumns does. Unknown
// remove references 404.
func TestCatalogRemoveSemantics(t *testing.T) {
	dir := t.TempDir()
	ds := testCatalog()
	s := newCatalogServer(t, dir, 2, Config{})
	col := ds.Columns[0]
	// Embedding is a pure read in store mode: no implicit enrollment,
	// because enrollment must be deterministic in the store and a cache
	// hit/miss is not.
	if _, err := s.Embed(context.Background(), []table.Column{col}); err != nil {
		t.Fatal(err)
	}
	if s.IndexLen() != 0 {
		t.Fatalf("embed enrolled a column in store mode: %d", s.IndexLen())
	}
	ids, err := s.AddColumns(context.Background(), []table.Column{col})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 0 || s.IndexLen() != 1 {
		t.Fatalf("explicit add: ids %v live %d", ids, s.IndexLen())
	}
	// Adding the same content again is idempotent.
	ids, err = s.AddColumns(context.Background(), []table.Column{col})
	if err != nil || len(ids) != 1 || ids[0] != 0 || s.IndexLen() != 1 {
		t.Fatalf("re-add: ids %v live %d err %v", ids, s.IndexLen(), err)
	}
	if _, err := s.RemoveColumns(col.Name); err != nil {
		t.Fatal(err)
	}
	if s.IndexLen() != 0 {
		t.Fatalf("remove missed: %d", s.IndexLen())
	}
	// Re-embedding removed content must not bring it back; an explicit
	// re-add brings it back under a fresh id.
	if _, err := s.Embed(context.Background(), []table.Column{col}); err != nil {
		t.Fatal(err)
	}
	if s.IndexLen() != 0 {
		t.Fatal("embed resurrected removed content")
	}
	ids, err = s.AddColumns(context.Background(), []table.Column{col})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 || s.IndexLen() != 1 {
		t.Fatalf("explicit re-add: ids %v live %d", ids, s.IndexLen())
	}
	if _, err := s.RemoveColumns("no-such-column"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown remove: %v", err)
	}
	if _, err := s.RemoveColumns("@99"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-range remove: %v", err)
	}
}

// TestCatalogAutoCompaction: CompactEvery triggers a compaction once
// enough removes accumulate.
func TestCatalogAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	ds := testCatalog()
	s := newCatalogServer(t, dir, 2, Config{CompactEvery: 3})
	if _, err := s.AddColumns(context.Background(), ds.Columns[:8]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveColumns("@0", "@1"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 0 || st.IndexTombstones != 2 {
		t.Fatalf("compacted too early: %+v", st)
	}
	if _, err := s.RemoveColumns("@2"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions != 1 || st.IndexTombstones != 0 || st.IndexSize != 5 {
		t.Fatalf("auto-compaction missing: %+v", st)
	}
}

// TestSearchDuringAutoCompaction is a -race regression test: /search runs
// beside RemoveColumns calls that cross CompactEvery on an HNSW-backed
// catalog. Auto-compaction replaces the index in place (ann.(*HNSW).Rebuild
// assigns the whole struct), so nothing on the search path may read the
// index outside idxMu — SearchBatch once read its metric there.
func TestSearchDuringAutoCompaction(t *testing.T) {
	ds := testCatalog()
	s := newCatalogServer(t, t.TempDir(), 2, Config{CompactEvery: 2})
	if _, err := s.AddColumns(context.Background(), ds.Columns[:24]); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := `{"column":` + colJSON(ds.Columns[25]) + `,"k":3}`
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, b := doReq(t, h, "POST", "/search", body); code != http.StatusOK {
					t.Errorf("/search during compaction: status %d: %s", code, b)
					return
				}
			}
		}()
	}
	// Every call crosses CompactEvery, and compaction renumbers the
	// survivors from 0, so "@0" and "@1" are live again on the next call.
	for i := 0; i < 6; i++ {
		if _, err := s.RemoveColumns("@0", "@1"); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Compactions != 6 {
		t.Errorf("compactions = %d, want 6", st.Compactions)
	}
}

// TestCatalogConfigValidation: the startup error paths of the store
// wiring.
func TestCatalogConfigValidation(t *testing.T) {
	emb := fittedEmbedder(t, 2)
	fp, err := emb.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("store-without-index", func(t *testing.T) {
		st, err := catalog.Open(t.TempDir(), fp)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := New(emb, Config{Store: st}); !errors.Is(err, ErrInput) {
			t.Fatalf("want ErrInput, got %v", err)
		}
	})
	t.Run("store-with-preloaded-index", func(t *testing.T) {
		st, err := catalog.Open(t.TempDir(), fp)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		idx := ann.NewFlat(ann.Cosine)
		probe := make([]float64, 4)
		if err := idx.Add(probe); err != nil {
			t.Fatal(err)
		}
		if _, err := New(emb, Config{Store: st, Index: idx}); !errors.Is(err, ErrInput) {
			t.Fatalf("want ErrInput, got %v", err)
		}
	})
	t.Run("store-with-index-names", func(t *testing.T) {
		st, err := catalog.Open(t.TempDir(), fp)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := New(emb, Config{Store: st, Index: ann.NewFlat(ann.Cosine), IndexNames: []string{"a"}}); !errors.Is(err, ErrInput) {
			t.Fatalf("want ErrInput, got %v", err)
		}
	})
	t.Run("fingerprint-mismatch", func(t *testing.T) {
		st, err := catalog.Open(t.TempDir(), "some-other-model")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := New(emb, Config{Store: st, Index: ann.NewFlat(ann.Cosine)}); !errors.Is(err, ErrInput) {
			t.Fatalf("want ErrInput, got %v", err)
		}
	})
	t.Run("index-reconfigured", func(t *testing.T) {
		// Same embedder, different index seed: the graph the journal was
		// written against cannot be reproduced, so the open must fail.
		orig, err := ann.NewHNSW(ann.HNSWConfig{Seed: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := catalog.Open(t.TempDir(), StoreIdentity(fp, orig))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		reseeded, err := ann.NewHNSW(ann.HNSWConfig{Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(emb, Config{Store: st, Index: reseeded}); !errors.Is(err, ErrInput) {
			t.Fatalf("reconfigured index accepted: %v", err)
		}
	})
	t.Run("older-default-beam", func(t *testing.T) {
		// A store written when the default construction beam was 200 is
		// refused by a server on today's default, and the message shows the
		// parameter that differs rather than the shared model digest twice.
		old, err := ann.NewHNSW(ann.HNSWConfig{EfConstruction: 200}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := catalog.Open(t.TempDir(), StoreIdentity(fp, old))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cur, err := ann.NewHNSW(ann.HNSWConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(emb, Config{Store: st, Index: cur})
		if !errors.Is(err, ErrInput) {
			t.Fatalf("store from the 200-wide default accepted: %v", err)
		}
		for _, want := range []string{"…|hnsw:m=16,efc=200,", "…|hnsw:m=16,efc=48,"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not show %q", err, want)
			}
		}
		if strings.Contains(err.Error(), fp[:12]) {
			t.Errorf("error %q repeats the model digest both sides share", err)
		}
	})
}

// TestCatalogHTTPLifecycle drives the /columns API end to end: list, add,
// remove, compact, and the 404/501 error paths.
func TestCatalogHTTPLifecycle(t *testing.T) {
	dir := t.TempDir()
	ds := testCatalog()
	s := newCatalogServer(t, dir, 2, Config{})
	h := s.Handler()

	code, body := doReq(t, h, "GET", "/columns", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"live": 0`) {
		t.Fatalf("empty list: %d %s", code, body)
	}
	code, body = doReq(t, h, "POST", "/columns", colsJSON(ds.Columns[:4]))
	if code != http.StatusOK || !strings.Contains(string(body), `"ids": [`) {
		t.Fatalf("add: %d %s", code, body)
	}
	code, body = doReq(t, h, "DELETE", "/columns/"+ds.Columns[1].Name, "")
	if code != http.StatusOK {
		t.Fatalf("remove by name: %d %s", code, body)
	}
	code, body = doReq(t, h, "DELETE", "/columns/@0", "")
	if code != http.StatusOK {
		t.Fatalf("remove by id: %d %s", code, body)
	}
	code, body = doReq(t, h, "DELETE", "/columns/definitely-missing", "")
	if code != http.StatusNotFound {
		t.Fatalf("missing remove: %d %s", code, body)
	}
	code, body = doReq(t, h, "POST", "/columns/compact", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"live": 2`) {
		t.Fatalf("compact: %d %s", code, body)
	}
	code, body = doReq(t, h, "GET", "/columns", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"live": 2`) {
		t.Fatalf("final list: %d %s", code, body)
	}

	// Without an index the whole surface 501s.
	bare := newTestServer(t, 2, Config{})
	code, _ = doReq(t, bare.Handler(), "GET", "/columns", "")
	if code != http.StatusNotImplemented {
		t.Fatalf("columns without index: %d", code)
	}
}

// TestStatsCountersUnderChurn hammers the catalog with concurrent embeds,
// adds and removes and then checks that the /stats counters and the
// index/store sizes are mutually consistent — the raciest invariants the
// idxMu protects.
func TestStatsCountersUnderChurn(t *testing.T) {
	dir := t.TempDir()
	ds := testCatalog()
	s := newCatalogServer(t, dir, 4, Config{})

	var wg sync.WaitGroup
	var removedTotal, notFound int64
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				col := ds.Columns[(g*7+i)%len(ds.Columns)]
				switch i % 3 {
				case 0:
					if _, err := s.Embed(context.Background(), []table.Column{col}); err != nil {
						t.Errorf("embed: %v", err)
					}
				case 1:
					if _, err := s.AddColumns(context.Background(), []table.Column{col}); err != nil {
						t.Errorf("add: %v", err)
					}
				case 2:
					ids, err := s.RemoveColumns(col.Name)
					mu.Lock()
					if err == nil {
						removedTotal += int64(len(ids))
					} else if errors.Is(err, ErrNotFound) {
						notFound++
					} else {
						t.Errorf("remove: %v", err)
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.Errors != 0 || st.IndexErrors != 0 || st.StoreErrors != 0 {
		t.Fatalf("errors under churn: %+v", st)
	}
	if st.Removes != removedTotal {
		t.Fatalf("stats removes %d, observed %d", st.Removes, removedTotal)
	}
	cols, err := s.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexSize != len(cols) {
		t.Fatalf("stats index size %d, listed %d", st.IndexSize, len(cols))
	}
	if st.StoreColumns != st.IndexSize {
		t.Fatalf("store %d vs index %d live columns", st.StoreColumns, st.IndexSize)
	}
	if int64(st.IndexTombstones) != st.Removes {
		t.Fatalf("tombstones %d, removes %d (no compaction ran)", st.IndexTombstones, st.Removes)
	}

	// The catalog is still fully functional: compaction drops every
	// tombstone and search answers.
	live, err := s.CompactCatalog()
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.IndexTombstones != 0 || after.IndexSize != live || after.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", after)
	}
	if live > 0 {
		if _, err := s.Search(context.Background(), ds.Columns[0], 3); err != nil {
			t.Fatalf("search after churn: %v", err)
		}
	}
}

// TestCatalogStoreFailurePropagates: when the journal cannot record a
// mutation, the mutation fails — the client must never get a success for
// a column that would vanish on restart.
func TestCatalogStoreFailurePropagates(t *testing.T) {
	dir := t.TempDir()
	ds := testCatalog()
	s := newCatalogServer(t, dir, 2, Config{})
	if _, err := s.AddColumns(context.Background(), ds.Columns[:2]); err != nil {
		t.Fatal(err)
	}
	// Kill the store out from under the server (shutdown race stand-in).
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.IndexLen()
	if _, err := s.AddColumns(context.Background(), ds.Columns[2:3]); err == nil {
		t.Fatal("add with a dead store must fail")
	}
	if s.IndexLen() != before {
		t.Fatalf("failed add still mutated the index: %d -> %d", before, s.IndexLen())
	}
	if _, err := s.RemoveColumns("@0"); err == nil {
		t.Fatal("remove with a dead store must fail")
	}
	if s.IndexLen() != before || s.Stats().IndexTombstones != 0 {
		t.Fatal("failed remove still mutated the index")
	}
	if s.Stats().StoreErrors == 0 {
		t.Fatal("store errors not counted")
	}
}

// TestCatalogReplayMatchesCompactedGraph pins the replay-order contract
// at a size where it matters: HNSW graphs DIFFER between one batched
// insertion and one-at-a-time insertion of the same ~300 vectors, a
// compaction rebuilds the index with a batched insert, and the restart
// replay must mirror that — batched for the snapshot section, one at a
// time for the journal — or the restarted graph (and with it /search)
// diverges. Vectors are injected through the store directly because real
// Gem embeddings are too clustered at test sizes to expose the
// asymmetry.
func TestCatalogReplayMatchesCompactedGraph(t *testing.T) {
	const dim = 15 // the test embedder's output dimensionality
	rng := rand.New(rand.NewSource(99))
	randVec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	key := func(i int) catalog.Key {
		var k catalog.Key
		k[0], k[1] = byte(i), byte(i>>8)
		return k
	}

	emb := fittedEmbedder(t, 2)
	fp, err := emb.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	idxCfg := ann.HNSWConfig{Metric: ann.Euclidean, Seed: 4}
	idProbe, err := ann.NewHNSW(idxCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	identity := StoreIdentity(fp, idProbe)
	dir := t.TempDir()
	st, err := catalog.Open(dir, identity)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-compaction history: 300 adds, 4 removes, then a compaction —
	// exactly what a server's CompactCatalog leaves behind (the store's
	// live order IS the rebuilt index's id order).
	vecs := make(map[catalog.Key][]float64)
	for i := 0; i < 300; i++ {
		e := catalog.Entry{Key: key(i), Name: fmt.Sprintf("c%d", i), Vec: randVec()}
		vecs[e.Key] = e.Vec
		if err := st.Append(catalog.Op{Kind: catalog.OpAdd, Entry: e}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{3, 17, 130, 250} {
		if err := st.Append(catalog.Op{Kind: catalog.OpRemove, Entry: catalog.Entry{Key: key(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction journal traffic: more adds and a remove.
	for i := 300; i < 320; i++ {
		e := catalog.Entry{Key: key(i), Name: fmt.Sprintf("c%d", i), Vec: randVec()}
		vecs[e.Key] = e.Vec
		if err := st.Append(catalog.Op{Kind: catalog.OpAdd, Entry: e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(catalog.Op{Kind: catalog.OpRemove, Entry: catalog.Entry{Key: key(5)}}); err != nil {
		t.Fatal(err)
	}
	snap, ops := st.Snapshot(), st.Ops()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: the graph the pre-restart server holds — the compaction's
	// batched rebuild of the snapshot, then the journal ops as the
	// individual calls they originally were. Euclidean metric so raw store
	// vectors feed the index unchanged.
	want, err := ann.NewHNSW(idxCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapVecs := make([][]float64, len(snap))
	idOf := make(map[catalog.Key]int)
	for i, e := range snap {
		snapVecs[i] = e.Vec
		idOf[e.Key] = i
	}
	if err := want.Add(snapVecs...); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		switch op.Kind {
		case catalog.OpAdd:
			if err := want.Add(vecs[op.Entry.Key]); err != nil {
				t.Fatal(err)
			}
			idOf[op.Entry.Key] = want.Len() - 1
		case catalog.OpRemove:
			if err := want.Remove(idOf[op.Entry.Key]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Sanity: at this size the order of insertion genuinely shapes the
	// graph — a fully one-at-a-time build differs — so a replay that used
	// the wrong call pattern could not pass the comparison below.
	naive, err := ann.NewHNSW(idxCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range snapVecs {
		if err := naive.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	var nb, wb0 bytes.Buffer
	if err := naive.Save(&nb); err != nil {
		t.Fatal(err)
	}
	ref, err := ann.NewHNSW(idxCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Add(snapVecs...); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&wb0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(nb.Bytes(), wb0.Bytes()) {
		t.Fatal("test setup too small: batched and incremental builds coincide")
	}

	// Restart: the server replays the store into an empty index; the
	// resulting graph must equal the reference byte for byte.
	st2, err := catalog.Open(dir, identity)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	idx, err := ann.NewHNSW(idxCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(emb, Config{Index: idx, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wantB, gotB bytes.Buffer
	if err := want.Save(&wantB); err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(&gotB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantB.Bytes(), gotB.Bytes()) {
		t.Error("replayed graph differs from the pre-restart (compacted + journaled) graph")
	}
	if srv.IndexLen() != want.Live() {
		t.Fatalf("replayed live %d, want %d", srv.IndexLen(), want.Live())
	}
}
