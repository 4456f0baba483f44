package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/table"
)

// testCatalog is the fixed corpus every serve test fits on and replays.
func testCatalog() *table.Dataset {
	return data.ScalabilityDataset(30, 5)
}

// fittedEmbedder fits, persists and reloads an embedder — the serve
// deployment mode: every server in these tests runs on the same persisted
// model bytes.
func fittedEmbedder(t testing.TB, workers int) *core.Embedder {
	t.Helper()
	e, err := core.NewEmbedder(core.Config{
		Components:     8,
		Restarts:       1,
		Seed:           11,
		SubsampleStack: 2000,
		Workers:        workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(testCatalog()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.LoadEmbedder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back.SetWorkers(workers)
	return back
}

func newTestServer(t testing.TB, workers int, cfg Config) *Server {
	t.Helper()
	s, err := New(fittedEmbedder(t, workers), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func rowsEqual(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d dims %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("row %d component %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// TestServeDeterministicAcrossPaths is the acceptance pin: for one fixed
// persisted embedder, responses are bit-identical across the cold path, the
// cached path, a batch of one, a coalesced concurrent batch, and server
// worker counts — all equal to the core single-column reference.
func TestServeDeterministicAcrossPaths(t *testing.T) {
	ds := testCatalog()
	cols := ds.Columns[:12]
	ref := fittedEmbedder(t, 2)
	want := make([][]float64, len(cols))
	for i, col := range cols {
		row, err := ref.EmbedColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = row
	}

	for _, tc := range []struct {
		name    string
		workers int
		cfg     Config
	}{
		{"serial batch-of-1", 1, Config{MaxBatch: 1}},
		{"parallel small batches", 4, Config{MaxBatch: 3}},
		{"parallel wide batches no cache", 8, Config{MaxBatch: 64, CacheSize: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.workers, tc.cfg)

			// Cold: one request per column, sequential.
			cold := make([][]float64, len(cols))
			for i, col := range cols {
				rows, err := s.Embed(context.Background(), []table.Column{col})
				if err != nil {
					t.Fatal(err)
				}
				cold[i] = rows[0]
			}
			if err := rowsEqual(cold, want); err != nil {
				t.Fatalf("cold path differs from reference: %v", err)
			}

			// Cached (or re-embedded when the cache is off): same answer.
			again, err := s.Embed(context.Background(), cols)
			if err != nil {
				t.Fatal(err)
			}
			if err := rowsEqual(again, want); err != nil {
				t.Fatalf("repeat path differs from reference: %v", err)
			}

			// Coalesced: every column arrives concurrently on its own
			// request; the batcher merges them arbitrarily.
			conc := make([][]float64, len(cols))
			var wg sync.WaitGroup
			errs := make([]error, len(cols))
			for i, col := range cols {
				wg.Add(1)
				go func(i int, col table.Column) {
					defer wg.Done()
					rows, err := s.Embed(context.Background(), []table.Column{col})
					if err != nil {
						errs[i] = err
						return
					}
					conc[i] = rows[0]
				}(i, col)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("concurrent embed %d: %v", i, err)
				}
			}
			if err := rowsEqual(conc, want); err != nil {
				t.Fatalf("coalesced path differs from reference: %v", err)
			}
		})
	}
}

func TestServeCacheHitsAndEviction(t *testing.T) {
	s := newTestServer(t, 2, Config{CacheSize: 2})
	ds := testCatalog()
	ctx := context.Background()

	if _, err := s.Embed(ctx, ds.Columns[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Embed(ctx, ds.Columns[:1]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate)
	}

	// Two more distinct columns evict the first (CacheSize 2, LRU).
	if _, err := s.Embed(ctx, ds.Columns[1:3]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 2 {
		t.Fatalf("cache entries = %d, want 2", st.CacheEntries)
	}
	if _, err := s.Embed(ctx, ds.Columns[:1]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 4 {
		t.Fatalf("evicted column should re-miss: misses = %d, want 4", st.Misses)
	}
}

// queuedBatcher returns a batcher with n jobs named j0..j(n-1) already in
// its queue and the dispatcher not yet started.
func queuedBatcher(t *testing.T, n, maxBatch int) (*batcher, []*job) {
	t.Helper()
	b := newBatcher(n, maxBatch)
	jobs := make([]*job, n)
	for i := range jobs {
		jobs[i] = &job{col: columnWork{name: fmt.Sprintf("j%d", i)}, done: make(chan struct{})}
		if err := b.submit(context.Background(), jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b, jobs
}

// TestServeCoalescing: the dispatcher takes the first job plus what is
// already queued behind it, up to MaxBatch, in queue order, and waits for
// nothing — so with the jobs queued before it starts the batches are exact,
// and a lone job is a batch of one.
func TestServeCoalescing(t *testing.T) {
	for _, tc := range []struct {
		n, maxBatch int
		want        []int
	}{
		{1, 16, []int{1}},
		{12, 16, []int{12}},
		{16, 16, []int{16}},
		{12, 5, []int{5, 5, 2}},
		{3, 1, []int{1, 1, 1}},
	} {
		b, jobs := queuedBatcher(t, tc.n, tc.maxBatch)
		var sizes []int
		var order []string
		go b.run(func(batch []*job) {
			sizes = append(sizes, len(batch))
			for _, j := range batch {
				order = append(order, j.col.name)
				j.finish(nil, nil)
			}
		})
		for _, j := range jobs {
			<-j.done
		}
		b.close() // waits for the dispatcher: sizes and order are settled
		if !slices.Equal(sizes, tc.want) {
			t.Errorf("%d queued jobs at MaxBatch %d ran as batches %v, want %v", tc.n, tc.maxBatch, sizes, tc.want)
		}
		for i, name := range order {
			if want := fmt.Sprintf("j%d", i); name != want {
				t.Errorf("%d jobs at MaxBatch %d: position %d ran %s, want %s", tc.n, tc.maxBatch, i, name, want)
				break
			}
		}
	}
}

// TestBatcherCloseWhileQueued: closing while jobs wait in the queue releases
// every waiter — the batches the dispatcher still reached are embedded, the
// rest fail with ErrClosed, in queue order, and later submits are refused.
func TestBatcherCloseWhileQueued(t *testing.T) {
	const n = 64
	b, jobs := queuedBatcher(t, n, 1)
	started, release := make(chan struct{}), make(chan struct{})
	go b.run(func(batch []*job) {
		if batch[0] == jobs[0] {
			close(started)
			<-release
		}
		batch[0].finish(nil, nil)
	})
	<-started
	closed := make(chan struct{})
	go func() {
		b.close()
		close(closed)
	}()
	<-b.quit // close has begun; the dispatcher is still inside the first batch
	if err := b.submit(context.Background(), &job{done: make(chan struct{})}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: got %v, want ErrClosed", err)
	}
	close(release)
	<-closed
	// The dispatcher picks between the queue and the quit signal at random
	// once both are ready, so how many more jobs it embeds varies — but not
	// all 63 of them (2^-63), never out of order, and nobody is left waiting.
	failed := 0
	for i, j := range jobs {
		<-j.done
		switch {
		case errors.Is(j.err, ErrClosed):
			failed++
		case j.err != nil:
			t.Errorf("job %d: %v", i, j.err)
		case failed > 0:
			t.Errorf("job %d was embedded after an earlier queued job had been failed", i)
		}
	}
	if failed == 0 || jobs[0].err != nil {
		t.Errorf("%d of %d queued jobs failed with ErrClosed (first job err %v); want the first embedded and the tail failed", failed, n, jobs[0].err)
	}
}

// TestServeConcurrentHammer drives many clients with duplicate-heavy
// traffic; run under -race this is the race-cleanliness acceptance. Every
// response must equal the reference regardless of interleaving.
func TestServeConcurrentHammer(t *testing.T) {
	s := newTestServer(t, 4, Config{MaxBatch: 8, CacheSize: 16})
	ds := testCatalog()
	pool := ds.Columns[:10]
	ref := fittedEmbedder(t, 2)
	want := make([][]float64, len(pool))
	for i, col := range pool {
		row, err := ref.EmbedColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = row
	}

	const clients, perClient = 16, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				i := (c*perClient + r*7) % len(pool)
				rows, err := s.Embed(context.Background(), []table.Column{pool[i]})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if err := rowsEqual(rows, want[i:i+1]); err != nil {
					t.Errorf("client %d column %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	if got := st.Hits + st.Misses; got != clients*perClient {
		t.Errorf("hits+misses = %d, want %d", got, clients*perClient)
	}
	if st.Requests != clients*perClient {
		t.Errorf("requests = %d, want %d", st.Requests, clients*perClient)
	}
	if st.Hits == 0 {
		t.Error("duplicate-heavy traffic produced no cache hits")
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
}

func TestServeRequestValidation(t *testing.T) {
	s := newTestServer(t, 1, Config{})
	ctx := context.Background()
	if _, err := s.Embed(ctx, nil); !errors.Is(err, ErrInput) {
		t.Errorf("empty request: want ErrInput, got %v", err)
	}
	if _, err := s.Embed(ctx, []table.Column{{Name: "empty"}}); !errors.Is(err, ErrInput) {
		t.Errorf("empty column: want ErrInput, got %v", err)
	}
	bad := []table.Column{
		{Name: "ok", Values: []float64{1, 2}},
		{Name: "nan", Values: []float64{1, math.NaN()}},
	}
	if _, err := s.Embed(ctx, bad); !errors.Is(err, ErrInput) {
		t.Errorf("NaN column: want ErrInput, got %v", err)
	}
	if _, err := s.Embed(ctx, []table.Column{{Name: "inf", Values: []float64{math.Inf(1)}}}); !errors.Is(err, ErrInput) {
		t.Errorf("Inf column: want ErrInput, got %v", err)
	}
	// The bad batch must not have poisoned anything: the good column still
	// embeds.
	if _, err := s.Embed(ctx, bad[:1]); err != nil {
		t.Errorf("good column after bad batch: %v", err)
	}
}

func TestServeClose(t *testing.T) {
	s := newTestServer(t, 1, Config{})
	ds := testCatalog()
	if _, err := s.Embed(context.Background(), ds.Columns[:1]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, err := s.Embed(context.Background(), ds.Columns[1:2])
	if !errors.Is(err, ErrClosed) {
		t.Errorf("after close: want ErrClosed, got %v", err)
	}
	// A fully cached request must honour the contract too, not quietly
	// keep succeeding.
	_, err = s.Embed(context.Background(), ds.Columns[:1])
	if !errors.Is(err, ErrClosed) {
		t.Errorf("cached request after close: want ErrClosed, got %v", err)
	}
}

func TestServeWarmIndex(t *testing.T) {
	s := newTestServer(t, 2, Config{Index: ann.NewFlat(ann.Cosine)})
	ds := testCatalog()
	ctx := context.Background()

	if _, err := s.Embed(ctx, ds.Columns[:8]); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexLen(); got != 8 {
		t.Fatalf("index size = %d, want 8", got)
	}
	// Re-embedding the same columns must not duplicate index entries.
	if _, err := s.Embed(ctx, ds.Columns[:8]); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexLen(); got != 8 {
		t.Fatalf("index size after re-embed = %d, want 8", got)
	}

	// Searching an already-served column excludes its own content and
	// returns named neighbours.
	hits, err := s.Search(ctx, ds.Columns[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(hits))
	}
	for _, h := range hits {
		if h.Name == ds.Columns[0].Name {
			t.Errorf("query content leaked into its own results: %+v", h)
		}
		if h.Name == "" {
			t.Errorf("hit without a name: %+v", h)
		}
	}

	// Searching a NEW column feeds it into the warm index first.
	before := s.IndexLen()
	if _, err := s.Search(ctx, ds.Columns[20], 3); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexLen(); got != before+1 {
		t.Errorf("search did not warm the index: %d -> %d", before, got)
	}
}

func TestServeSearchWithoutIndex(t *testing.T) {
	s := newTestServer(t, 1, Config{})
	_, err := s.Search(context.Background(), testCatalog().Columns[0], 3)
	if !errors.Is(err, ErrNoIndex) {
		t.Errorf("want ErrNoIndex, got %v", err)
	}
}

func TestServePreloadedIndexNames(t *testing.T) {
	// Preload a flat index with two vectors; one gets a name, the other
	// falls back to "@1".
	e := fittedEmbedder(t, 2)
	idx := ann.NewFlat(ann.Cosine)
	ds := testCatalog()
	vs, err := e.EmbedVectors(ds.Subset(2), ann.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(vs.Vectors...); err != nil {
		t.Fatal(err)
	}
	s, err := New(e, Config{Index: idx, IndexNames: vs.Names[:1]})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hits, err := s.Search(context.Background(), ds.Columns[5], 2)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, h := range hits {
		names[h.Name] = true
	}
	if !names[vs.Names[0]] || !names["@1"] {
		t.Errorf("preloaded names wrong: %v", hits)
	}
}

func TestCacheKeyNameOnlyWhenContextual(t *testing.T) {
	// Value-only embedder: the name does not enter the embedding, so a
	// renamed copy of a served column must hit the cache.
	s := newTestServer(t, 2, Config{})
	vals := []float64{2, 4, 8, 16, 32, 64}
	ctx := context.Background()
	a, err := s.Embed(ctx, []table.Column{{Name: "price", Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Embed(ctx, []table.Column{{Name: "cost", Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("renamed copy on value-only config: hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if err := rowsEqual(a, b); err != nil {
		t.Fatalf("renamed copy answered differently: %v", err)
	}

	// Contextual embedder: the name DOES enter the embedding, so the
	// renamed copy must miss and embed separately.
	e, err := core.NewEmbedder(core.Config{
		Components:     8,
		Restarts:       1,
		Seed:           11,
		SubsampleStack: 2000,
		Workers:        2,
		Features:       core.Distributional | core.Statistical | core.Contextual,
		HeaderDim:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(testCatalog()); err != nil {
		t.Fatal(err)
	}
	cs, err := New(e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	// "price" vs "temperature": semantically unrelated headers (textembed
	// deliberately gives synonyms like price/cost identical embeddings).
	ca, err := cs.Embed(ctx, []table.Column{{Name: "price", Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cs.Embed(ctx, []table.Column{{Name: "temperature", Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	if st := cs.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("renamed copy on contextual config: hits/misses = %d/%d, want 0/2", st.Hits, st.Misses)
	}
	if err := rowsEqual(ca, cb); err == nil {
		t.Error("contextual embeddings of unrelated column names should differ")
	}
}

func TestEmbedSnapshotsValues(t *testing.T) {
	// The caller may reuse its buffer the moment Embed returns: the cached
	// row must reflect the bytes at submission, not whatever the buffer
	// holds later.
	s := newTestServer(t, 2, Config{})
	vals := []float64{1, 2, 3, 4, 5, 6}
	col := table.Column{Name: "reused", Values: vals}
	want, err := s.Embed(context.Background(), []table.Column{col})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		vals[i] = -99
	}
	again, err := s.Embed(context.Background(), []table.Column{{Name: "reused", Values: []float64{1, 2, 3, 4, 5, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rowsEqual(again, want); err != nil {
		t.Errorf("cached row tied to the caller's mutated buffer: %v", err)
	}
}

func TestNewRejectsMismatchedIndex(t *testing.T) {
	e := fittedEmbedder(t, 2)
	idx := ann.NewFlat(ann.Cosine)
	if err := idx.Add([]float64{1, 2, 3}); err != nil { // wrong dim
		t.Fatal(err)
	}
	_, err := New(e, Config{Index: idx})
	if !errors.Is(err, ErrInput) {
		t.Errorf("mismatched index dim: want ErrInput at startup, got %v", err)
	}
	// An EMPTY index has no dimensionality yet and must be accepted.
	s, err := New(e, Config{Index: ann.NewFlat(ann.Cosine)})
	if err != nil {
		t.Fatalf("empty index rejected: %v", err)
	}
	s.Close()
}

func TestNewRejectsUnservable(t *testing.T) {
	unfitted, err := core.NewEmbedder(core.Config{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(unfitted, Config{}); err == nil {
		t.Error("unfitted embedder must be rejected at startup")
	}

	aeCfg := core.Config{
		Components:     4,
		Restarts:       1,
		Seed:           1,
		SubsampleStack: 1000,
		Features:       core.Distributional | core.Statistical | core.Contextual,
		Composition:    core.AE,
		HeaderDim:      16,
	}
	ae, err := core.NewEmbedder(aeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ae.Fit(testCatalog()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(ae, Config{}); err == nil {
		t.Error("AE composition must be rejected at startup, not on the first request")
	}
}
