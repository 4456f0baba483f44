package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/gmm"
	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// The per-layer ladder, measured in the traced run only. The spans sit in
// this file, outside the program, so a request's way down the layers is
// rebuilt by replaying one input through each rung in turn:
//
//	read:  ann.Index.Search → shard.Catalog.Search → Server.Search →
//	       handler on a recorder → loopback HTTP → proxy
//	write: core.EmbedColumn → catalog.Store.Append → shard.Catalog.Add →
//	       Server.AddColumns → POST /columns
//	fit:   gmm.FitWithStats → core.Embedder.Fit
//
// A rung's self time is its median minus the median of the rung below.
// The lower read rungs call into the very index and catalog the server was
// given: nothing else is in flight while the ladder runs.

var perLayer = []metricDef{
	{"gmm.fit_s", "s"},
	{"gmm.estep_s", "s"},
	{"gmm.mstep_s", "s"},
	{"gmm.em_iterations", "count"},
	{"gmm.converged_restarts", "count"},
	{"gmm.final_loglik", "nat"},
	{"gmm.fit_w2_speedup", "ratio"},
	{"gmm.mean_resp_ns_per_value", "ns"},
	{"core.fit_self_s", "s"},
	{"core.signatures_cols_per_s", "1/s"},
	{"core.embed_self_frac", "fraction"},
	{"core.embed_column_us.v100", "us"},
	{"core.embed_column_us.v1000", "us"},
	{"core.load_embedder_ms", "ms"},
	{"ann.hnsw.search_us", "us"},
	{"ann.flat.search_us", "us"},
	{"ann.flat_f32.search_us", "us"},
	{"ann.flat_int8.search_us", "us"},
	{"ann.searcher.search_us", "us"},
	{"ann.search.allocs_per_query", "count"},
	{"ann.searcher.allocs_per_query", "count"},
	{"ann.searchbatch16.us_per_query", "us"},
	{"ann.hnsw.recall_at_10", "fraction"},
	{"ann.bytes_per_vec", "B"},
	{"ann.hnsw.add_us_per_vec", "us"},
	{"ann.flat.add_us_per_vec", "us"},
	{"ann.hnsw.rebuild_s", "s"},
	{"ann.hnsw.tombstoned_search_us", "us"},
	{"shard.search_us", "us"},
	{"shard.searchbatch16.us_per_query", "us"},
	{"shard.add_us", "us"},
	{"shard.compact_s", "s"},
	{"catalog.append_us", "us"},
	{"catalog.append_p99_us", "us"},
	{"catalog.journal_bytes_per_add", "B"},
	{"catalog.compact_s", "s"},
	{"catalog.open_replay_s", "s"},
	{"catalog.snapshot_bytes_per_col", "B"},
	{"serve.search_hit_us", "us"},
	{"serve.search_miss_us.v1000", "us"},
	{"serve.batch_wait_us", "us"},
	{"serve.embed_batch64_cols_per_s", "1/s"},
	{"serve.mean_batch", "count"},
	{"serve.cache_hit_rate", "fraction"},
	{"serve.cold_cache_hit_rate", "fraction"},
	{"serve.add_us", "us"},
	{"serve.remove_by_name_us", "us"},
	{"serve.compact_s", "s"},
	{"serve.new_replay_s", "s"},
	{"http.handler_search_us", "us"},
	{"http.search_hit_us", "us"},
	{"http.search_p95_ms", "ms"},
	{"http.search_p99_ms", "ms"},
	{"http.cold_search_p95_ms", "ms"},
	{"http.load_cols_per_s", "1/s"},
	{"http.add_p95_ms", "ms"},
	{"http.remove_p50_ms", "ms"},
	{"http.max_stall_ms", "ms"},
	{"http.req_bytes", "B"},
	{"http.resp_bytes", "B"},
	{"http.allocs_per_req", "count"},
	{"http.open.achieved_qps", "1/s"},
	{"http.open.late_p99_ms", "ms"},
	{"proxy.search_p50_ms", "ms"},
	{"proxy.searchbatch16.us_per_query", "us"},
	{"obs.overhead_frac", "fraction"},
	{"rt.gc_cycles", "count"},
	{"rt.gc_pause_ms", "ms"},
	{"rt.mallocs_per_op", "count"},
	{"trace.overhead_frac", "fraction"},
}

// rung times n calls of fn, one span each, and returns the per-call
// microseconds. Call i of every rung carries requests[i mod len], so the
// spans of one replayed input share a request identifier.
func (b *bench) rung(name string, root, n int, requests []int, fn func(i int) error) ([]float64, error) {
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		req := 0
		if len(requests) > 0 {
			req = requests[i%len(requests)]
		}
		sp := b.tr.begin(name, root, req)
		t0 := time.Now()
		err := fn(i)
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		b.tr.end(sp)
		if !b.op(name, err) {
			return nil, err
		}
	}
	return us, nil
}

// allocsPer is the heap allocation count of one call of fn, averaged over
// n calls.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// ladder measures every per-layer metric that the phases have not already
// filed while they ran.
func (b *bench) ladder() error {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	b.values["rt.gc_cycles"] = float64(now.NumGC - b.mem.NumGC)
	b.values["rt.gc_pause_ms"] = float64(now.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	b.values["rt.mallocs_per_op"] = float64(now.Mallocs-b.mem.Mallocs) / float64(b.attempted)

	for _, step := range []func() error{
		b.fitLadder, b.readLadder, b.proxyRung, b.annTwins, b.writeLadder, b.overheads,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// fitLadder: gmm.FitWithStats below core.Embedder.Fit, then the embed path.
func (b *bench) fitLadder() error {
	root := b.tr.begin("ladder.fit", 0, 0)
	defer b.tr.end(root)

	// core's subsample is private; an equally sized seeded sample of the
	// same stack costs EM the same.
	stack := b.fitCorpus.Stack()
	if len(stack) > b.sz.subsampleStack {
		rng := rand.New(rand.NewSource(b.seed))
		rng.Shuffle(len(stack), func(i, j int) { stack[i], stack[j] = stack[j], stack[i] })
		stack = stack[:b.sz.subsampleStack]
	}
	cfg := gmm.Config{K: b.sz.components, MaxIter: b.sz.maxIter, Restarts: b.w.restarts, Seed: b.seed}
	fit := func(width int) (float64, error) {
		cfg.Pool = pool.New(width)
		sp := b.tr.begin("gmm.fit", root, 0)
		t0 := time.Now()
		_, _, err := gmm.FitWithStats(stack, cfg)
		d := time.Since(t0).Seconds()
		b.tr.end(sp)
		b.op("gmm fit", err)
		return d, err
	}
	w1, err := fit(workers)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(2) // the one place the run uses the second core
	w2, err := fit(2)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	b.values["gmm.fit_s"] = w1
	b.values["gmm.fit_w2_speedup"] = w1 / w2
	b.values["core.fit_self_s"] = b.values["fit_s"] - w1

	// The counts come from the fit core itself ran in set-up, on the stack
	// core fits; they repeat exactly for one seed.
	st := b.emb.FitStats()
	converged := 0
	for _, r := range st.Restarts {
		if r.Converged {
			converged++
		}
	}
	b.values["gmm.estep_s"] = st.EStepSeconds
	b.values["gmm.mstep_s"] = st.MStepSeconds
	b.values["gmm.em_iterations"] = float64(st.Iterations())
	b.values["gmm.converged_restarts"] = float64(converged)
	b.values["gmm.final_loglik"] = st.Restarts[st.Winner].LogLikelihood

	long := newFreshColumns(stream(b.seed, streamLadder), "ladder")
	v1000 := long.next(b.sz.coldValues)
	v100 := long.next(b.sz.coldValues / 10)
	model := b.emb.Model()
	us, err := b.rung("gmm.mean_responsibilities", root, b.sz.ladderCalls, nil, func(int) error {
		_, err := model.MeanResponsibilities(v1000.Values)
		return err
	})
	if err != nil {
		return err
	}
	b.values["gmm.mean_resp_ns_per_value"] = 1000 * median(us) / float64(len(v1000.Values))
	for _, c := range []struct {
		metric string
		col    table.Column
	}{{"core.embed_column_us.v100", v100}, {"core.embed_column_us.v1000", v1000}} {
		us, err := b.rung("core.embed_column", root, b.sz.ladderCalls, nil, func(int) error {
			_, err := b.emb.EmbedColumn(c.col)
			return err
		})
		if err != nil {
			return err
		}
		b.values[c.metric] = median(us)
	}

	sp := b.tr.begin("core.signatures", root, 0)
	t0 := time.Now()
	_, err = b.emb.Signatures(b.labelled)
	sig := time.Since(t0).Seconds()
	b.tr.end(sp)
	if !b.op("signatures", err) {
		return err
	}
	n := float64(len(b.labelled.Columns))
	b.values["core.signatures_cols_per_s"] = n / sig
	b.values["core.embed_self_frac"] = 1 - sig/(n/b.values["embed_cols_per_s"])

	var saved bytes.Buffer
	if err := b.emb.Save(&saved); err != nil {
		return err
	}
	ms, err := b.rung("core.load_embedder", root, 8, nil, func(int) error {
		_, err := core.LoadEmbedder(bytes.NewReader(saved.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	b.values["core.load_embedder_ms"] = median(ms) / 1000
	return nil
}

// ladderQueries are the hot queries the read rungs replay, as columns, as
// unit query vectors, as request bodies, and the request identifier each
// carries on every rung.
type ladderQueries struct {
	cols     []table.Column
	vecs     [][]float64
	bodies   [][]byte
	requests []int
}

func (b *bench) ladderQueries(n int) (*ladderQueries, error) {
	n = min(n, len(b.hotCols))
	q := &ladderQueries{cols: b.hotCols[:n], bodies: b.hotBodies[:n]}
	for _, col := range q.cols {
		v, err := b.emb.EmbedColumn(col)
		if err != nil {
			return nil, err
		}
		q.vecs = append(q.vecs, stats.L2Normalize(v))
		q.requests = append(q.requests, b.tr.nextRequest())
	}
	return q, nil
}

// readLadder replays the hot queries through every read rung of the
// running system.
func (b *bench) readLadder() error {
	root := b.tr.begin("ladder.read", 0, 0)
	defer b.tr.end(root)
	q, err := b.ladderQueries(256)
	if err != nil {
		return err
	}
	b.q = q
	sys := b.sys
	nq := len(q.vecs)
	ctx := context.Background()
	handler := sys.srv.Handler()
	serveRecorded := func(i int) error {
		req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(q.bodies[i%nq]))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d", rec.Code)
		}
		return nil
	}
	searchIndexes := func(i int) error { // one query costs one search of every shard's index
		for _, idx := range sys.idxs {
			if _, err := idx.Search(q.vecs[i%nq], k+1); err != nil {
				return err
			}
		}
		return nil
	}
	var reqBytes, respBytes float64
	var clientUS []float64 // the top rung as the load generator clocks it
	rungs := []struct {
		span, metric string
		call         func(i int) error
	}{
		{"ann.search", "ann.hnsw.search_us", searchIndexes},
		{"shard.search", "shard.search_us", func(i int) error {
			_, err := sys.cat.Search(q.vecs[i%nq], k+1)
			return err
		}},
		{"serve.search", "serve.search_hit_us", func(i int) error {
			hits, err := sys.srv.Search(ctx, q.cols[i%nq], k)
			if err == nil && len(hits) != k {
				err = fmt.Errorf("%d hits", len(hits))
			}
			return err
		}},
		{"http.handler", "http.handler_search_us", serveRecorded},
		{"http.search", "http.search_hit_us", func(i int) error {
			resp, d, err := b.gen.do(http.MethodPost, "/search", q.bodies[i%nq])
			clientUS = append(clientUS, float64(d)/float64(time.Microsecond))
			reqBytes += float64(len(q.bodies[i%nq]))
			respBytes += float64(len(resp))
			return err
		}},
	}
	// The rungs take turns in eight blocks: long enough that a rung runs
	// with its own code warm, as it does in a micro-benchmark of that layer,
	// short enough that a drift of the host falls on every rung alike. A
	// block is a slice: a rung's value is the best quarter of its block
	// medians, the estimator of the end-to-end phase it is compared with.
	block := b.sz.ladderCalls / 8
	medians := make([][]float64, len(rungs))
	for first := 0; first < b.sz.ladderCalls; first += block {
		for j := range rungs {
			// Each round starts one rung further on, so that no rung is always
			// the one that follows the cache-hungry HTTP rung.
			r := (first/block + j) % len(rungs)
			rung := rungs[r]
			clientUS = clientUS[:0]
			us, err := b.rung(rung.span, root, block, q.requests[first%nq:], func(i int) error { return rung.call(first + i) })
			if err != nil {
				return err
			}
			if r == len(rungs)-1 {
				us = clientUS
			}
			medians[r] = append(medians[r], median(us))
		}
	}
	for r, rung := range rungs {
		b.record(rung.metric, "us", medians[r], true)
	}
	b.values["http.req_bytes"] = reqBytes / float64(b.sz.ladderCalls)
	b.values["http.resp_bytes"] = respBytes / float64(b.sz.ladderCalls)
	b.values["ann.search.allocs_per_query"] = allocsPer(b.sz.ladderCalls, func(i int) { searchIndexes(i) })
	b.values["http.allocs_per_req"] = allocsPer(b.sz.ladderCalls, func(i int) { serveRecorded(i) })

	// The miss path: the same call with never-seen 1000-value columns. What
	// it costs beyond embedding the column and answering a hit is waiting
	// for the micro-batcher.
	miss := newFreshColumns(stream(b.seed, streamLadder)+1, "miss")
	missUS, err := b.rung("serve.search_miss", root, b.sz.ladderCalls/2, nil, func(int) error {
		_, err := sys.srv.Search(ctx, miss.next(b.sz.coldValues), k)
		return err
	})
	if err != nil {
		return err
	}
	b.values["serve.search_miss_us.v1000"] = median(missUS)
	b.values["serve.batch_wait_us"] = median(missUS) - b.values["core.embed_column_us.v1000"] - b.values["serve.search_hit_us"]

	rates := make([]float64, 8)
	for i := range rates {
		cols := miss.batch(b.sz.embedColumns, b.sz.coldValues)
		sp := b.tr.begin("serve.embed_batch", root, 0)
		t0 := time.Now()
		_, err := sys.srv.Embed(ctx, cols)
		rates[i] = float64(len(cols)) / time.Since(t0).Seconds()
		b.tr.end(sp)
		if !b.op("serve embed batch", err) {
			return err
		}
	}
	b.values["serve.embed_batch64_cols_per_s"] = bestQuarter(rates, false)
	return nil
}

// backend is one store-less search server of the proxy rung or the
// instrumentation twins.
type backend struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (b *bench) newBackend(cols []table.Column, metrics bool) (*backend, error) {
	idx, err := ann.NewHNSW(ann.HNSWConfig{Metric: ann.Cosine}, pool.New(workers))
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Index: idx}
	if metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	srv, err := serve.New(b.emb, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(cols); i += b.sz.loadChunk {
		if _, err := srv.AddColumns(context.Background(), cols[i:min(i+b.sz.loadChunk, len(cols))]); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return &backend{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (be *backend) close() {
	be.ts.Close()
	be.srv.Close()
}

// proxyRung is the last read rung: the catalog split over two in-process
// backends behind serve.NewProxy.
func (b *bench) proxyRung() error {
	root := b.tr.begin("ladder.proxy", 0, 0)
	defer b.tr.end(root)
	half := len(b.catalogCols) / 2
	var urls []string
	for _, cols := range [][]table.Column{b.catalogCols[:half], b.catalogCols[half:]} {
		be, err := b.newBackend(cols, true)
		if err != nil {
			return err
		}
		defer be.close()
		urls = append(urls, be.ts.URL)
	}
	proxy, err := serve.NewProxy(serve.ProxyConfig{Backends: urls, Client: &http.Client{}})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(proxy.Handler())
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.closeIdle()

	q := b.q
	nq := min(64, len(q.bodies))
	batches := b.hotBatches[:nq/b.sz.batchColumns] // the same nq columns, batched
	// Both backends embed each query once.
	for _, body := range q.bodies[:nq] {
		if _, _, err := c.do(http.MethodPost, "/search", body); !b.op("proxy warm-up", err) {
			return err
		}
	}
	us, err := b.rung("proxy.search", root, b.sz.ladderCalls, q.requests[:nq], func(i int) error {
		resp, _, err := c.do(http.MethodPost, "/search", q.bodies[i%nq])
		if err == nil {
			b.checkHits(resp, k)
		}
		return err
	})
	if err != nil {
		return err
	}
	b.values["proxy.search_p50_ms"] = median(us) / 1000
	if us, err = b.rung("proxy.search_batch", root, b.sz.ladderCalls/8, nil, func(i int) error {
		_, _, err := c.do(http.MethodPost, "/search", batches[i%len(batches)])
		return err
	}); err != nil {
		return err
	}
	b.values["proxy.searchbatch16.us_per_query"] = median(us) / float64(b.sz.batchColumns)
	return nil
}

// liveVectors reads the catalog's live embeddings back from the stores,
// unit length, in each shard's replay order.
func (b *bench) liveVectors() [][]float64 {
	var vecs [][]float64
	for _, st := range b.sys.stores {
		for _, e := range st.Live() {
			vecs = append(vecs, stats.L2Normalize(e.Vec))
		}
	}
	return vecs
}

// annTwins builds a Flat and an HNSW index over the catalog's live vectors
// to price what the running server's index cannot be asked without
// disturbing it: insertion, the exact scan, tombstones, rebuild.
func (b *bench) annTwins() error {
	root := b.tr.begin("ladder.ann", 0, 0)
	defer b.tr.end(root)
	vecs := b.liveVectors()
	q := b.q
	nq := len(q.vecs)

	build := func(name string, idx ann.Index) (float64, error) {
		sp := b.tr.begin(name, root, 0)
		t0 := time.Now()
		err := idx.Add(vecs...)
		d := time.Since(t0)
		b.tr.end(sp)
		b.op(name, err)
		return float64(d) / float64(time.Microsecond) / float64(len(vecs)), err
	}
	search := func(name string, idx ann.Index) (float64, error) {
		us, err := b.rung(name, root, b.sz.ladderCalls, q.requests, func(i int) error {
			_, err := idx.Search(q.vecs[i%nq], k+1)
			return err
		})
		return median(us), err
	}

	flat := ann.NewFlat(ann.Cosine)
	var err error
	if b.values["ann.flat.add_us_per_vec"], err = build("ann.flat.add", flat); err != nil {
		return err
	}
	if b.values["ann.flat.search_us"], err = search("ann.flat.search", flat); err != nil {
		return err
	}
	hnsw, err := ann.NewHNSW(ann.HNSWConfig{Metric: ann.Cosine}, pool.New(workers))
	if err != nil {
		return err
	}
	if b.values["ann.hnsw.add_us_per_vec"], err = build("ann.hnsw.add", hnsw); err != nil {
		return err
	}
	var size countingWriter
	if err := hnsw.Save(&size); err != nil {
		return err
	}
	b.values["ann.bytes_per_vec"] = float64(size) / float64(len(vecs))

	var found, want int
	for _, v := range q.vecs {
		exact, err := flat.Search(v, k)
		if err != nil {
			return err
		}
		approx, err := hnsw.Search(v, k)
		if err != nil {
			return err
		}
		ids := make(map[int]bool, k)
		for _, r := range exact {
			ids[r.ID] = true
		}
		for _, r := range approx {
			if ids[r.ID] {
				found++
			}
		}
		want += len(exact)
	}
	b.values["ann.hnsw.recall_at_10"] = float64(found) / float64(want)

	if err := b.tierRungs(root, flat, vecs); err != nil {
		return err
	}

	// One vector in eight tombstoned, the state just before a compaction
	// when a catalog churns an eighth of itself between two of them.
	for id := 0; id < len(vecs); id += 8 {
		if err := hnsw.Remove(id); err != nil {
			return err
		}
	}
	if b.values["ann.hnsw.tombstoned_search_us"], err = search("ann.hnsw.tombstoned_search", hnsw); err != nil {
		return err
	}
	sp := b.tr.begin("ann.hnsw.rebuild", root, 0)
	t0 := time.Now()
	_, err = hnsw.Rebuild()
	b.values["ann.hnsw.rebuild_s"] = time.Since(t0).Seconds()
	b.tr.end(sp)
	b.op("hnsw rebuild", err)
	return err
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// tierRungs prices the ann tiers and search forms beside the ones the
// server uses: the float32 and int8 scans, ann.Searcher, and SearchBatch on
// index and catalog. ROADMAP.md queues some of them for deletion or
// merging; the change that removes one removes its rung and its metric here
// and in BENCHMARK.json.
func (b *bench) tierRungs(root int, flat *ann.Flat, vecs [][]float64) error {
	q := b.q
	nq := len(q.vecs)
	for _, tier := range []struct {
		span, metric string
		prec         ann.Precision
	}{
		{"ann.flat_f32.search", "ann.flat_f32.search_us", ann.Float32},
		{"ann.flat_int8.search", "ann.flat_int8.search_us", ann.Int8},
	} {
		idx, err := ann.NewFlatAt(ann.Cosine, tier.prec)
		if err != nil {
			return err
		}
		if err := idx.Add(vecs...); err != nil {
			return err
		}
		us, err := b.rung(tier.span, root, b.sz.ladderCalls, q.requests, func(i int) error {
			_, err := idx.Search(q.vecs[i%nq], k+1)
			return err
		})
		if err != nil {
			return err
		}
		b.values[tier.metric] = median(us)
	}

	searcher, err := ann.NewSearcher(flat)
	if err != nil {
		return err
	}
	us, err := b.rung("ann.searcher.search", root, b.sz.ladderCalls, q.requests, func(i int) error {
		_, err := searcher.Search(q.vecs[i%nq], k+1)
		return err
	})
	if err != nil {
		return err
	}
	b.values["ann.searcher.search_us"] = median(us)
	b.values["ann.searcher.allocs_per_query"] = allocsPer(b.sz.ladderCalls, func(i int) { searcher.Search(q.vecs[i%nq], k+1) })

	// Batches of batchColumns queries through the server's own index and
	// catalog, like one batched /search.
	var batches [][][]float64
	for i := 0; i+b.sz.batchColumns <= nq; i += b.sz.batchColumns {
		batches = append(batches, q.vecs[i:i+b.sz.batchColumns])
	}
	per := float64(b.sz.batchColumns)
	if us, err = b.rung("ann.search_batch", root, b.sz.ladderCalls/8, nil, func(i int) error {
		for _, idx := range b.sys.idxs {
			if _, err := idx.SearchBatch(batches[i%len(batches)], k+1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	b.values["ann.searchbatch16.us_per_query"] = median(us) / per
	if us, err = b.rung("shard.search_batch", root, b.sz.ladderCalls/8, nil, func(i int) error {
		_, err := b.sys.cat.SearchBatch(batches[i%len(batches)], k+1)
		return err
	}); err != nil {
		return err
	}
	b.values["shard.searchbatch16.us_per_query"] = median(us) / per
	return nil
}

// writeLadder walks one add down the layers: catalog.Store.Append on a
// twin store, shard.Catalog.Add on the server's own catalog,
// Server.AddColumns and RemoveColumns, then the two compactions.
func (b *bench) writeLadder() error {
	root := b.tr.begin("ladder.write", 0, 0)
	defer b.tr.end(root)
	sys := b.sys
	ctx := context.Background()
	fresh := newFreshColumns(stream(b.seed, streamLadder)+2, "rung")

	// A twin store takes the catalog's live entries one append at a time.
	dir, err := os.MkdirTemp(b.workDir, "twin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var entries []catalog.Entry
	for _, st := range sys.stores {
		entries = append(entries, st.Live()...)
	}
	twin, err := catalog.Open(dir, "twin")
	if err != nil {
		return err
	}
	us, err := b.rung("catalog.append", root, len(entries), nil, func(i int) error {
		return twin.Append(catalog.Op{Kind: catalog.OpAdd, Entry: entries[i]})
	})
	if err != nil {
		twin.Close()
		return err
	}
	b.values["catalog.append_us"] = median(us)
	b.values["catalog.append_p99_us"] = quantile(us, 0.99)
	if b.values["catalog.journal_bytes_per_add"], err = fileBytesPer(filepath.Join(dir, "journal.gemcat"), len(entries)); err != nil {
		twin.Close()
		return err
	}
	sp := b.tr.begin("catalog.compact", root, 0)
	t0 := time.Now()
	err = twin.Compact()
	b.values["catalog.compact_s"] = time.Since(t0).Seconds()
	b.tr.end(sp)
	if !b.op("store compact", err) {
		twin.Close()
		return err
	}
	if err := twin.Close(); err != nil {
		return err
	}
	if b.values["catalog.snapshot_bytes_per_col"], err = fileBytesPer(filepath.Join(dir, "snapshot.gemcat"), len(entries)); err != nil {
		return err
	}

	// shard.Catalog.Add: journal append plus index insert at full size.
	type keyed struct {
		key catalog.Key
		col table.Column
		vec []float64
	}
	adds := make([]keyed, 128)
	for i := range adds {
		col := fresh.next(0)
		vec, err := b.emb.EmbedColumn(col)
		if err != nil {
			return err
		}
		adds[i] = keyed{sha256.Sum256([]byte(col.Name)), col, vec}
	}
	if us, err = b.rung("shard.add", root, len(adds), nil, func(i int) error {
		_, err := sys.cat.Add(adds[i].key, adds[i].col.Name, adds[i].vec)
		return err
	}); err != nil {
		return err
	}
	b.values["shard.add_us"] = median(us)

	cols := fresh.batch(128, 0)
	if us, err = b.rung("serve.add", root, len(cols), nil, func(i int) error {
		_, err := sys.srv.AddColumns(ctx, cols[i:i+1])
		return err
	}); err != nil {
		return err
	}
	b.values["serve.add_us"] = median(us)
	// Half the removes, then one compaction through each layer.
	removeHalf := func(cols []table.Column) ([]float64, error) {
		return b.rung("serve.remove", root, len(cols), nil, func(i int) error {
			_, err := sys.srv.RemoveColumns(cols[i].Name)
			return err
		})
	}
	if us, err = removeHalf(cols[:64]); err != nil {
		return err
	}
	b.values["serve.remove_by_name_us"] = median(us)
	sp = b.tr.begin("serve.compact", root, 0)
	t0 = time.Now()
	_, err = sys.srv.CompactCatalog()
	b.values["serve.compact_s"] = time.Since(t0).Seconds()
	b.tr.end(sp)
	if !b.op("serve compact", err) {
		return err
	}
	if _, err = removeHalf(cols[64:]); err != nil {
		return err
	}
	sp = b.tr.begin("shard.compact", root, 0)
	t0 = time.Now()
	_, err = sys.cat.Compact()
	b.values["shard.compact_s"] = time.Since(t0).Seconds()
	b.tr.end(sp)
	b.op("shard compact", err)
	return err
}

func fileBytesPer(path string, n int) (float64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(info.Size()) / float64(n), nil
}

// overheads prices the two instruments: the obs registry (two small twin
// servers, one with Config.Metrics and one without, answering the same hot
// queries in alternating slices) and this file's own spans (the running
// system's hot /search in alternating slices with the tracer on and off).
func (b *bench) overheads() error {
	root := b.tr.begin("ladder.overheads", 0, 0)
	defer b.tr.end(root)
	q := b.q
	nq := min(64, len(q.bodies))
	slice := func(c *client, tr *tracer) (float64, error) {
		ms := make([]float64, 0, b.sz.ladderCalls)
		for i := 0; i < b.sz.ladderCalls; i++ {
			sp := tr.begin("http.search", root, tr.nextRequest())
			_, d, err := c.do(http.MethodPost, "/search", q.bodies[i%nq])
			tr.end(sp)
			if !b.op("overhead probe", err) {
				return 0, err
			}
			ms = append(ms, float64(d)/float64(time.Millisecond))
		}
		return median(ms), nil
	}
	// compare alternates 4 slices of each side and returns on/off − 1 of
	// their best-quarter medians.
	compare := func(on, off func() (float64, error)) (float64, error) {
		var ons, offs []float64
		for i := 0; i < 4; i++ {
			v, err := on()
			if err != nil {
				return 0, err
			}
			ons = append(ons, v)
			if v, err = off(); err != nil {
				return 0, err
			}
			offs = append(offs, v)
		}
		return bestQuarter(ons, true)/bestQuarter(offs, true) - 1, nil
	}

	twinCols := b.catalogCols[:min(512, len(b.catalogCols))]
	var clients [2]*client
	for i, metrics := range []bool{true, false} {
		be, err := b.newBackend(twinCols, metrics)
		if err != nil {
			return err
		}
		defer be.close()
		clients[i] = newClient(be.ts.URL)
		defer clients[i].closeIdle()
		if _, err := slice(clients[i], nil); err != nil { // embeds each query once
			return err
		}
	}
	var err error
	if b.values["obs.overhead_frac"], err = compare(
		func() (float64, error) { return slice(clients[0], nil) },
		func() (float64, error) { return slice(clients[1], nil) },
	); err != nil {
		return err
	}
	b.values["trace.overhead_frac"], err = compare(
		func() (float64, error) { return slice(b.gen, b.tr) },
		func() (float64, error) { return slice(b.gen, nil) },
	)
	return err
}
