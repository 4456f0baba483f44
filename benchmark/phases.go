package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/eval"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// bench is one run of one workload.
type bench struct {
	w    workload
	sz   sizes
	seed int64
	// tr is nil in the untraced run.
	tr      *tracer
	workDir string

	// The data set, functions of dataSeed.
	fitCorpus   *table.Dataset // what the model is fitted on
	labelled    *table.Dataset // what the embed passes embed and type_precision scores
	catalogCols []table.Column
	loadBodies  [][]byte
	// The traffic, functions of the seed.
	hotCols    []table.Column
	hotBodies  [][]byte // one single-column /search per hot column
	hotBatches [][]byte // the hot pool again, batchColumns per /search
	fresh      *freshColumns
	stream     *writeStream
	// nextHot and nextBatch rotate the hot pool across slices.
	nextHot, nextBatch int

	// The system under test, as the last set-up or restart left it.
	emb  *core.Embedder
	sys  *system
	dir  string
	gen  *client
	live int // live catalog columns after loading
	q    *ladderQueries

	// acc collects the slice values of every sliced metric over the
	// set-ups and rounds; finish turns them into best-quarter estimates.
	acc map[string][]float64
	// lat keeps every single latency of a phase for the per-layer tails.
	lat map[string][]float64
	// hot and cold are the server's cache counters over the hot and the
	// cold single-column search phases.
	hot, cold  cacheCount
	rows       [][]float64 // the last embed pass's rows
	diskBytes  int64       // bytes under the store directory at the last close
	slices     []sliceRecord
	values     map[string]float64 // every measured number, by metric name
	attempted  int
	failed     int
	violations []string
	mem        runtime.MemStats
}

// slicedMetrics are the metrics computed per slice and estimated by the
// best quarter of their slices.
var slicedMetrics = []struct {
	name, unit    string
	lowerIsBetter bool
}{
	{"fit_s", "s", true},
	{"http.load_cols_per_s", "1/s", false},
	{"embed_cols_per_s", "1/s", false},
	{"search_p50_ms", "ms", true},
	{"search_batch_qps", "1/s", false},
	{"cold_search_p50_ms", "ms", true},
	{"embed_http_cols_per_s", "1/s", false},
	{"mixed_ops_per_s", "1/s", false},
	{"add_p50_ms", "ms", true},
	{"read_slo_ok_frac", "fraction", false},
	{"restart_s", "s", true},
}

// op counts one operation against the program; a failed one fails the run.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", what, err)
	}
	return false
}

// violate records a failed correctness gate.
func (b *bench) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.violations = append(b.violations, msg)
	fmt.Fprintln(os.Stderr, "benchmark: gate failed:", msg)
}

// slice files slice values of a sliced metric.
func (b *bench) slice(metric string, values ...float64) {
	b.acc[metric] = append(b.acc[metric], values...)
}

// record keeps every slice value of a phase and files the best-quarter
// estimate under the metric's name.
func (b *bench) record(metric, unit string, slices []float64, lowerIsBetter bool) {
	b.slices = append(b.slices, sliceRecord{Phase: metric, Unit: unit, Values: slices})
	b.values[metric] = bestQuarter(slices, lowerIsBetter)
	fmt.Fprintf(os.Stderr, "benchmark: %s = %.5g %s from slices %.4g\n", metric, b.values[metric], unit, slices)
}

// settle collects garbage before a timed phase so that one phase's litter
// is not collected on the next one's clock.
func settle() { runtime.GC() }

// generate builds the data set from dataSeed and the traffic from the seed.
func (b *bench) generate() {
	scale := b.sz.gdsScale
	if !b.w.gds {
		scale /= 2
	}
	b.labelled = data.GDS(data.Config{Seed: stream(dataSeed, streamLabelled), Scale: scale, Grain: data.Coarse})
	b.fitCorpus = b.labelled
	cols := b.labelled.Columns
	if !b.w.gds {
		ds := data.ScalabilityDataset(b.w.columns, stream(dataSeed, streamCatalog))
		cols = ds.Columns
		b.fitCorpus = ds.Subset(b.sz.fitColumns)
	}
	// The catalog's copies carry unique names so that the write stream can
	// remove any of them by name (the model ignores names).
	b.catalogCols = make([]table.Column, len(cols))
	for i, c := range cols {
		c.Name = fmt.Sprintf("c%05d-%s", i, c.Name)
		b.catalogCols[i] = c
	}
	for i := 0; i < len(b.catalogCols); i += b.sz.loadChunk {
		end := min(i+b.sz.loadChunk, len(b.catalogCols))
		b.loadBodies = append(b.loadBodies, columnsBody(b.catalogCols[i:end]))
	}
	b.hotCols = data.ScalabilityDataset(b.sz.hotPool, stream(b.seed, streamHotPool)).Columns
	b.hotBodies = make([][]byte, len(b.hotCols))
	for i, c := range b.hotCols {
		b.hotBodies[i] = searchBody(c)
	}
	for i := 0; i+b.sz.batchColumns <= len(b.hotCols); i += b.sz.batchColumns {
		b.hotBatches = append(b.hotBatches, searchBatchBody(b.hotCols[i:i+b.sz.batchColumns]))
	}
	b.fresh = newFreshColumns(stream(b.seed, streamFresh), "fresh")
}

// setUp fits the model, loads the durable catalog over POST /columns and
// sends every hot query once — the whole path from nothing to a warm
// server — setups times over, keeping the last system for the rounds that
// follow, after fits − setups fits on their own. setup_s is the median over
// the set-ups; every fit is a slice of fit_s and every load request a slice
// of http.load_cols_per_s, timed from outside around core.Embedder.Fit and
// the request.
func (b *bench) setUp(generateSeconds float64) error {
	var setups []float64
	var ids []int
	for rep := 0; rep < b.w.fits; rep++ {
		// The first fits − setups repetitions only fit; the rest go on to
		// load and warm a server, and the last one's is kept.
		full := rep >= b.w.fits-b.w.setups
		if full {
			if err := b.tearDown(); err != nil {
				return err
			}
		}
		settle()
		name := "setup"
		if !full {
			name = "fit_only"
		}
		root := b.tr.begin(name, 0, 0)
		start := time.Now()

		emb, err := core.NewEmbedder(core.Config{
			Components: b.sz.components, Restarts: b.w.restarts, SubsampleStack: b.sz.subsampleStack,
			MaxIter: b.sz.maxIter, Seed: dataSeed, Workers: workers,
		})
		if err != nil {
			return err
		}
		sp := b.tr.begin("core.fit", root, 0)
		t0 := time.Now()
		err = emb.Fit(b.fitCorpus)
		b.slice("fit_s", time.Since(t0).Seconds())
		b.tr.end(sp)
		if !b.op("fit", err) {
			return err
		}
		if !full {
			b.tr.end(root)
			continue
		}
		b.emb = emb

		if b.dir, err = os.MkdirTemp(b.workDir, "stores-"); err != nil {
			return err
		}
		if b.sys, err = openSystem(emb, b.dir, b.w.shards, b.sz.compactEvery, true); err != nil {
			return err
		}
		b.gen = newClient(b.sys.ts.URL)

		ids = ids[:0]
		for _, body := range b.loadBodies {
			sp := b.tr.begin("http.columns_load", root, b.tr.nextRequest())
			resp, d, err := b.gen.do(http.MethodPost, "/columns", body)
			b.tr.end(sp)
			if !b.op("catalog load", err) {
				return err
			}
			var added struct {
				IDs []int `json:"ids"`
			}
			if err := json.Unmarshal(resp, &added); err != nil {
				return fmt.Errorf("decoding POST /columns answer: %w", err)
			}
			b.slice("http.load_cols_per_s", float64(len(added.IDs))/d.Seconds())
			ids = append(ids, added.IDs...)
		}
		if len(ids) != len(b.catalogCols) {
			return fmt.Errorf("catalog load answered %d ids for %d columns", len(ids), len(b.catalogCols))
		}

		sp = b.tr.begin("warm_hot_pool", root, 0)
		b.warmHotPool()
		b.tr.end(sp)

		setups = append(setups, generateSeconds+time.Since(start).Seconds())
		b.tr.end(root)
	}
	b.slices = append(b.slices, sliceRecord{Phase: "setup_s", Unit: "s", Values: setups})
	b.values["setup_s"] = median(setups)
	fmt.Fprintf(os.Stderr, "benchmark: setup_s = %.5g s, the median of %.4g\n", b.values["setup_s"], setups)

	st, err := b.gen.stats()
	if err != nil {
		return err
	}
	b.live = st.IndexSize
	b.stream = newWriteStream(b.seed, b.catalogCols, ids)
	settle()
	runtime.ReadMemStats(&b.mem)
	b.values["heap_mb"] = float64(b.mem.HeapAlloc) / (1 << 20)
	return nil
}

// warmHotPool sends every hot query once, batchColumns to a request, so
// that the next request for one is a cache hit. (One column to a request
// costs a batch window each: 0.8 s for the pool instead of 0.1 s.)
func (b *bench) warmHotPool() {
	for _, body := range b.hotBatches {
		resp, _, err := b.gen.do(http.MethodPost, "/search", body)
		if b.op("warm-up search", err) {
			b.checkHits(resp, b.sz.batchColumns*k)
		}
	}
	for _, body := range b.hotBodies[len(b.hotBatches)*b.sz.batchColumns:] {
		resp, _, err := b.gen.do(http.MethodPost, "/search", body)
		if b.op("warm-up search", err) {
			b.checkHits(resp, k)
		}
	}
}

// tearDown closes the current system, if any, and removes its stores.
func (b *bench) tearDown() error {
	var err error
	if b.sys != nil {
		b.gen.closeIdle()
		err = b.sys.close()
		b.sys = nil
	}
	if b.dir != "" {
		if rmErr := os.RemoveAll(b.dir); err == nil {
			err = rmErr
		}
		b.dir = ""
	}
	return err
}

// checkHits is the gate that every /search answers exactly n hits. The
// answer's hits are its only objects with an "id" member.
func (b *bench) checkHits(resp []byte, n int) {
	if got := bytes.Count(resp, []byte(`"id"`)); got != n {
		b.violate("/search answered %d hits, want %d", got, n)
	}
}

// round is one pass over every timed phase. The four request phases and
// the embed passes take turns, one slice each, then one compaction cycle
// and one restart follow. A metric's slices are thus spread evenly over the
// whole run: the host's bursts of interference, a second to tens of seconds
// long, spoil some slices of every metric instead of every slice of one,
// and the best quarter is taken from the rest.
func (b *bench) round() error {
	turns := []struct {
		slices int
		run    func() error
	}{
		{b.w.searchSlices, b.hotSearch}, {b.w.batchSlices, b.batchSearch}, {b.w.coldSlices, b.coldSearch},
		{b.w.embedSlices, b.embedRequest}, {b.w.embedPasses, b.embedPass},
	}
	t0 := time.Now()
	for i, ran := 0, true; ran; i++ {
		ran = false
		for _, t := range turns {
			if i < t.slices {
				if err := t.run(); err != nil {
					return err
				}
				ran = true
			}
		}
	}
	t1 := time.Now()
	if err := b.writeCycle(); err != nil {
		return err
	}
	t2 := time.Now()
	if err := b.restart(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: round: reads and passes %.2f s, cycle %.2f s, restart %.2f s\n",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	return nil
}

// embedPass times one core.Embedder.Embed over the labelled columns — one
// slice — and keeps the rows for type_precision.
func (b *bench) embedPass() error {
	settle()
	sp := b.tr.begin("core.embed", 0, 0)
	t0 := time.Now()
	rows, err := b.emb.Embed(b.labelled)
	d := time.Since(t0)
	b.tr.end(sp)
	if !b.op("embed pass", err) {
		return err
	}
	b.rows = rows
	b.slice("embed_cols_per_s", float64(len(rows))/d.Seconds())
	return nil
}

// typePrecision is the paper's protocol (precision at k = type size − 1
// per column, averaged within a type, then across types) as
// eval.AveragePrecisionByType computes it, except that the per-type means
// are summed in sorted-label order: the library ranges over a map, and
// float addition in map order would make the last digits differ from run
// to run.
func typePrecision(rows [][]float64, labels []string) (float64, error) {
	sim, err := eval.CosineSimilarityMatrix(rows)
	if err != nil {
		return 0, err
	}
	sums, counts := map[string]float64{}, map[string]int{}
	for i := range sim {
		pr, err := eval.PrecisionRecallAtK(sim, labels, i)
		if err != nil {
			return 0, err
		}
		if pr.K == 0 {
			continue
		}
		sums[labels[i]] += pr.Precision
		counts[labels[i]]++
	}
	types := make([]string, 0, len(sums))
	for t := range sums {
		types = append(types, t)
	}
	if len(types) == 0 {
		return 0, fmt.Errorf("no type with at least two columns")
	}
	sort.Strings(types)
	var total float64
	for _, t := range types {
		total += sums[t] / float64(counts[t])
	}
	return total / float64(len(types)), nil
}

// cand is a brute-force candidate of the recall check.
type cand struct {
	dist float64
	seq  uint64
	name string
}

func (c cand) before(o cand) bool {
	if c.dist != o.dist {
		return c.dist < o.dist
	}
	return c.seq < o.seq
}

// sliceStat is what one slice of a request phase measured.
type sliceStat struct {
	busy time.Duration // time spent inside requests
	ms   []float64     // per-request latency
}

// requestSlice runs one slice of a closed-loop request phase on the
// generator connection. body() returns the next request's payload and runs
// off the clock: latency is taken around the request only, and the slice
// ends once the time spent inside requests reaches sliceSeconds and its
// requests carried minOps columns between them (perRequest each).
func (b *bench) requestSlice(phase, path string, perRequest, minOps int, body func() []byte, hits int) sliceStat {
	settle()
	root := b.tr.begin(phase, 0, 0)
	defer b.tr.end(root)
	var st sliceStat
	limit := time.Duration(b.sz.sliceSeconds * float64(time.Second))
	for st.busy < limit || len(st.ms)*perRequest < minOps {
		payload := body()
		sp := b.tr.begin("http"+path, root, b.tr.nextRequest())
		resp, d, err := b.gen.do(http.MethodPost, path, payload)
		b.tr.end(sp)
		st.busy += d
		st.ms = append(st.ms, float64(d)/float64(time.Millisecond))
		if b.op(phase, err) && hits > 0 {
			b.checkHits(resp, hits)
		}
	}
	return st
}

// cacheCount sums the server's cache hits, misses and signature batches
// over the slices it is wrapped around.
type cacheCount struct{ hits, misses, batches int64 }

func (c cacheCount) hitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// singleSearch runs one slice of single-column /search between two GET
// /stats, files the slice's median latency under metric and adds what the
// server's cache counters moved by to count.
func (b *bench) singleSearch(metric string, count *cacheCount, minOps int, body func() []byte) error {
	before, err := b.gen.stats()
	if err != nil {
		return err
	}
	s := b.requestSlice(metric, "/search", 1, minOps, body, k)
	after, err := b.gen.stats()
	if err != nil {
		return err
	}
	count.hits += after.Hits - before.Hits
	count.misses += after.Misses - before.Misses
	count.batches += after.Batches - before.Batches
	b.slice(metric, median(s.ms))
	b.lat[metric] = append(b.lat[metric], s.ms...)
	return nil
}

// hotSearch: single-column /search from the hot pool in rotation, every
// request a cache hit.
func (b *bench) hotSearch() error {
	return b.singleSearch("search_p50_ms", &b.hot, b.sz.hotSliceOps, func() []byte {
		b.nextHot++
		return b.hotBodies[b.nextHot%len(b.hotBodies)]
	})
}

// coldSearch: single-column /search, every request a never-seen column of
// coldValues values, so every request is a cache miss.
func (b *bench) coldSearch() error {
	return b.singleSearch("cold_search_p50_ms", &b.cold, b.sz.coldSliceOps,
		func() []byte { return searchBody(b.fresh.next(b.sz.coldValues)) })
}

// batchSearch: batchColumns hot query columns per /search.
func (b *bench) batchSearch() error {
	per := b.sz.batchColumns
	s := b.requestSlice("search_batch", "/search", per, b.sz.hotSliceOps, func() []byte {
		b.nextBatch++
		return b.hotBatches[b.nextBatch%len(b.hotBatches)]
	}, per*k)
	b.slice("search_batch_qps", float64(len(s.ms)*per)/s.busy.Seconds())
	return nil
}

// embedRequest: embedColumns never-seen columns of coldValues values per
// /embed.
func (b *bench) embedRequest() error {
	per := b.sz.embedColumns
	s := b.requestSlice("embed", "/embed", per, b.sz.embedSliceOps,
		func() []byte { return columnsBody(b.fresh.batch(per, b.sz.coldValues)) }, 0)
	b.slice("embed_http_cols_per_s", float64(len(s.ms)*per)/s.busy.Seconds())
	return nil
}

// writeOp is one planned request of the write stream.
type writeOp struct {
	method, path string
	body         []byte
	kind         int
}

const (
	opSearch = iota
	opAdd
	opRemove
)

var writeSpans = [...]string{opSearch: "http.search", opAdd: "http.columns_add", opRemove: "http.columns_remove"}

// writeStream lays out the write stream: search, add, search, remove,
// repeated. A search is a hot query; an add carries one never-seen column
// of the catalog's shape (40–150 values); a remove names a seeded pick
// among the columns still live — preloaded or added earlier in this run —
// so no operation can fail and the catalog keeps its size while its content
// churns.
type writeStream struct {
	rng     *rand.Rand
	adds    *freshColumns
	pending []string
	n       int
}

func newWriteStream(seed int64, catalogCols []table.Column, ids []int) *writeStream {
	ws := &writeStream{
		rng:  rand.New(rand.NewSource(stream(seed, streamRemoves))),
		adds: newFreshColumns(stream(seed, streamAdds), "added"),
	}
	// A catalog column whose content repeats an earlier one was folded into
	// that entry (the catalog is content-addressed) and has no name of its
	// own to remove.
	seen := make(map[int]bool, len(ids))
	for i, id := range ids {
		if !seen[id] {
			seen[id] = true
			ws.pending = append(ws.pending, catalogCols[i].Name)
		}
	}
	return ws
}

// cycle plans the next n requests, before the clock starts. With
// n = 4 × CompactEvery the last request is the CompactEvery-th remove since
// the last compaction and triggers the next one.
func (ws *writeStream) cycle(n int, hotBodies [][]byte) []writeOp {
	ops := make([]writeOp, 0, n)
	for ; len(ops) < n; ws.n++ {
		switch ws.n % 4 {
		case 0, 2:
			ops = append(ops, writeOp{http.MethodPost, "/search", hotBodies[ws.n/2%len(hotBodies)], opSearch})
		case 1:
			col := ws.adds.next(0)
			ws.pending = append(ws.pending, col.Name)
			ops = append(ops, writeOp{http.MethodPost, "/columns", columnsBody([]table.Column{col}), opAdd})
		case 3:
			j := ws.rng.Intn(len(ws.pending))
			name := ws.pending[j]
			ws.pending[j] = ws.pending[len(ws.pending)-1]
			ws.pending = ws.pending[:len(ws.pending)-1]
			ops = append(ops, writeOp{http.MethodDelete, "/columns/" + url.PathEscape(name), nil, opRemove})
		}
	}
	return ops
}

// read is one request of the open-loop reader, timed from its due time.
type read struct {
	due, sent, done time.Duration // since the cycle started
	err             error
}

// writeCycle runs one compaction cycle of the write stream — one slice —
// on the generator connection while an open-loop reader on its own
// connection sends one hot /search every readPeriod, each timed from the
// moment it was due: a rebuild that holds the catalog lock shows as missed
// reads, not as fewer reads.
func (b *bench) writeCycle() error {
	ops := b.stream.cycle(b.sz.cycleOps(), b.hotBodies)
	before, err := b.gen.stats()
	if err != nil {
		return err
	}
	settle()
	root := b.tr.begin("write_cycle", 0, 0)
	start := time.Now()

	// writesEnd is set once the last write has been answered; the reader
	// still sends every read that was due before that moment, so the reads
	// the closing compaction held up are counted like any others.
	var writesEnd atomic.Int64
	var reads []read
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = b.readBeside(root, start, &writesEnd)
	}()

	var busy time.Duration
	var addMS []float64
	for _, op := range ops {
		sp := b.tr.begin(writeSpans[op.kind], root, b.tr.nextRequest())
		resp, d, err := b.gen.do(op.method, op.path, op.body)
		b.tr.end(sp)
		busy += d
		ms := float64(d) / float64(time.Millisecond)
		ok := b.op("write stream", err)
		switch op.kind {
		case opSearch:
			if ok {
				b.checkHits(resp, k)
			}
		case opAdd:
			addMS = append(addMS, ms)
		case opRemove:
			b.lat["remove"] = append(b.lat["remove"], ms)
		}
	}
	end := time.Since(start)
	writesEnd.Store(int64(end))
	wg.Wait()
	b.tr.end(root)

	limit := time.Duration(b.sz.sloLimitMS * float64(time.Millisecond))
	met := 0
	for _, r := range reads {
		b.op("read beside writes", r.err)
		if r.err == nil && r.done-r.due <= limit {
			met++
		}
		b.lat["read_from_due"] = append(b.lat["read_from_due"], float64(r.done-r.due)/float64(time.Millisecond))
		b.lat["read_late"] = append(b.lat["read_late"], float64(r.sent-r.due)/float64(time.Millisecond))
	}
	b.slice("mixed_ops_per_s", float64(len(ops))/busy.Seconds())
	b.slice("add_p50_ms", median(addMS))
	b.slice("read_slo_ok_frac", float64(met)/float64(len(reads)))
	b.slice("http.open.achieved_qps", float64(len(reads))/end.Seconds())
	b.lat["add"] = append(b.lat["add"], addMS...)

	after, err := b.gen.stats()
	if err != nil {
		return err
	}
	if got := after.Compactions - before.Compactions; got != 1 {
		b.violate("%d compactions in one cycle of %d removes", got, b.sz.compactEvery)
	}
	if after.IndexSize != b.live {
		b.violate("catalog holds %d live columns after a cycle, want %d (preload + adds − removes)", after.IndexSize, b.live)
	}
	if n := after.StoreErrors + after.Errors + after.IndexErrors; n != 0 {
		b.violate("server counted %d store/embed/index errors", n)
	}
	return nil
}

// readBeside is the open-loop reader: request i is due at i × readPeriod
// whatever happened to request i−1. It sends every request due before
// writesEnd (0 while the writes are still running).
func (b *bench) readBeside(root int, start time.Time, writesEnd *atomic.Int64) []read {
	c := newClient(b.sys.ts.URL)
	defer c.closeIdle()
	period := time.Duration(b.sz.readPeriodMS * float64(time.Millisecond))
	var reads []read
	for i := 0; ; i++ {
		due := time.Duration(i) * period
		if end := time.Duration(writesEnd.Load()); end > 0 && due >= end {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sp := b.tr.begin("http.read", root, b.tr.nextRequest())
		sent := time.Since(start)
		resp, _, err := c.do(http.MethodPost, "/search", b.hotBodies[i%len(b.hotBodies)])
		done := time.Since(start)
		b.tr.end(sp)
		if err == nil && bytes.Count(resp, []byte(`"id"`)) != k {
			err = fmt.Errorf("/search answered other than %d hits", k)
		}
		reads = append(reads, read{due: due, sent: sent, done: done, err: err})
	}
	return reads
}

// restart closes the server and reopens it from the stores. restart_s runs
// from catalog.Open to the first answered /search; restartProbes fixed
// queries must answer byte for byte what they answered before the close.
// The hot pool is then sent again, untimed: a restart leaves the system as
// a set-up does.
func (b *bench) restart() error {
	want := make([][]byte, min(b.sz.restartProbes, len(b.hotBodies)))
	for i := range want {
		resp, _, err := b.gen.do(http.MethodPost, "/search", b.hotBodies[i])
		if !b.op("restart probe", err) {
			return err
		}
		want[i] = append([]byte(nil), resp...)
	}
	b.gen.closeIdle()
	err := b.sys.close()
	b.sys = nil
	if err != nil {
		return fmt.Errorf("closing the stores: %w", err)
	}
	// The write cycle ended on a compaction, so the stores hold one snapshot
	// per shard and an empty journal: a size that repeats.
	if b.diskBytes, err = dirBytes(b.dir); err != nil {
		return err
	}
	settle()
	root := b.tr.begin("restart", 0, 0)
	t0 := time.Now()
	sys, err := openSystem(b.emb, b.dir, b.w.shards, b.sz.compactEvery, true)
	if !b.op("reopen", err) {
		return err
	}
	b.sys = sys
	b.gen = newClient(sys.ts.URL)
	resp, _, err := b.gen.do(http.MethodPost, "/search", b.hotBodies[0])
	b.slice("restart_s", time.Since(t0).Seconds())
	b.tr.end(root)
	b.values["catalog.open_replay_s"] = sys.openSeconds
	b.values["serve.new_replay_s"] = sys.serveSeconds
	if !b.op("first search after reopen", err) {
		return err
	}
	for i := range want {
		if i > 0 {
			if resp, _, err = b.gen.do(http.MethodPost, "/search", b.hotBodies[i]); !b.op("restart probe", err) {
				return err
			}
		}
		if !bytes.Equal(resp, want[i]) {
			b.violate("probe %d answered differently after a reopen", i)
		}
	}
	b.warmHotPool()
	return nil
}

// finish turns the collected slices into metrics, holds the cache gates —
// hit rate ≥ 0.99 over the hot searches, ≤ 0.01 over the cold ones, so that
// each phase bypasses what it says it bypasses — and measures the two
// quality metrics.
func (b *bench) finish() error {
	for _, m := range slicedMetrics {
		b.record(m.name, m.unit, b.acc[m.name], m.lowerIsBetter)
	}
	b.values["disk_bytes_per_col"] = float64(b.diskBytes) / float64(b.live)

	hot, cold := b.hot.hitRate(), b.cold.hitRate()
	if hot < 0.99 {
		b.violate("hot searches saw cache hit rate %.4f, want >= 0.99", hot)
	}
	if cold > 0.01 {
		b.violate("cold searches saw cache hit rate %.4f, want <= 0.01", cold)
	}
	b.values["serve.cache_hit_rate"] = hot
	b.values["serve.cold_cache_hit_rate"] = cold
	b.values["serve.mean_batch"] = float64(b.cold.misses) / float64(max(1, b.cold.batches))
	b.values["http.search_p95_ms"] = quantile(b.lat["search_p50_ms"], 0.95)
	b.values["http.search_p99_ms"] = quantile(b.lat["search_p50_ms"], 0.99)
	b.values["http.cold_search_p95_ms"] = quantile(b.lat["cold_search_p50_ms"], 0.95)
	b.values["http.add_p95_ms"] = quantile(b.lat["add"], 0.95)
	b.values["http.remove_p50_ms"] = median(b.lat["remove"])
	b.values["http.max_stall_ms"] = quantile(b.lat["read_from_due"], 1)
	b.values["http.open.late_p99_ms"] = quantile(b.lat["read_late"], 0.99)
	b.values["http.open.achieved_qps"] = median(b.acc["http.open.achieved_qps"])

	if err := b.recall(); err != nil {
		return err
	}
	p, err := typePrecision(b.rows, b.labelled.Labels())
	if !b.op("type precision", err) {
		return err
	}
	b.values["type_precision"] = p
	return nil
}

// recall compares the served top-k of recallProbes hot queries with exact
// float64 brute force, done here, over the embeddings the stores hold for
// the catalog's live columns. Hits are matched by column name, which is
// unique in the catalog.
func (b *bench) recall() error {
	type entry struct {
		name string
		seq  uint64
		vec  []float64
	}
	var live []entry
	for _, st := range b.sys.stores {
		for _, e := range st.Live() {
			live = append(live, entry{e.Name, e.Seq, stats.L2Normalize(e.Vec)})
		}
	}
	if len(live) != b.live {
		b.violate("the stores hold %d live columns, the server %d", len(live), b.live)
	}
	top := make([]cand, 0, k)
	var found, want int
	for i := 0; i < min(b.sz.recallProbes, len(b.hotCols)); i++ {
		resp, _, err := b.gen.do(http.MethodPost, "/search", b.hotBodies[i])
		if !b.op("recall probe", err) {
			return err
		}
		var answer struct {
			Results []struct {
				Name string `json:"name"`
			} `json:"results"`
		}
		if err := json.Unmarshal(resp, &answer); err != nil {
			return fmt.Errorf("decoding /search answer: %w", err)
		}
		v, err := b.emb.EmbedColumn(b.hotCols[i])
		if err != nil {
			return err
		}
		q := stats.L2Normalize(v)
		// The k nearest by cosine distance, ties to the earlier add.
		top = top[:0]
		for _, e := range live {
			var dot float64
			for d, x := range e.vec {
				dot += x * q[d]
			}
			c := cand{1 - dot, e.seq, e.name}
			if len(top) == k && !c.before(top[k-1]) {
				continue
			}
			if len(top) < k {
				top = append(top, c)
			} else {
				top[k-1] = c
			}
			for j := len(top) - 1; j > 0 && top[j].before(top[j-1]); j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		}
		exact := make(map[string]bool, k)
		for _, c := range top {
			exact[c.name] = true
		}
		for _, r := range answer.Results {
			if exact[r.Name] {
				found++
			}
		}
		want += len(exact)
	}
	r := float64(found) / float64(want)
	b.values["recall_at_10"] = r
	if r < minRecall {
		b.violate("recall@%d = %.4f, want >= %.2f", k, r, minRecall)
	}
	return nil
}
