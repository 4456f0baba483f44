package ann

import (
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/gem-embeddings/gem/internal/pool"
)

// HNSWConfig parametrizes the HNSW graph index.
type HNSWConfig struct {
	// Metric is the distance the index answers queries under.
	Metric Metric
	// M is the maximum out-degree per node per layer above the base layer;
	// the base layer allows 2M. Default 16.
	M int
	// EfConstruction is the candidate-beam width used while inserting.
	// Larger builds a better graph, slower. Default 3·M (48 at M = 16),
	// by the HNSW paper's rule — the narrowest beam that builds as good a
	// graph as a wide one: on Gem embeddings, which cluster tightly by
	// type, 32 already answers like 100 and 200 at 8192 and 131072 vectors
	// (16 does not) and the default keeps one step of margin, at a third
	// of the build cost of 200. TestDefaultConstructionBeamRecall in the
	// root package holds the default to that rule and
	// BenchmarkConstructionBeam prints the sweep.
	EfConstruction int
	// EfSearch is the default candidate-beam width of Search (raised to k
	// when k is larger). Larger is more accurate, slower. Default 2·M (32 at
	// M = 16), by the rule EfConstruction's default follows: on Gem
	// embeddings 24 is the narrowest beam whose recall@10 matches 100's at
	// 8192 vectors, clean or tombstoned, and the default keeps one step of
	// margin at under half of 100's query cost. TestDefaultSearchBeamRecall
	// in the root package holds the default to that rule and
	// BenchmarkSearchBeam prints the sweep.
	EfSearch int
	// Seed pins node level assignment. Two indexes built from the same
	// vectors, config and seed are identical.
	Seed int64
	// BatchSize is the number of insertions whose candidate searches are
	// fanned out in parallel between sequential graph commits. It is part
	// of the index definition: changing BatchSize changes the built graph
	// (deterministically), changing the worker-pool width never does.
	// Default 64.
	BatchSize int
	// Precision selects the scan precision of the distance kernels
	// (default Float64). Like M and Seed it is part of the index
	// definition: construction scores candidates with the scan kernels, so
	// each precision builds its own (deterministic) graph. Searches at a
	// reduced precision re-rank their candidates in exact float64.
	Precision Precision
}

func (c *HNSWConfig) fillDefaults() {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 3 * c.M
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 2 * c.M
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
}

// maxLevelCap bounds node levels so corrupt or adversarial level draws
// cannot allocate unbounded per-node layer slices.
const maxLevelCap = 30

// HNSW is a Hierarchical Navigable Small World graph index
// (Malkov & Yashunin). Construction is deterministic for a given
// (vectors, config, seed) triple at every worker-pool width: levels come
// from hashing (seed, id), insertions are committed sequentially in id
// order, and only the read-only candidate searches of each insertion batch
// run on the worker pool, against the graph frozen before the batch.
// Insertion and Search share one layer search (searchLayer), and everything
// an insertion needs beyond the links it creates lives in reused scratch.
type HNSW struct {
	cfg  HNSWConfig
	pool *pool.Pool
	mL   float64 // level multiplier 1/ln(M)

	st     vecStore
	levels []int
	// links[id][lvl] lists the out-neighbours of id at layer lvl
	// (0 <= lvl <= levels[id]). Edges are created in both directions at
	// insertion, but degree pruning drops them one-sided (standard HNSW),
	// so the graph is directed and not necessarily symmetric.
	links  [][][]int32
	entry  int // id of the entry point, -1 while empty
	maxLvl int

	// deleted tombstones removed ids. The graph keeps tombstoned nodes as
	// routing waypoints (standard mark-delete HNSW); Search widens its beam
	// by the tombstone count (clamped, see widenEf) and filters them from
	// results, and Rebuild compacts them away deterministically.
	deleted  []bool
	nDeleted int

	build buildScratch
}

// buildScratch is the insertion path's reusable memory. Nothing in it
// outlives an Add: every buffer is length-reset before use.
type buildScratch struct {
	// beams[i][l] is batch member i's layer-l beam, filled by phase 1 of
	// insertBatch (each worker writes only its members' slots) and read by
	// that member's commit.
	beams [][][]cand
	// Sequential commit buffers: distances to committed batch siblings, the
	// per-layer merged candidate list, and selectNeighbors' output.
	sibs, merged, kept []cand
}

// NewHNSW returns an empty HNSW index. The pool bounds the parallelism of
// Add's candidate searches; nil runs them serially. The built graph is
// identical either way.
func NewHNSW(cfg HNSWConfig, p *pool.Pool) (*HNSW, error) {
	cfg.fillDefaults()
	if cfg.M < 2 {
		return nil, fmt.Errorf("%w: M = %d (need >= 2)", ErrInput, cfg.M)
	}
	if err := checkPrecision(cfg.Precision); err != nil {
		return nil, err
	}
	return &HNSW{
		cfg:   cfg,
		pool:  p,
		mL:    1 / math.Log(float64(cfg.M)),
		st:    newVecStore(cfg.Metric, cfg.Precision),
		entry: -1,
	}, nil
}

// Config returns the effective (default-filled) configuration.
func (h *HNSW) Config() HNSWConfig { return h.cfg }

// SetEfSearch overrides the search beam width. Unlike M, EfConstruction
// and Seed — which are baked into the graph at build time — EfSearch is a
// pure query-time knob, so it may be changed at any point, including on a
// loaded index. Values < 1 are ignored.
func (h *HNSW) SetEfSearch(ef int) {
	if ef > 0 {
		h.cfg.EfSearch = ef
	}
}

// Len implements Index.
func (h *HNSW) Len() int { return h.st.len() }

// Live implements Index.
func (h *HNSW) Live() int { return h.st.len() - h.nDeleted }

// Dim implements Index.
func (h *HNSW) Dim() int { return h.st.dim }

// Precision implements Index.
func (h *HNSW) Precision() Precision { return h.st.prec }

// Remove implements Index. The node stays in the graph as a routing
// waypoint — unlinking it would degrade the neighbourhoods of every node it
// connects — but it stops appearing in Search results. Rebuild reclaims the
// space once tombstones accumulate.
func (h *HNSW) Remove(id int) error {
	if err := checkRemove(h.deleted, id); err != nil {
		return err
	}
	h.deleted[id] = true
	h.nDeleted++
	return nil
}

// Rebuild implements Index: the surviving vectors are re-inserted in id
// order into a fresh graph under the same configuration and pool, so the
// result is byte-identical to a fresh HNSW built from the survivors — the
// same determinism contract as the batched build, at every pool width.
func (h *HNSW) Rebuild() ([]int, error) {
	mapping, live := liveMapping(h.st.vecs, h.deleted)
	nh, err := NewHNSW(h.cfg, h.pool)
	if err != nil {
		return nil, err
	}
	if err := nh.Add(live...); err != nil {
		return nil, err
	}
	*h = *nh
	return mapping, nil
}

// Metric implements Index.
func (h *HNSW) Metric() Metric { return h.cfg.Metric }

// Save implements Index; see persist.go for the format.
func (h *HNSW) Save(w io.Writer) error { return saveHNSW(w, h) }

// levelFor draws node id's level from a splitmix64 hash of (seed, id), so
// levels depend only on the seed and the insertion position — never on
// scheduling or batch boundaries.
func (h *HNSW) levelFor(id int) int {
	x := uint64(h.cfg.Seed)*0x9E3779B97F4A7C15 + uint64(id) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	// Uniform in (0, 1], never 0, so the log is finite.
	u := (float64(x>>11) + 1) / (1 << 53)
	l := int(-math.Log(u) * h.mL)
	if l > maxLevelCap {
		l = maxLevelCap
	}
	return l
}

// maxM returns the out-degree cap of a layer.
func (h *HNSW) maxM(lvl int) int {
	if lvl == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// distIDs returns the scan-precision distance between two stored vectors
// — construction scores candidates with the same kernels a search scans
// with, so the graph is a pure function of (vectors, config, seed) per
// precision tier.
func (h *HNSW) distIDs(a, b int32) float64 {
	st := &h.st
	if st.prec == Float64 {
		// scanDist's float64 arm, without a scanQuery built per pair.
		return st.metric.distNormed(st.vecs[a], st.norms[a], st.vecs[b], st.norms[b])
	}
	sq := st.queryOf(int(a))
	return st.scanDist(&sq, int(b))
}

// distQ returns the scan-precision distance from a prepared query to a
// stored vector.
func (h *HNSW) distQ(q *scanQuery, id int32) float64 {
	return h.st.scanDist(q, int(id))
}

// cand is a candidate neighbour during construction and search: a stored
// id and its distance to the query (or to the node being linked). expanded
// is searchLayer's own bookkeeping — it occupies padding between id and
// dist, so a cand is 16 bytes — and is false on every cand outside a
// running searchLayer.
type cand struct {
	id       int32
	expanded bool
	dist     float64
}

// candBefore is the total order on candidates: nearer first, ties broken
// by lower id. Every beam, heap, sort and greedy step uses it, which is
// what makes search deterministic on corpora with duplicate columns
// (distance-0 ties are common there).
func candBefore(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// candCompare is candBefore as a three-way comparison for slices.SortFunc.
func candCompare(a, b cand) int {
	switch {
	case candBefore(a, b):
		return -1
	case candBefore(b, a):
		return 1
	}
	return 0
}

// greedyStep walks layer lvl greedily from cur towards q until no
// neighbour improves, and returns the local minimum.
func (h *HNSW) greedyStep(q *scanQuery, cur cand, lvl int) cand {
	for {
		improved := false
		for _, nb := range h.links[cur.id][lvl] {
			c := cand{id: nb, dist: h.distQ(q, nb)}
			if candBefore(c, cur) {
				cur = c
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the beam search of HNSW (Algorithm 2) on one sorted
// slice: beam holds the ≤ ef nearest visited nodes of layer lvl in
// candBefore order; the first unexpanded entry is expanded, each neighbour
// that improves the beam is binary-search-inserted (evicting the last entry
// of a full beam), and the search ends when every entry is expanded. The
// beam is then the sorted result. This visits the nodes Algorithm 2's two
// heaps visit, in the same order: its result heap is the beam; a frontier
// entry missing from the result heap was evicted by something nearer, the
// result heap only ever improves, so under the strict total order that entry
// compares after the farthest result — popping it is Algorithm 2's stop —
// and until then the frontier's minimum is the beam's first unexpanded
// entry. eps beyond the ef nearest are dropped for the same reason.
//
// vis must be reset by the caller to cover every id of the layer and is
// left dirty; eps already marked in it are skipped. eps must carry expanded
// unset, as every cand outside this function does. beam is the buffer the
// result is built in (it must not alias eps); the returned slice aliases
// it unless it had to grow.
func (h *HNSW) searchLayer(q *scanQuery, eps []cand, ef, lvl int, vis *visitedSet, beam []cand) []cand {
	beam = beam[:0]
	for _, e := range eps {
		if !vis.visit(e.id) {
			beam, _ = beamInsert(beam, e, ef)
		}
	}
	// Every entry before next is expanded.
	for next := 0; next < len(beam); {
		if beam[next].expanded {
			next++
			continue
		}
		beam[next].expanded = true
		c := beam[next].id
		next++
		for _, nb := range h.links[c][lvl] {
			if vis.visit(nb) {
				continue
			}
			var at int
			beam, at = beamInsert(beam, cand{id: nb, dist: h.distQ(q, nb)}, ef)
			if at < next {
				next = at
			}
		}
	}
	for i := range beam {
		beam[i].expanded = false
	}
	return beam
}

// beamInsert puts c at its place in the sorted beam and returns the beam
// and c's index. A beam already ef long loses its last entry to make room;
// if c is no nearer than that entry it is dropped and the index is ef.
func beamInsert(beam []cand, c cand, ef int) ([]cand, int) {
	if len(beam) < ef {
		beam = append(beam, cand{})
	} else if !candBefore(c, beam[ef-1]) {
		return beam, ef
	}
	// Binary search over everything but the slot being given up.
	lo, hi := 0, len(beam)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if candBefore(c, beam[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(beam[lo+1:], beam[lo:])
	beam[lo] = c
	return beam, lo
}

// selectNeighbors is the diversity heuristic of HNSW (Algorithm 4): scan
// candidates nearest-first and keep one only if it is closer to the base
// vector than to every already-kept neighbour, up to m. cands must carry
// distances to base and be sorted under candBefore; the selection is built
// in kept's backing array.
func (h *HNSW) selectNeighbors(cands []cand, m int, kept []cand) []cand {
	kept = kept[:0]
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		good := true
		for _, r := range kept {
			if h.distIDs(c.id, r.id) < c.dist {
				good = false
				break
			}
		}
		if good {
			kept = append(kept, c)
		}
	}
	return kept
}

// Add implements Index. Insertions are processed in fixed-size batches:
// each batch first runs every member's candidate search in parallel on the
// worker pool against the graph as it stood before the batch, then commits
// the members sequentially in id order (linking them to the snapshot
// candidates plus the batch members already committed). Graph state
// therefore never depends on the pool width, only on the insertion order,
// config and seed.
func (h *HNSW) Add(vecs ...[]float64) error {
	dim, err := checkAdd(h.st.dim, h.st.len(), vecs)
	if err != nil {
		return err
	}
	start := h.st.len()
	h.st.add(dim, vecs)
	for i := range vecs {
		id := start + i
		lvl := h.levelFor(id)
		h.levels = append(h.levels, lvl)
		h.links = append(h.links, make([][]int32, lvl+1))
		h.deleted = append(h.deleted, false)
	}
	for bs := start; bs < h.st.len(); bs += h.cfg.BatchSize {
		be := bs + h.cfg.BatchSize
		if be > h.st.len() {
			be = h.st.len()
		}
		h.insertBatch(bs, be)
	}
	return nil
}

// insertBatch inserts ids [bs, be): parallel candidate search against the
// pre-batch graph, then sequential commits.
func (h *HNSW) insertBatch(bs, be int) {
	// Phase 1: per-member beam searches, read-only on the pre-batch graph.
	// snapEntry/snapMax freeze the descent start so a commit that raises
	// the entry point cannot leak into a sibling's search.
	snapEntry, snapMax := h.entry, h.maxLvl
	b := &h.build
	for len(b.beams) < be-bs {
		b.beams = append(b.beams, nil)
	}
	for i := range b.beams[:be-bs] {
		b.beams[i] = b.beams[i][:0]
	}
	if snapEntry >= 0 {
		// Pool.For distributes ids dynamically, but each id writes only its
		// own beams slot and borrows its visited set from the scratch pool,
		// so the collected candidates are order-independent.
		_ = h.pool.For(be-bs, func(i int) error {
			id := bs + i
			q, lvl := h.st.queryOf(id), h.levels[id]
			cur := cand{id: int32(snapEntry), dist: h.distQ(&q, int32(snapEntry))}
			for l := snapMax; l > lvl; l-- {
				cur = h.greedyStep(&q, cur, l)
			}
			top := lvl
			if snapMax < top {
				top = snapMax
			}
			perLvl := b.beams[i][:cap(b.beams[i])]
			for len(perLvl) < top+1 {
				perLvl = append(perLvl, nil)
			}
			perLvl = perLvl[:top+1]
			sc := getScratch()
			sc.eps[0] = cur
			eps := sc.eps[:]
			for l := top; l >= 0; l-- {
				sc.visited.reset(bs)
				perLvl[l] = h.searchLayer(&q, eps, h.cfg.EfConstruction, l, &sc.visited, perLvl[l])
				eps = perLvl[l]
			}
			putScratch(sc)
			b.beams[i] = perLvl
			return nil
		})
	}
	// Phase 2: sequential commits in id order.
	for id := bs; id < be; id++ {
		h.commit(id, bs, b.beams[id-bs])
	}
}

// commit links node id into the graph: its candidates are the snapshot
// beam-search results plus every batch sibling already committed, selected
// by the diversity heuristic per layer, with symmetric links and degree
// pruning. Runs strictly sequentially in id order.
func (h *HNSW) commit(id, bs int, perLvl [][]cand) {
	lvl := h.levels[id]
	if h.entry < 0 {
		h.entry, h.maxLvl = id, lvl
		return
	}
	// Distances to already-committed batch siblings, computed and sorted
	// once and merged into every layer both share.
	b := &h.build
	b.sibs = b.sibs[:0]
	for j := bs; j < id; j++ {
		b.sibs = append(b.sibs, cand{id: int32(j), dist: h.distIDs(int32(id), int32(j))})
	}
	slices.SortFunc(b.sibs, candCompare)
	for l := lvl; l >= 0; l-- {
		// The layer's beam arrives sorted; merge the siblings into it.
		var beam []cand
		if l < len(perLvl) {
			beam = perLvl[l]
		}
		merged := b.merged[:0]
		for _, s := range b.sibs {
			if h.levels[s.id] < l {
				continue
			}
			for len(beam) > 0 && candBefore(beam[0], s) {
				merged = append(merged, beam[0])
				beam = beam[1:]
			}
			merged = append(merged, s)
		}
		merged = append(merged, beam...)
		b.merged = merged
		if len(merged) == 0 {
			continue
		}
		b.kept = h.selectNeighbors(merged, h.cfg.M, b.kept)
		nbs := make([]int32, len(b.kept))
		for k, c := range b.kept {
			nbs[k] = c.id
		}
		h.links[id][l] = nbs
		// prune reuses b.merged and b.kept, so walk the stored ids.
		for _, nb := range nbs {
			h.links[nb][l] = append(h.links[nb][l], int32(id))
			if limit := h.maxM(l); len(h.links[nb][l]) > limit {
				h.prune(nb, l, limit)
			}
		}
	}
	if lvl > h.maxLvl {
		h.entry, h.maxLvl = id, lvl
	}
}

// prune re-selects node id's layer-l neighbours down to limit with the
// same diversity heuristic used at insertion.
func (h *HNSW) prune(id int32, l, limit int) {
	b := &h.build
	old := h.links[id][l]
	cands := b.merged[:0]
	for _, nb := range old {
		cands = append(cands, cand{id: nb, dist: h.distIDs(id, nb)})
	}
	slices.SortFunc(cands, candCompare)
	b.merged = cands
	b.kept = h.selectNeighbors(cands, limit, b.kept)
	nbs := old[:0]
	for _, c := range b.kept {
		nbs = append(nbs, c.id)
	}
	h.links[id][l] = nbs
}

// widenEf widens a search beam to absorb tombstoned candidates: dead
// nodes still route and occupy beam slots, so without widening a churned
// index would return fewer (or worse) live results. The widening is
// clamped at twice the base beam — a bound on the quality degradation a
// tombstone pile can cause — so the total beam never exceeds 3×base and
// unbounded churn without compaction cannot degrade Search to a
// near-brute-force scan of the whole graph.
func widenEf(base, nDeleted int) int {
	w := nDeleted
	if w > 2*base {
		w = 2 * base
	}
	return base + w
}

// searchInto implements searcherIndex; see Search for semantics.
func (h *HNSW) searchInto(sc *scratch, q []float64, k int) ([]Result, error) {
	if err := checkQuery(h.st.dim, q, k); err != nil {
		return nil, err
	}
	if k > h.Live() {
		k = h.Live()
	}
	if k == 0 || h.entry < 0 {
		return nil, nil
	}
	sq := h.st.queryInto(sc, q)
	cur := cand{id: int32(h.entry), dist: h.distQ(sq, int32(h.entry))}
	for l := h.maxLvl; l >= 1; l-- {
		cur = h.greedyStep(sq, cur, l)
	}
	base := h.cfg.EfSearch
	if k > base {
		base = k
	}
	ef := widenEf(base, h.nDeleted)
	sc.visited.reset(h.st.len())
	sc.eps[0] = cur
	sc.layer = h.searchLayer(sq, sc.eps[:], ef, 0, &sc.visited, sc.layer)
	res := sc.layer
	if h.st.prec == Float64 {
		sc.out = sc.out[:0]
		for _, c := range res {
			if h.deleted[c.id] {
				continue
			}
			sc.out = append(sc.out, Result{ID: int(c.id), Dist: c.dist})
			if len(sc.out) == k {
				break
			}
		}
		return sc.out, nil
	}
	// Reduced precision: collect the nearest live scan candidates up to the
	// re-rank depth, then re-score them exactly.
	depth := rerankDepth(k)
	sc.cands = sc.cands[:0]
	for _, c := range res {
		if h.deleted[c.id] {
			continue
		}
		sc.cands = append(sc.cands, Result{ID: int(c.id), Dist: c.dist})
		if len(sc.cands) == depth {
			break
		}
	}
	out := h.st.rerank(sq, sc.cands, &sc.rsort)
	if len(out) > k {
		out = out[:k:k]
	}
	return out, nil
}

// Search implements Index: greedy descent from the entry point through the
// upper layers, then a beam search of the base layer with
// ef = max(EfSearch, k) widened by the tombstone count (clamped, see
// widenEf). Tombstoned nodes route but never appear in the result. At a
// reduced precision the beam runs on the scan kernels and the surviving
// candidates are re-scored in exact float64, so the returned distances are
// the exact metric distances in every mode. The returned slice is
// caller-owned; hot loops that want the allocation-free variant should
// hold a Searcher.
func (h *HNSW) Search(q []float64, k int) ([]Result, error) {
	return searchOne(h, q, k)
}

// SearchBatch implements Index: it answers every query of the batch in one
// call, fanning contiguous query chunks out on the construction pool with
// one reusable scratch per worker. Output is bit-identical to calling
// Search per query, at every pool width.
func (h *HNSW) SearchBatch(qs [][]float64, k int) ([][]Result, error) {
	return searchBatchOver(h, qs, k)
}

// SetPool replaces the worker pool Add and SearchBatch fan out on. Like
// the pool passed to NewHNSW it is a pure throughput knob — the graph and
// every search result are bit-identical at every width; nil means serial.
func (h *HNSW) SetPool(p *pool.Pool) { h.pool = p }

// searchPool implements searcherIndex.
func (h *HNSW) searchPool() *pool.Pool { return h.pool }
