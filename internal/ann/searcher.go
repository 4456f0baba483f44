package ann

// Reusable per-goroutine search scratch. Every allocation the query path
// needs — the reduced-precision query copies, the bounded candidate heap,
// the HNSW visited set and beam buffer, the re-rank buffer and the result
// slice itself — lives in one scratch value that is reused across queries,
// so a steady-state search allocates nothing. The scratch is exposed two
// ways:
//
//   - Searcher is the caller-owned form: one goroutine, zero allocations,
//     results valid only until its next call. Batch drivers (benchmarks,
//     replay loops, the worker bodies of SearchBatch) hold one per worker.
//   - Index.Search / Index.SearchBatch stay allocation-light rather than
//     allocation-free: they borrow scratch from a package-level sync.Pool
//     and copy the results out, keeping the historical contract that
//     returned slices are caller-owned and never recycled.
//
// Scratch never carries information between queries — every buffer is
// length-reset, and the visited set re-armed, before use — so recycling it
// through a sync.Pool cannot perturb results and the determinism contract
// (bit-identical output at every pool width) is untouched. The HNSW
// insertion path borrows the same scratch for its candidate searches.

import (
	"fmt"
	"sort"
	"sync"

	"github.com/gem-embeddings/gem/internal/pool"
)

// scratch is the full set of buffers one in-flight search needs. It is
// index-agnostic: the same value serves Flat and HNSW at any precision, and
// a pooled scratch may move between indexes freely.
type scratch struct {
	sq  scanQuery // prepared query; its f32/i8 fields alias the buffers below
	f32 []float32 // reduced-precision query copies, reused across queries
	i8  []int8

	sel     candHeap   // bounded farthest-first selection (Flat top-k / rerank pool)
	layer   []cand     // HNSW base-layer beam (searchLayer's sorted result)
	visited visitedSet // HNSW visited set, re-armed per layer search
	eps     [1]cand    // entry-point slice of the first searched layer

	cands []Result // re-rank candidate buffer
	out   []Result // final results (returned by searchInto)

	rsort resultSorter // allocation-free sort.Interface adapter

	arena []Result   // SearchBatch: results of all queries, back to back
	spans [][2]int   // SearchBatch: [start, end) of each query in arena
	batch [][]Result // SearchBatch: per-query views into arena
}

// visitedSet marks the nodes one layer search has seen. A node is marked
// when its stamp equals the current generation, so re-arming the set is one
// increment rather than an O(n) clear; the stamps are wiped only when the
// 16-bit generation wraps.
type visitedSet struct {
	stamp []uint16
	gen   uint16
}

// reset re-arms the set, unmarked, for ids in [0, n).
func (v *visitedSet) reset(n int) {
	if c := cap(v.stamp); c < n {
		// append's amortized growth: an index growing one vector at a time
		// must not reallocate per insert. The new tail is zeroed.
		v.stamp = append(v.stamp[:c], make([]uint16, n-c)...)
	}
	v.stamp = v.stamp[:n]
	v.gen++
	if v.gen == 0 {
		// Wrapped: a stamp left at an old generation could now read as
		// marked. Wipe the whole backing array, not just the first n.
		clear(v.stamp[:cap(v.stamp)])
		v.gen = 1
	}
}

// visit marks id and reports whether it was marked already.
func (v *visitedSet) visit(id int32) bool {
	if v.stamp[id] == v.gen {
		return true
	}
	v.stamp[id] = v.gen
	return false
}

// resultSorter sorts []Result by (distance, id) through a pointer receiver,
// so sorting costs no allocation (sort.Slice allocates its closure and
// reflect-based swapper per call).
type resultSorter struct{ rs []Result }

func (s *resultSorter) Len() int      { return len(s.rs) }
func (s *resultSorter) Swap(i, j int) { s.rs[i], s.rs[j] = s.rs[j], s.rs[i] }
func (s *resultSorter) Less(i, j int) bool {
	if s.rs[i].Dist != s.rs[j].Dist {
		return s.rs[i].Dist < s.rs[j].Dist
	}
	return s.rs[i].ID < s.rs[j].ID
}

// sortResults sorts rs by (distance, id) using the scratch adapter.
func (s *resultSorter) sort(rs []Result) {
	s.rs = rs
	sort.Sort(s)
	s.rs = nil
}

// grow returns s with length n, reusing the backing array when it is wide
// enough. Contents are unspecified; callers overwrite every slot.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratches recycles search scratch across every index in the process.
// Get/Put order never influences results (see the file comment), so the
// pool is determinism-neutral.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratches.Get().(*scratch) }
func putScratch(sc *scratch) { scratches.Put(sc) }

// searcherIndex is the scratch-driven search entry point both index types
// implement; Searcher and the shared Search/SearchBatch drivers dispatch
// through it.
type searcherIndex interface {
	Index
	// searchInto answers one query using sc's buffers. The returned slice
	// aliases sc and is valid only until sc's next use.
	searchInto(sc *scratch, q []float64, k int) ([]Result, error)
	// searchPool returns the pool SearchBatch fans out on (nil = serial).
	searchPool() *pool.Pool
}

// Searcher is a reusable single-goroutine search context over one index.
// Steady-state Search and SearchBatch through a Searcher perform zero heap
// allocations: every buffer, including the returned result slices, is owned
// by the Searcher and recycled on the next call.
//
// The scratch ownership contract: results returned by a Searcher are views
// into its scratch, valid only until the next Search/SearchBatch call on
// the same Searcher. Callers that need to retain results must copy them
// (or use Index.Search, which copies for them). A Searcher must not be
// shared between goroutines; create one per worker.
//
// A Searcher reads the index's live state on every call, so it remains
// valid across Add/Remove — but like Index.Search itself, calls must not
// race with mutations.
type Searcher struct {
	idx searcherIndex
	sc  scratch
}

// NewSearcher returns a Searcher over idx. Every index type in this
// package supports it; a foreign Index implementation fails with ErrInput.
func NewSearcher(idx Index) (*Searcher, error) {
	si, ok := idx.(searcherIndex)
	if !ok {
		return nil, fmt.Errorf("%w: index type %T has no scratch search path", ErrInput, idx)
	}
	return &Searcher{idx: si}, nil
}

// Search answers one query. The returned slice is scratch-backed: it is
// valid only until the next call on this Searcher.
func (s *Searcher) Search(q []float64, k int) ([]Result, error) {
	return s.idx.searchInto(&s.sc, q, k)
}

// SearchBatch answers qs[i] into out[i], serially on the calling
// goroutine. The returned slices share one scratch-backed arena, valid
// only until the next call on this Searcher. For parallel fan-out use
// Index.SearchBatch, which runs one Searcher-equivalent per worker.
func (s *Searcher) SearchBatch(qs [][]float64, k int) ([][]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	sc := &s.sc
	sc.arena = sc.arena[:0]
	sc.spans = grow(sc.spans, len(qs))
	for i, q := range qs {
		res, err := s.idx.searchInto(sc, q, k)
		if err != nil {
			return nil, err
		}
		start := len(sc.arena)
		sc.arena = append(sc.arena, res...)
		sc.spans[i] = [2]int{start, len(sc.arena)}
	}
	// Build the per-query views only after the arena stopped growing:
	// append may have moved it.
	sc.batch = grow(sc.batch, len(qs))
	for i, sp := range sc.spans {
		sc.batch[i] = sc.arena[sp[0]:sp[1]:sp[1]]
	}
	return sc.batch, nil
}

// copyResults copies a scratch-backed result slice into a fresh
// caller-owned one, preserving nil.
func copyResults(rs []Result) []Result {
	if rs == nil {
		return nil
	}
	out := make([]Result, len(rs))
	copy(out, rs)
	return out
}

// searchOne is the shared Index.Search driver: borrow scratch, search,
// copy the results out so the caller owns them.
func searchOne(idx searcherIndex, q []float64, k int) ([]Result, error) {
	sc := getScratch()
	res, err := idx.searchInto(sc, q, k)
	out := copyResults(res)
	putScratch(sc)
	return out, err
}

// searchBatchOver is the shared Index.SearchBatch driver. Queries are
// split into contiguous chunks fanned out on the index pool, one borrowed
// scratch per chunk; every query writes only its own slot, so the output
// is bit-identical to a sequential loop of Search calls at every pool
// width. On error the lowest-indexed failing query's error is returned —
// the same error a sequential loop would surface first.
func searchBatchOver(idx searcherIndex, qs [][]float64, k int) ([][]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	p := idx.searchPool()
	out := make([][]Result, len(qs))
	errs := make([]error, len(qs))
	chunks := p.Workers()
	if chunks > len(qs) {
		chunks = len(qs)
	}
	size := (len(qs) + chunks - 1) / chunks
	_ = p.For(chunks, func(c int) error {
		lo, hi := c*size, (c+1)*size
		if hi > len(qs) {
			hi = len(qs)
		}
		sc := getScratch()
		defer putScratch(sc)
		for i := lo; i < hi; i++ {
			res, err := idx.searchInto(sc, qs[i], k)
			if err != nil {
				errs[i] = err
				continue
			}
			out[i] = copyResults(res)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
