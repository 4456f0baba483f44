package ann

import (
	"io"

	"github.com/gem-embeddings/gem/internal/pool"
)

// Flat is the exact brute-force index: Search scans every stored vector.
// It is the recall reference for HNSW and the right choice for small
// catalogs where an O(n·d) scan is already fast. At a reduced precision
// the scan runs on the quantized copy and the top candidates are re-scored
// in exact float64, so reported distances are always exact.
type Flat struct {
	st       vecStore
	deleted  []bool // tombstones; Search skips marked slots
	nDeleted int
	pool     *pool.Pool // bounds SearchBatch fan-out; nil = serial
}

// NewFlat returns an empty exact index under the given metric, scanning
// in full float64 precision.
func NewFlat(metric Metric) *Flat {
	return &Flat{st: newVecStore(metric, Float64)}
}

// NewFlatAt returns an empty index under the given metric whose scans run
// at the given precision. An invalid precision falls back to Float64 at
// the first Add — use checkPrecision-validating constructors (HNSWConfig)
// when the precision comes from user input.
func NewFlatAt(metric Metric, prec Precision) (*Flat, error) {
	if err := checkPrecision(prec); err != nil {
		return nil, err
	}
	return &Flat{st: newVecStore(metric, prec)}, nil
}

// SetPool sets the worker pool SearchBatch fans queries out on. The pool
// is a pure throughput knob: results are bit-identical at every width,
// including the nil (serial) default.
func (f *Flat) SetPool(p *pool.Pool) { f.pool = p }

// searchPool implements searcherIndex.
func (f *Flat) searchPool() *pool.Pool { return f.pool }

// Add implements Index.
func (f *Flat) Add(vecs ...[]float64) error {
	dim, err := checkAdd(f.st.dim, f.st.len(), vecs)
	if err != nil {
		return err
	}
	f.st.add(dim, vecs)
	for range vecs {
		f.deleted = append(f.deleted, false)
	}
	return nil
}

// Remove implements Index: the slot is tombstoned, not reclaimed.
func (f *Flat) Remove(id int) error {
	if err := checkRemove(f.deleted, id); err != nil {
		return err
	}
	f.deleted[id] = true
	f.nDeleted++
	return nil
}

// Len implements Index.
func (f *Flat) Len() int { return f.st.len() }

// Live implements Index.
func (f *Flat) Live() int { return f.st.len() - f.nDeleted }

// Dim implements Index.
func (f *Flat) Dim() int { return f.st.dim }

// Metric implements Index.
func (f *Flat) Metric() Metric { return f.st.metric }

// Precision implements Index.
func (f *Flat) Precision() Precision { return f.st.prec }

// Rebuild implements Index: survivors are re-added in id order, so the
// result is byte-identical to a fresh Flat built from them.
func (f *Flat) Rebuild() ([]int, error) {
	mapping, live := liveMapping(f.st.vecs, f.deleted)
	nf := &Flat{st: newVecStore(f.st.metric, f.st.prec), pool: f.pool}
	if err := nf.Add(live...); err != nil {
		return nil, err
	}
	*f = *nf
	return mapping, nil
}

// candHeap is a binary heap of candidates with the farthest (last under
// candBefore) at the root: pushing onto a full heap after popping the root
// keeps the m nearest candidates seen so far, which is Flat's bounded top-k.
type candHeap struct {
	items []cand
}

func (ch *candHeap) len() int   { return len(ch.items) }
func (ch *candHeap) peek() cand { return ch.items[0] }

// reset empties the heap without freeing its backing array.
func (ch *candHeap) reset() { ch.items = ch.items[:0] }

func (ch *candHeap) push(c cand) {
	ch.items = append(ch.items, c)
	i := len(ch.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candBefore(ch.items[p], ch.items[i]) {
			break
		}
		ch.items[i], ch.items[p] = ch.items[p], ch.items[i]
		i = p
	}
}

func (ch *candHeap) pop() cand {
	top := ch.items[0]
	last := len(ch.items) - 1
	ch.items[0] = ch.items[last]
	ch.items = ch.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		far := i
		if l < last && candBefore(ch.items[far], ch.items[l]) {
			far = l
		}
		if r < last && candBefore(ch.items[far], ch.items[r]) {
			far = r
		}
		if far == i {
			break
		}
		ch.items[i], ch.items[far] = ch.items[far], ch.items[i]
		i = far
	}
	return top
}

// selectNearest scans the live vectors under the scan kernel and fills
// sc.sel with the m nearest candidates under the (distance, id) total
// order — a farthest-first heap of size m, O(n log m) and no O(n) result
// slice. The heap holds exactly the m first entries of the fully sorted
// scan, so downstream consumers see the same candidates the historical
// full-materialize-and-sort produced.
func (f *Flat) selectNearest(sc *scratch, sq *scanQuery, m int) {
	sel := &sc.sel
	sel.reset()
	for i := range f.st.vecs {
		if f.deleted[i] {
			continue
		}
		c := cand{id: int32(i), dist: f.st.scanDist(sq, i)}
		if sel.len() < m {
			sel.push(c)
			continue
		}
		if candBefore(c, sel.peek()) {
			sel.pop()
			sel.push(c)
		}
	}
}

// searchInto implements searcherIndex; see Search for semantics.
func (f *Flat) searchInto(sc *scratch, q []float64, k int) ([]Result, error) {
	if err := checkQuery(f.st.dim, q, k); err != nil {
		return nil, err
	}
	if k > f.Live() {
		k = f.Live()
	}
	if k == 0 {
		return nil, nil
	}
	sq := f.st.queryInto(sc, q)
	if f.st.prec == Float64 {
		// Exact scan: the heap IS the answer. Popping farthest-first fills
		// the output back to front, leaving it nearest-first.
		f.selectNearest(sc, sq, k)
		n := sc.sel.len()
		sc.out = grow(sc.out, n)
		for i := n - 1; i >= 0; i-- {
			c := sc.sel.pop()
			sc.out[i] = Result{ID: int(c.id), Dist: c.dist}
		}
		return sc.out, nil
	}
	// Reduced precision: bounded selection under the scan kernel, then the
	// exact float64 re-rank of the survivors.
	f.selectNearest(sc, sq, rerankDepth(k))
	sc.cands = grow(sc.cands, sc.sel.len())
	for i := range sc.cands {
		c := sc.sel.pop()
		sc.cands[i] = Result{ID: int(c.id), Dist: c.dist}
	}
	out := f.st.rerank(sq, sc.cands, &sc.rsort)
	if len(out) > k {
		out = out[:k:k]
	}
	return out, nil
}

// Search implements Index: an exact scan over the live vectors, sorted by
// (distance, id). At a reduced precision the scan keeps the rerankDepth(k)
// nearest candidates under the quantized kernel and re-scores them in
// float64, so the returned distances are the exact metric distances. The
// returned slice is caller-owned; hot loops that want the allocation-free
// variant should hold a Searcher.
func (f *Flat) Search(q []float64, k int) ([]Result, error) {
	return searchOne(f, q, k)
}

// SearchBatch implements Index: it answers every query of the batch in one
// call, fanning contiguous query chunks out on the pool (SetPool) with one
// reusable scratch per worker. Output is bit-identical to calling Search
// per query, at every pool width.
func (f *Flat) SearchBatch(qs [][]float64, k int) ([][]Result, error) {
	return searchBatchOver(f, qs, k)
}

// Save implements Index; see persist.go for the format.
func (f *Flat) Save(w io.Writer) error { return saveFlat(w, f) }
