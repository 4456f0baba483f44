package ann

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// refHeap is the two-mode candidate heap the layer search used before the
// sorted beam: min selects nearest-first (candidate frontier) or
// farthest-first (bounded result set) order. Kept verbatim as part of the
// reference implementation below.
type refHeap struct {
	items []cand
	min   bool
}

func (ch *refHeap) before(a, b cand) bool {
	if ch.min {
		return candBefore(a, b)
	}
	return candBefore(b, a)
}

func (ch *refHeap) len() int   { return len(ch.items) }
func (ch *refHeap) peek() cand { return ch.items[0] }

func (ch *refHeap) push(c cand) {
	ch.items = append(ch.items, c)
	i := len(ch.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ch.before(ch.items[i], ch.items[p]) {
			break
		}
		ch.items[i], ch.items[p] = ch.items[p], ch.items[i]
		i = p
	}
}

func (ch *refHeap) pop() cand {
	top := ch.items[0]
	last := len(ch.items) - 1
	ch.items[0] = ch.items[last]
	ch.items = ch.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && ch.before(ch.items[l], ch.items[best]) {
			best = l
		}
		if r < last && ch.before(ch.items[r], ch.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		ch.items[i], ch.items[best] = ch.items[best], ch.items[i]
		i = best
	}
	return top
}

// refSearchLayer is Algorithm 2 as this package implemented it with two
// heaps — the reference the sorted beam must reproduce candidate for
// candidate. visited is left dirty, like the visitedSet of searchLayer.
func (h *HNSW) refSearchLayer(q *scanQuery, eps []cand, ef, lvl int, visited []bool) []cand {
	frontier := refHeap{min: true}
	results := refHeap{min: false}
	for _, e := range eps {
		if visited[e.id] {
			continue
		}
		visited[e.id] = true
		frontier.push(e)
		results.push(e)
	}
	for results.len() > ef {
		results.pop()
	}
	for frontier.len() > 0 {
		c := frontier.pop()
		if results.len() >= ef && candBefore(results.peek(), c) {
			break
		}
		for _, nb := range h.links[c.id][lvl] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := cand{id: nb, dist: h.distQ(q, nb)}
			if results.len() < ef || candBefore(d, results.peek()) {
				frontier.push(d)
				results.push(d)
				if results.len() > ef {
					results.pop()
				}
			}
		}
	}
	out := make([]cand, len(results.items))
	copy(out, results.items)
	sort.Slice(out, func(i, j int) bool { return candBefore(out[i], out[j]) })
	return out
}

// TestSearchLayerMatchesTwoHeapReference: on graphs with duplicate vectors,
// for every layer, beam width, entry-point count (including more entry
// points than the beam holds) and a visited set that arrives dirty, the
// sorted beam returns exactly the reference's candidates in its order and
// leaves exactly the same nodes marked visited.
func TestSearchLayerMatchesTwoHeapReference(t *testing.T) {
	for _, cfg := range []HNSWConfig{
		{Metric: Cosine, Seed: 3, M: 4, EfConstruction: 40},
		{Metric: Euclidean, Seed: 5, M: 6, EfConstruction: 60, Precision: Int8},
	} {
		h, err := NewHNSW(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(goldenVectors(900, 12, 11+cfg.Seed)...); err != nil {
			t.Fatal(err)
		}
		if h.maxLvl < 2 {
			t.Fatalf("graph has %d layers, want a multi-layer one", h.maxLvl+1)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		queries := goldenVectors(6, 12, 11+cfg.Seed)
		var vis visitedSet
		var beam []cand
		for lvl := 0; lvl <= h.maxLvl; lvl++ {
			var onLayer []int32
			for id, l := range h.levels {
				if l >= lvl {
					onLayer = append(onLayer, int32(id))
				}
			}
			for _, ef := range []int{1, 2, 10, 200, 300} {
				for _, nEps := range []int{1, ef, ef + 5} {
					for qi, qv := range queries {
						name := fmt.Sprintf("%v/lvl%d/ef%d/eps%d/q%d", cfg.Metric, lvl, ef, nEps, qi)
						q := h.st.query(qv)
						// Entry points: distinct nodes of the layer in random order.
						rng.Shuffle(len(onLayer), func(i, j int) { onLayer[i], onLayer[j] = onLayer[j], onLayer[i] })
						var eps []cand
						for _, id := range onLayer[:min(nEps, len(onLayer))] {
							eps = append(eps, cand{id: id, dist: h.distQ(&q, id)})
						}
						// Both visited sets arrive dirty in the same places, some
						// of them entry points.
						refVisited := make([]bool, h.Len())
						vis.reset(h.Len())
						for i := 0; i < h.Len()/10; i++ {
							id := int32(rng.Intn(h.Len()))
							refVisited[id] = true
							vis.visit(id)
						}
						want := h.refSearchLayer(&q, eps, ef, lvl, refVisited)
						beam = h.searchLayer(&q, eps, ef, lvl, &vis, beam)
						if len(beam) != len(want) {
							t.Fatalf("%s: beam has %d candidates, reference %d", name, len(beam), len(want))
						}
						for i := range want {
							if beam[i] != want[i] {
								t.Fatalf("%s: candidate %d = %+v, reference %+v", name, i, beam[i], want[i])
							}
						}
						for id, seen := range refVisited {
							if got := vis.stamp[id] == vis.gen; got != seen {
								t.Fatalf("%s: node %d visited = %v, reference %v", name, id, got, seen)
							}
						}
					}
				}
			}
		}
	}
}

// TestCandLayout: the expanded bit lives in cand's padding, and a beam
// handed on as the next layer's entry points carries it cleared.
func TestCandLayout(t *testing.T) {
	if got := unsafe.Sizeof(cand{}); got != 16 {
		t.Fatalf("cand is %d bytes, want 16", got)
	}
	h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 2, M: 4, EfConstruction: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vecs := goldenVectors(400, 8, 19)
	if err := h.Add(vecs...); err != nil {
		t.Fatal(err)
	}
	q := h.st.query(vecs[7])
	var vis visitedSet
	vis.reset(h.Len())
	entry := cand{id: int32(h.entry), dist: h.distQ(&q, int32(h.entry))}
	upper := h.searchLayer(&q, []cand{entry}, 30, 1, &vis, nil)
	for _, c := range upper {
		if c.expanded {
			t.Fatalf("returned beam leaks expanded on %+v", c)
		}
	}
}

// TestVisitedSetGenerations: re-arming unmarks everything, growth keeps the
// set unmarked, and the generation wrap wipes stamps that would otherwise
// read as marked again — including ones beyond the current length.
func TestVisitedSetGenerations(t *testing.T) {
	var v visitedSet
	v.reset(8)
	if v.visit(3) || !v.visit(3) {
		t.Fatal("visit must report unmarked once, then marked")
	}
	v.reset(4)
	v.reset(16)
	for id := int32(0); id < 16; id++ {
		if v.visit(id) {
			t.Fatalf("id %d marked after reset", id)
		}
	}
	// Everything carries the current generation; step to the wrap.
	stale := v.gen
	v.reset(2)
	for v.gen != stale-1 {
		v.reset(2)
	}
	v.reset(16)
	if v.gen != stale {
		t.Fatalf("generation %d after the wrap, want %d back", v.gen, stale)
	}
	for id := int32(0); id < 16; id++ {
		if v.visit(id) {
			t.Fatalf("id %d reads as marked after the generation wrapped", id)
		}
	}
}
