// Package shard splits a column catalog — the membership bookkeeping, the
// durable store and the ANN index — into N consistent-hashed shards keyed
// by content hash, and answers searches by scatter-gather over all of
// them.
//
// The contract that makes sharding safe to adopt is determinism: for an
// exact (exhaustive) index, a sharded catalog returns byte-identical
// Search results to an unsharded one built from the same add/remove
// sequence, at any shard count and any worker count. That holds because
// global ids rank columns by add order, each shard's local-id order is a
// subsequence of that global order, so each shard's (distance, local-id)
// top-k maps exactly onto the global (distance, id) top-k restricted to
// that shard; merging the per-shard lists by (distance, global id) then
// reconstructs the unsharded answer. Approximate or reduced-precision
// indexes keep per-shard determinism (same inputs, same results) but may
// legitimately differ from an unsharded build, since graph construction
// and candidate reranking see different neighbor pools.
//
// Durability stays shard-local: each shard owns one catalog.Store, so
// crash recovery replays N small journals instead of one big one, and a
// torn record only costs its own shard. Entries persist a global sequence
// number (store format v2); replay sorts all shards' events by that
// sequence to rebuild the exact global id assignment the writing process
// used.
//
// A Catalog is passive and unsynchronized, like ann.Index: the caller
// (internal/serve) serializes mutations and may run Search concurrently
// with other Searches, but not with mutations.
//
//gem:deterministic
//gem:pooled
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/stats"
)

// ErrInput marks caller mistakes: bad configuration, ids out of range.
var ErrInput = errors.New("shard: invalid input")

// ErrStore marks a failure of the durable layer underneath a mutation —
// a journal append or compaction that did not complete, or an index that
// diverged from its journal. The catalog may be serving from memory what
// the store no longer guarantees; callers should surface it loudly.
var ErrStore = errors.New("shard: store failure")

// Config assembles a Catalog.
type Config struct {
	// Indexes are the per-shard ANN indexes; their count sets the shard
	// count. All must share one metric, precision and (once populated)
	// dimensionality. For determinism across processes, build them
	// identically (same HNSW config and seed).
	Indexes []ann.Index
	// Stores, when non-nil, pairs one durable store with each shard.
	Stores []*catalog.Store
	// Pool, when non-nil, fans Search out over shards.
	Pool *pool.Pool
	// Replicas is the virtual-point count per shard on the hash ring.
	// Default 64. Changing it reshuffles ownership; every process of one
	// deployment must agree on it.
	Replicas int
	// PreloadNames names the vectors already present in a preloaded
	// single-shard index (missing tails fall back to "@i"). Only a
	// store-less single-shard catalog can adopt a preloaded index.
	PreloadNames []string
}

// loc addresses one column inside its shard.
type loc struct {
	shard int
	local int
}

// Catalog is a sharded column catalog. Global ids are dense, assigned in
// add order, and renumbered on Compact — exactly the id discipline of a
// single ann index, so callers built against one keep working.
type Catalog struct {
	idxs   []ann.Index
	stores []*catalog.Store // nil, or one per shard
	ring   *ring
	pool   *pool.Pool

	names  []string      // by global id
	keys   []catalog.Key // by global id (zero for preloaded vectors)
	live   []bool        // by global id
	locOf  []loc         // global id -> shard-local address
	globOf [][]int       // shard -> local id -> global id
	idOf   map[catalog.Key]int
	seen   map[catalog.Key]bool

	// nextSeq is the next global sequence number to persist with an add.
	// Sequence 0 is reserved for legacy (format v1) entries.
	nextSeq  uint64
	removals int

	// searchObs, when set, observes each shard's Search wall-clock during
	// the scatter phase. Observation only — it must not influence results.
	searchObs func(shard int, seconds float64)
}

// SetSearchObserver installs fn to receive (shard, seconds) for every
// per-shard index search. Search fans out over a pool, so fn is called
// concurrently and must be safe for that. Set once before serving; nil
// uninstalls.
func (c *Catalog) SetSearchObserver(fn func(shard int, seconds float64)) { c.searchObs = fn }

// New validates the shard set and assembles a Catalog. Indexes must be
// empty, except that a single-shard store-less catalog may adopt one
// preloaded index (the -index-in serving path).
func New(cfg Config) (*Catalog, error) {
	n := len(cfg.Indexes)
	if n == 0 {
		return nil, fmt.Errorf("%w: a catalog needs at least one shard index", ErrInput)
	}
	if cfg.Stores != nil && len(cfg.Stores) != n {
		return nil, fmt.Errorf("%w: %d stores for %d shards", ErrInput, len(cfg.Stores), n)
	}
	metric, prec := cfg.Indexes[0].Metric(), cfg.Indexes[0].Precision()
	for i, idx := range cfg.Indexes {
		if idx == nil {
			return nil, fmt.Errorf("%w: shard %d has no index", ErrInput, i)
		}
		if idx.Metric() != metric || idx.Precision() != prec {
			return nil, fmt.Errorf("%w: shard %d index is %v/%v, shard 0 is %v/%v — shards must match", ErrInput, i, idx.Metric(), idx.Precision(), metric, prec)
		}
		if i > 0 && idx.Len() != 0 {
			return nil, fmt.Errorf("%w: shard %d index has %d preloaded vectors (only a single-shard catalog can adopt a preloaded index)", ErrInput, i, idx.Len())
		}
	}
	preloaded := cfg.Indexes[0].Len()
	if preloaded > 0 {
		if n > 1 {
			return nil, fmt.Errorf("%w: a preloaded index cannot be sharded (%d shards)", ErrInput, n)
		}
		if cfg.Stores != nil {
			return nil, fmt.Errorf("%w: a store replays into an empty index, got %d preloaded vectors", ErrInput, preloaded)
		}
	}
	if len(cfg.PreloadNames) > 0 && n > 1 {
		return nil, fmt.Errorf("%w: preload names only apply to a single-shard catalog", ErrInput)
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 64
	}
	c := &Catalog{
		idxs:    cfg.Indexes,
		stores:  cfg.Stores,
		ring:    newRing(n, replicas),
		pool:    cfg.Pool,
		globOf:  make([][]int, n),
		idOf:    make(map[catalog.Key]int),
		seen:    make(map[catalog.Key]bool),
		nextSeq: 1,
	}
	for i := 0; i < preloaded; i++ {
		name := fmt.Sprintf("@%d", i)
		if i < len(cfg.PreloadNames) {
			name = cfg.PreloadNames[i]
		}
		c.names = append(c.names, name)
		c.keys = append(c.keys, catalog.Key{})
		c.live = append(c.live, true)
		c.locOf = append(c.locOf, loc{0, i})
		c.globOf[0] = append(c.globOf[0], i)
	}
	return c, nil
}

// replayEvent is one add observed during store replay, tagged with where
// it landed so the global order can be rebuilt.
type replayEvent struct {
	seq          uint64
	shard, local int
	key          catalog.Key
	name         string
}

// Replay rebuilds the in-memory catalog from the per-shard stores:
// snapshot entries as one batched index Add (the batch boundary is part of
// the deterministic graph definition), journal ops one at a time, then a
// stable sort of every add event by persisted sequence number to recover
// the global id assignment. warm, when non-nil, observes every replayed
// add (raw, un-normalized vector) — the serve layer uses it to pre-warm
// its embedding cache.
func (c *Catalog) Replay(warm func(key catalog.Key, name string, vec []float64)) error {
	if c.stores == nil {
		return fmt.Errorf("%w: catalog has no stores to replay", ErrInput)
	}
	if len(c.names) != 0 {
		return fmt.Errorf("%w: replay needs an empty catalog, got %d columns", ErrInput, len(c.names))
	}
	var evs []replayEvent
	liveLocal := make([][]bool, len(c.idxs))
	for si, st := range c.stores {
		idx := c.idxs[si]
		snap := st.Snapshot()
		if len(snap) > 0 {
			vecs := make([][]float64, len(snap))
			for i, e := range snap {
				vecs[i] = c.normalized(e.Vec)
			}
			if err := idx.Add(vecs...); err != nil {
				return fmt.Errorf("shard %d: replaying store snapshot: %w", si, err)
			}
		}
		localID := make(map[catalog.Key]int, len(snap))
		for i, e := range snap {
			localID[e.Key] = i
			evs = append(evs, replayEvent{seq: e.Seq, shard: si, local: i, key: e.Key, name: e.Name})
			liveLocal[si] = append(liveLocal[si], true)
			if warm != nil {
				warm(e.Key, e.Name, e.Vec)
			}
		}
		for _, op := range st.Ops() {
			switch op.Kind {
			case catalog.OpAdd:
				if err := idx.Add(c.normalized(op.Entry.Vec)); err != nil {
					return fmt.Errorf("shard %d: replaying store journal: %w", si, err)
				}
				li := idx.Len() - 1
				localID[op.Entry.Key] = li
				evs = append(evs, replayEvent{seq: op.Entry.Seq, shard: si, local: li, key: op.Entry.Key, name: op.Entry.Name})
				liveLocal[si] = append(liveLocal[si], true)
				if warm != nil {
					warm(op.Entry.Key, op.Entry.Name, op.Entry.Vec)
				}
			case catalog.OpRemove:
				li, ok := localID[op.Entry.Key]
				if !ok {
					return fmt.Errorf("shard %d: replaying store journal: remove of key %s that is not live", si, op.Entry.Key)
				}
				if err := idx.Remove(li); err != nil {
					return fmt.Errorf("shard %d: replaying store journal: %w", si, err)
				}
				delete(localID, op.Entry.Key)
				liveLocal[si][li] = false
			default:
				return fmt.Errorf("shard %d: replaying store journal: unknown op kind %d", si, op.Kind)
			}
		}
	}
	if len(c.idxs) > 1 {
		// Multi-shard replay leans on distinct persisted sequence numbers
		// to interleave the shards; duplicates mean the stores were not
		// written by one sharded catalog (or predate format v2).
		seqs := make(map[uint64]bool, len(evs))
		for _, e := range evs {
			if seqs[e.seq] {
				return fmt.Errorf("%w: duplicate sequence number %d across shards — stores lack the global ordering sharded replay needs", ErrInput, e.seq)
			}
			seqs[e.seq] = true
		}
	}
	// Stable: single-shard legacy entries all carry seq 0, and their
	// construction order above is the store's arrival order.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	for si, idx := range c.idxs {
		c.globOf[si] = make([]int, idx.Len())
	}
	for g, e := range evs {
		c.names = append(c.names, e.name)
		c.keys = append(c.keys, e.key)
		alive := liveLocal[e.shard][e.local]
		c.live = append(c.live, alive)
		c.locOf = append(c.locOf, loc{e.shard, e.local})
		c.globOf[e.shard][e.local] = g
		c.seen[e.key] = true
		if alive {
			c.idOf[e.key] = g
		}
		if e.seq >= c.nextSeq {
			c.nextSeq = e.seq + 1
		}
	}
	return nil
}

// Add routes one column to its owning shard: journal first (with the next
// global sequence number), then the index, normalized for the metric. A
// key that is already live dedupes to its existing id. The key is marked
// seen either way. Returns the column's global id.
func (c *Catalog) Add(key catalog.Key, name string, vec []float64) (int, error) {
	c.seen[key] = true
	if id, ok := c.idOf[key]; ok {
		return id, nil
	}
	si := c.ring.owner(key)
	seq := c.nextSeq
	if c.stores != nil {
		op := catalog.Op{Kind: catalog.OpAdd, Entry: catalog.Entry{Key: key, Name: name, Vec: vec, Seq: seq}}
		if err := c.stores[si].Append(op); err != nil {
			return -1, fmt.Errorf("%w: journaling add: %v", ErrStore, err)
		}
	}
	if err := c.idxs[si].Add(c.normalized(vec)); err != nil {
		if c.stores != nil {
			// The journal already has the add (the vector passed the
			// store's own validation, so this is out-of-memory
			// territory): the store now leads the index.
			return -1, fmt.Errorf("%w: index add after journaled add: %v", ErrStore, err)
		}
		return -1, err
	}
	li := c.idxs[si].Len() - 1
	g := len(c.names)
	c.names = append(c.names, name)
	c.keys = append(c.keys, key)
	c.live = append(c.live, true)
	c.locOf = append(c.locOf, loc{si, li})
	c.globOf[si] = append(c.globOf[si], g)
	c.idOf[key] = g
	c.nextSeq = seq + 1
	return g, nil
}

// Remove retires the column with the given global id: journal first on
// the owning shard, then tombstone its index slot.
func (c *Catalog) Remove(id int) error {
	if id < 0 || id >= len(c.live) || !c.live[id] {
		return fmt.Errorf("%w: id %d is not a live column", ErrInput, id)
	}
	l := c.locOf[id]
	key := c.keys[id]
	if c.stores != nil {
		op := catalog.Op{Kind: catalog.OpRemove, Entry: catalog.Entry{Key: key}}
		if err := c.stores[l.shard].Append(op); err != nil {
			return fmt.Errorf("%w: journaling remove: %v", ErrStore, err)
		}
	}
	if err := c.idxs[l.shard].Remove(l.local); err != nil {
		if c.stores != nil {
			return fmt.Errorf("%w: index remove after journaled remove: %v", ErrStore, err)
		}
		return err
	}
	c.live[id] = false
	if key != (catalog.Key{}) {
		delete(c.idOf, key)
	}
	c.removals++
	return nil
}

// Search scatter-gathers q across every shard and merges the per-shard
// top-k by (distance, global id) — for exact indexes, byte-identical to
// an unsharded search over the same columns. q must already be normalized
// for the metric (it goes to the indexes verbatim). Safe to call
// concurrently with other Searches, not with mutations.
func (c *Catalog) Search(q []float64, k int) ([]ann.Result, error) {
	res, err := c.SearchBatch([][]float64{q}, k)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchBatch scatter-gathers a whole batch of queries in one pass: each
// shard answers every query of the batch in a single Index.SearchBatch
// call (one timing observation per shard per batch), and the per-shard
// answers are merged per query exactly as Search merges them. Output is
// bit-identical to calling Search once per query, at every pool width and
// shard count. Queries must already be normalized for the metric. Safe to
// call concurrently with other searches, not with mutations.
func (c *Catalog) SearchBatch(qs [][]float64, k int) ([][]ann.Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	per := make([][][]ann.Result, len(c.idxs))
	errs := make([]error, len(c.idxs))
	_ = c.pool.For(len(c.idxs), func(i int) error {
		if c.searchObs != nil {
			t := time.Now()
			per[i], errs[i] = c.idxs[i].SearchBatch(qs, k)
			c.searchObs(i, time.Since(t).Seconds())
			return nil
		}
		per[i], errs[i] = c.idxs[i].SearchBatch(qs, k)
		return nil
	})
	// Report the lowest-shard error for determinism.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	outs := make([][]ann.Result, len(qs))
	for j := range qs {
		var out []ann.Result
		for si, shardRes := range per {
			for _, r := range shardRes[j] {
				out = append(out, ann.Result{ID: c.globOf[si][r.ID], Dist: r.Dist})
			}
		}
		slices.SortFunc(out, compareResults)
		if len(out) > k {
			out = out[:k]
		}
		outs[j] = out
	}
	return outs, nil
}

// compareResults orders merged hits by (distance, global id). Global ids
// are unique, so the order is total and the sort deterministic.
func compareResults(a, b ann.Result) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Compact folds every shard's journal into its snapshot, rebuilds every
// index without its tombstones, and renumbers the survivors densely in
// global add order — the same order a fresh Replay of the compacted
// stores would assign. Stores compact before indexes rebuild, so a crash
// in between costs tombstone cleanup, not data. diverged reports whether
// any shard's store and index disagreed on the live count going in.
func (c *Catalog) Compact() (diverged bool, err error) {
	if c.stores != nil {
		for si, st := range c.stores {
			if st.Len() != c.idxs[si].Live() {
				diverged = true
			}
			if err := st.Compact(); err != nil {
				return diverged, fmt.Errorf("%w: compacting store %d: %v", ErrStore, si, err)
			}
		}
	}
	mappings := make([][]int, len(c.idxs))
	for si, idx := range c.idxs {
		m, err := idx.Rebuild()
		if err != nil {
			return diverged, fmt.Errorf("shard %d: rebuilding index: %w", si, err)
		}
		mappings[si] = m
	}
	names := make([]string, 0, len(c.names)-c.removals)
	keys := make([]catalog.Key, 0, cap(names))
	livef := make([]bool, 0, cap(names))
	locs := make([]loc, 0, cap(names))
	globOf := make([][]int, len(c.idxs))
	for si, idx := range c.idxs {
		globOf[si] = make([]int, idx.Len())
	}
	idOf := make(map[catalog.Key]int, cap(names))
	for oldG, alive := range c.live {
		if !alive {
			continue
		}
		l := c.locOf[oldG]
		nl := mappings[l.shard][l.local]
		if nl < 0 {
			continue
		}
		g := len(names)
		names = append(names, c.names[oldG])
		keys = append(keys, c.keys[oldG])
		livef = append(livef, true)
		locs = append(locs, loc{l.shard, nl})
		globOf[l.shard][nl] = g
		if c.keys[oldG] != (catalog.Key{}) {
			idOf[c.keys[oldG]] = g
		}
	}
	c.names, c.keys, c.live, c.locOf, c.globOf, c.idOf = names, keys, livef, locs, globOf, idOf
	c.removals = 0
	return diverged, nil
}

// normalized returns vec prepared for the shard metric, the way
// core.EmbedVectors prepares index rows.
func (c *Catalog) normalized(vec []float64) []float64 {
	if c.idxs[0].Metric() == ann.Cosine {
		return stats.L2Normalize(vec)
	}
	return vec
}

// Shards returns the shard count.
func (c *Catalog) Shards() int { return len(c.idxs) }

// Index exposes shard i's index (for stats and persistence; the catalog
// still owns its mutation discipline).
func (c *Catalog) Index(i int) ann.Index { return c.idxs[i] }

// Store exposes shard i's store, or nil for a store-less catalog.
func (c *Catalog) Store(i int) *catalog.Store {
	if c.stores == nil {
		return nil
	}
	return c.stores[i]
}

// Metric returns the shared shard metric.
func (c *Catalog) Metric() ann.Metric { return c.idxs[0].Metric() }

// Precision returns the shared shard precision.
func (c *Catalog) Precision() ann.Precision { return c.idxs[0].Precision() }

// Dim returns the embedding dimensionality, or 0 before any column
// lands.
func (c *Catalog) Dim() int {
	for _, idx := range c.idxs {
		if d := idx.Dim(); d > 0 {
			return d
		}
	}
	return 0
}

// Len counts all global ids, tombstones included.
func (c *Catalog) Len() int { return len(c.names) }

// Live counts live columns.
func (c *Catalog) Live() int {
	n := 0
	for _, idx := range c.idxs {
		n += idx.Live()
	}
	return n
}

// StoreLen sums the live entries across shard stores (0 when store-less).
func (c *Catalog) StoreLen() int {
	n := 0
	for _, st := range c.stores {
		n += st.Len()
	}
	return n
}

// RemovalsSinceCompact counts removals since the last Compact (or ever).
func (c *Catalog) RemovalsSinceCompact() int { return c.removals }

// Seen reports whether key was ever added (even if since removed).
func (c *Catalog) Seen(key catalog.Key) bool { return c.seen[key] }

// IDOf resolves a live content key to its global id.
func (c *Catalog) IDOf(key catalog.Key) (int, bool) {
	id, ok := c.idOf[key]
	return id, ok
}

// Name returns the column name behind a global id.
func (c *Catalog) Name(id int) string { return c.names[id] }

// Key returns the content key behind a global id (zero for preloaded
// vectors).
func (c *Catalog) Key(id int) catalog.Key { return c.keys[id] }

// IsLive reports whether a global id is in range and not tombstoned.
func (c *Catalog) IsLive(id int) bool { return id >= 0 && id < len(c.live) && c.live[id] }

// Owner returns the shard that owns key.
func (c *Catalog) Owner(key catalog.Key) int { return c.ring.owner(key) }
