// Package serve is Gem's warm-model embedding server: a fitted
// core.Embedder held in memory answers Embed requests for incoming columns
// without refitting — the paper's deployment mode (§3.1), where one
// corpus-level mixture serves many tables.
//
// Three mechanisms make the hot path cheap:
//
//   - A content-hash cache: each column embedding is keyed by SHA-256 of
//     (embedder fingerprint, header, value bits), so a repeated column is
//     answered without touching the GMM at all.
//   - Micro-batching: cache misses from concurrently arriving requests are
//     coalesced into one pooled Signatures pass over the shared
//     internal/pool worker pool — tables stream in incrementally and are
//     embedded in batch-sized strides, not via whole-catalog calls.
//   - An optional warm-index hook: every fresh embedding is appended to an
//     internal/ann index, so similarity search stays current as columns
//     stream through.
//
// With a catalog store configured the server stops being a cache and
// becomes a durable, mutable catalog service: columns join and leave via
// the explicit /columns API, every mutation is journaled to an
// internal/catalog store, and a restarted server replays snapshot+journal
// into the index and the embedding cache — no re-embedding, and
// byte-identical /embed and /search responses to the server that wrote
// the journal, because the replayed op sequence drives the deterministic
// mutable index through the exact same states. In store mode /embed and
// /search never enroll columns implicitly (the auto-feed of the plain
// warm-index mode is off): enrollment must be deterministic in the store
// alone, and whether an /embed was a cache hit or miss is not.
//
// Determinism contract: an embedding is a pure function of (column values,
// header, fitted embedder). Responses are therefore byte-identical whether
// they are served cold, from the cache, from a batch of one, or from a
// coalesced batch, at every worker-pool width. This is inherited from
// core.EmbedSignature, which standardizes statistical features against the
// corpus moments frozen at Fit time rather than against the incoming batch;
// request isolation follows too — a malformed column is rejected before it
// can poison a coalesced batch.
//
// These contracts are enforced statically by gemlint (see internal/lint):
// detmaprange and detnondet guard the byte-identity guarantee, poolgo the
// worker-budget discipline, and errjson the rule that every error answer
// is the JSON {"error": ...} body produced by writeError.
//
//gem:deterministic
//gem:pooled
//gem:jsonerrors
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/shard"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// ErrClosed is returned for requests against a closed server.
var ErrClosed = errors.New("serve: server closed")

// ErrInput is returned for malformed requests.
var ErrInput = errors.New("serve: invalid input")

// ErrNoIndex is returned by Search and the catalog mutators when the
// server runs without an index.
var ErrNoIndex = errors.New("serve: no search index configured")

// ErrNotFound is returned when a catalog mutation names no live column.
var ErrNotFound = errors.New("serve: column not found")

// Config parametrizes a Server.
type Config struct {
	// MaxBatch caps how many cache-missed columns one coalesced signature
	// pass embeds: the first queued miss plus whatever is queued behind it
	// (the dispatcher never waits for more). Default 64.
	MaxBatch int
	// CacheSize bounds the column-embedding LRU cache. Default 4096;
	// negative disables caching.
	CacheSize int
	// QueueDepth bounds the miss queue; submitters block (backpressure)
	// when it is full. Default 1024.
	QueueDepth int
	// Index, when set, receives every fresh embedding (metric-normalized
	// like core.EmbedVectors) so the search layer stays warm. The server
	// owns all access to it from New on.
	Index ann.Index
	// IndexNames are the column names behind any entries already in Index,
	// aligned by id; missing names render as "@i". Mutually exclusive with
	// Store (a store replays its own names).
	IndexNames []string
	// Store, when set, makes the catalog durable: the store's recorded
	// add/remove history is replayed into Index (which must be empty) and
	// the embedding cache at startup, and every later index mutation is
	// journaled. The caller opens the store (bound to this embedder's
	// fingerprint) and closes it after Close.
	Store *catalog.Store
	// Catalog, when set, is a pre-assembled (possibly sharded) column
	// catalog the server adopts instead of building a single-shard one
	// from the fields above — mutually exclusive with Index, IndexNames
	// and Store. Any stores inside must be opened against
	// StoreIdentityShard; the server replays them at startup. The server
	// owns all access to the catalog from New on.
	Catalog *shard.Catalog
	// MaxBodyBytes caps one HTTP request body on the Handler's POST
	// endpoints (/embed, /search, /columns); oversized requests fail with
	// 413 before any JSON decoding. Default 8 MiB; negative disables the
	// cap. Direct method calls (Embed, AddColumns, ...) are not affected.
	MaxBodyBytes int64
	// CompactEvery, when positive, compacts the catalog (index rebuild +
	// store snapshot) automatically once that many removes have
	// accumulated since the last compaction. 0 means compaction only via
	// CompactCatalog.
	CompactEvery int
	// Metrics, when set, receives the server's operational series (request
	// counters, stage timings, cache and catalog gauges) and is exposed at
	// GET /metrics. Nil keeps the counters behind /stats on a private
	// registry and leaves /metrics unmounted; stage timings are then taken
	// only for the slow log. Instrumentation never alters a response body.
	Metrics *obs.Registry
	// SlowThreshold, when positive, logs a structured one-line record (with
	// request id and per-stage breakdown) for every HTTP request slower
	// than it. 0 disables the slow log.
	SlowThreshold time.Duration
	// SlowLog receives the slow-request records. Default log.Default().
	SlowLog *log.Logger
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
}

// Server hosts one warm embedder. Safe for concurrent use; create with New,
// release with Close.
type Server struct {
	emb *core.Embedder
	fp  string
	dim int
	// nameInKey records whether the column name enters the embedding
	// (contextual features): only then does it belong in the cache key.
	nameInKey bool
	cfg       Config
	cache     *cache
	b         *batcher

	// idxMu serializes catalog mutations; Search holds it shared (the
	// catalog allows concurrent read-only searches, nothing else). cat is
	// nil when the server runs without an index; it owns all membership
	// bookkeeping — names, content keys, liveness, the seen set — and the
	// shard routing.
	idxMu sync.RWMutex
	cat   *shard.Catalog
	// metric is cat's distance metric, captured in New: it never changes
	// over a server's life, and reading it off the catalog would race with
	// a compaction replacing an index in place (ann.(*HNSW).Rebuild).
	metric ann.Metric
	// storeMode records that the catalog is durable: the /embed auto-feed
	// is disabled (membership must be deterministic in the stores alone)
	// and mutations journal before they touch an index.
	storeMode bool
	// store keeps the legacy single-store handle when the catalog was
	// assembled from Config.Store (nil for sharded or store-less servers).
	store *catalog.Store

	start time.Time

	// met holds the instruments behind /stats and /metrics; trace gates
	// the stage-timing time.Now() calls — true when either metrics or the
	// slow log wants stage timings.
	met   *serveMetrics
	trace bool
	ins   *httpInstrumentor
}

// New validates that e can serve single columns (fitted, frozen moments
// when statistical features are selected, non-AE composition) and starts
// the dispatcher.
func New(e *core.Embedder, cfg Config) (*Server, error) {
	cfg.fillDefaults()
	fp, err := e.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("serve: embedder not servable: %w", err)
	}
	// Probe the single-column path once with a shaped zero signature: this
	// surfaces AE composition and missing moments at startup instead of on
	// the first request, and fixes the embedding dimensionality.
	probe := core.Signature{Column: "__probe__", MeanProbs: make([]float64, e.Model().K())}
	if m := e.Moments(); m != nil {
		probe.Stats = make([]float64, len(m.Mean))
	}
	row, err := e.EmbedSignature(probe)
	if err != nil {
		return nil, fmt.Errorf("serve: embedder not servable: %w", err)
	}
	s := &Server{
		emb:       e,
		fp:        fp,
		dim:       len(row),
		nameInKey: e.Config().Features.Has(core.Contextual),
		cfg:       cfg,
		cache:     newCache(cfg.CacheSize),
		b:         newBatcher(cfg.QueueDepth, cfg.MaxBatch),
		//lint:gemallow detnondet start stamp feeds only uptime telemetry
		start: time.Now(),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newServeMetrics(reg)
	s.trace = cfg.Metrics != nil || cfg.SlowThreshold > 0
	slowLog := cfg.SlowLog
	if slowLog == nil {
		slowLog = log.Default()
	}
	s.ins = &httpInstrumentor{met: newHTTPMetrics(reg), trace: s.trace, slowThreshold: cfg.SlowThreshold, slowLog: slowLog}
	if cfg.Catalog != nil && (cfg.Index != nil || cfg.Store != nil || len(cfg.IndexNames) > 0) {
		return nil, fmt.Errorf("%w: Catalog is mutually exclusive with Index, IndexNames and Store", ErrInput)
	}
	if cfg.Store != nil && cfg.Index == nil {
		return nil, fmt.Errorf("%w: a catalog store needs an index to replay into", ErrInput)
	}
	cat := cfg.Catalog
	if cat == nil && cfg.Index != nil {
		// Legacy single-index configuration: wrap it into a one-shard
		// catalog. The pre-checks preserve the startup error contract.
		if cfg.Store != nil {
			if len(cfg.IndexNames) > 0 {
				return nil, fmt.Errorf("%w: IndexNames and Store are mutually exclusive (the store replays its own names)", ErrInput)
			}
			if cfg.Index.Len() != 0 {
				return nil, fmt.Errorf("%w: store replay needs an empty index, got %d preloaded vectors", ErrInput, cfg.Index.Len())
			}
		}
		var stores []*catalog.Store
		if cfg.Store != nil {
			stores = []*catalog.Store{cfg.Store}
		}
		var err error
		cat, err = shard.New(shard.Config{Indexes: []ann.Index{cfg.Index}, Stores: stores, PreloadNames: cfg.IndexNames})
		if err != nil {
			return nil, fmt.Errorf("serve: assembling catalog: %w", err)
		}
	}
	if cat != nil {
		// A preloaded index must hold vectors of the served dimensionality,
		// or the warm-index hook would silently drop every Add and /search
		// would 500 on each request — fail at startup instead.
		if d := cat.Dim(); d != 0 && d != s.dim {
			return nil, fmt.Errorf("%w: index holds vectors of dim %d, embedder serves dim %d — was it built from this model and configuration?",
				ErrInput, d, s.dim)
		}
		s.cat = cat
		s.metric = cat.Metric()
		s.store = cfg.Store
		if cat.Store(0) != nil {
			s.storeMode = true
			var t0 time.Time
			if s.trace {
				t0 = time.Now()
			}
			if err := s.replayCatalog(); err != nil {
				return nil, err
			}
			if s.trace {
				s.met.replaySeconds.Set(time.Since(t0).Seconds())
			}
		}
	}
	s.registerMetrics(cfg.Metrics)
	//lint:gemallow poolgo single long-lived batch dispatcher, not CPU fan-out; workers stay pooled
	go s.b.run(s.process)
	return s, nil
}

// StoreIdentity derives the binding string a catalog store must be opened
// with for this (embedder fingerprint, index) pair: the fingerprint plus
// everything that defines the index's graph — metric, scan precision
// (reduced-precision kernels steer HNSW construction, so the graph is
// per-precision), and for HNSW the construction parameters (EfSearch
// excluded: it is a pure query-time knob). Binding the store to this
// composite makes a restart with a
// different -metric or -seed fail loudly instead of silently replaying
// the journal into a differently-shaped graph, which would break the
// byte-identical restart contract.
func StoreIdentity(fingerprint string, idx ann.Index) string {
	id := fingerprint + "|metric=" + idx.Metric().String() + "|prec=" + idx.Precision().String()
	if h, ok := idx.(*ann.HNSW); ok {
		c := h.Config()
		id += fmt.Sprintf("|hnsw:m=%d,efc=%d,seed=%d,batch=%d", c.M, c.EfConstruction, c.Seed, c.BatchSize)
	}
	return id
}

// StoreIdentityShard is StoreIdentity for shard i of an n-shard catalog:
// the shard coordinate joins the binding so shard stores cannot be
// permuted, dropped or replayed at a different shard count — any of which
// would re-route keys and break the byte-identical restart contract. For
// n == 1 it is exactly StoreIdentity, so unsharded deployments keep their
// existing store directories.
func StoreIdentityShard(fingerprint string, idx ann.Index, i, n int) string {
	id := StoreIdentity(fingerprint, idx)
	if n > 1 {
		id += fmt.Sprintf("|shard=%d/%d", i, n)
	}
	return id
}

// replayCatalog validates each shard store's binding and replays the
// recorded history into the indexes and the embedding cache. Because the
// mutable indexes are deterministic in their op sequences, the result is
// the exact catalog state of the server that wrote the journals.
func (s *Server) replayCatalog() error {
	n := s.cat.Shards()
	for i := 0; i < n; i++ {
		st := s.cat.Store(i)
		want := StoreIdentityShard(s.fp, s.cat.Index(i), i, n)
		if have := st.Fingerprint(); have != "" && have != want {
			stored, served := catalog.IdentityDiff(have, want)
			return fmt.Errorf("%w: store belongs to embedder+index %s, server runs %s — was the model refitted or the index reconfigured? use a fresh store directory",
				ErrInput, stored, served)
		}
		if d := st.Dim(); d != 0 && d != s.dim {
			return fmt.Errorf("%w: store holds vectors of dim %d, embedder serves dim %d", ErrInput, d, s.dim)
		}
	}
	return s.cat.Replay(func(key catalog.Key, name string, vec []float64) {
		// Warm the embedding cache too: a restarted server answers /embed
		// for every stored column without re-embedding it.
		s.cache.put(cacheKey(key), vec)
	})
}

// Fingerprint returns the warm embedder's stable fingerprint (the cache-key
// component).
func (s *Server) Fingerprint() string { return s.fp }

// Dim returns the embedding dimensionality served.
func (s *Server) Dim() int { return s.dim }

// Close stops the dispatcher; queued and subsequent requests fail with
// ErrClosed.
func (s *Server) Close() { s.b.close() }

// key content-addresses one column for this server.
func (s *Server) key(col table.Column) cacheKey {
	name := ""
	if s.nameInKey {
		name = col.Name
	}
	return keyFor(s.fp, name, col)
}

// Embed returns one embedding row per column, in request order. Rows are
// shared with the cache and must be treated as immutable. Cache-missed
// values are snapshotted at submission, so the caller may reuse its
// buffers as soon as the call returns — including after a context
// cancellation that abandons in-flight jobs. The whole request fails on
// the first malformed column (reported by name); columns are validated up
// front so a bad one is rejected before it can enter — and poison — a
// coalesced batch shared with other requests.
func (s *Server) Embed(ctx context.Context, cols []table.Column) ([][]float64, error) {
	out, _, err := s.embed(ctx, cols)
	return out, err
}

// embed is Embed that also hands back each column's content key, so the
// index paths reuse the hash the cache lookup already paid for.
func (s *Server) embed(ctx context.Context, cols []table.Column) ([][]float64, []cacheKey, error) {
	//lint:gemallow detnondet request timing feeds the embed latency histogram, never the answer
	start := time.Now()
	if s.b.isClosed() {
		// Checked up front so even fully cached requests honour the Close
		// contract instead of quietly succeeding forever.
		return nil, nil, ErrClosed
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("%w: no columns", ErrInput)
	}
	for _, col := range cols {
		if err := validateColumn(col); err != nil {
			return nil, nil, err
		}
	}
	out := make([][]float64, len(cols))
	keys := make([]cacheKey, len(cols))
	type pending struct {
		slot int
		j    *job
	}
	spans := spansFrom(ctx)
	// Spans print in first-recorded order and the dispatcher may record its
	// stages before the lookup total below, so cache_lookup is registered now.
	spans.add("cache_lookup", 0)
	var lookup time.Duration
	var waits []pending
	for i, col := range cols {
		key := s.key(col)
		keys[i] = key
		var t0 time.Time
		if s.trace {
			t0 = time.Now()
		}
		vec, ok := s.cache.get(key)
		if s.trace {
			lookup += time.Since(t0)
		}
		if ok {
			s.met.cacheHits.Inc()
			out[i] = vec
			continue
		}
		s.met.cacheMisses.Inc()
		// Snapshot the values: the dispatcher may read them after this
		// call has returned (ctx cancellation abandons the job, not the
		// batch), and a caller-mutated slice would race AND be cached
		// under the key of the old bytes.
		vals := append([]float64(nil), col.Values...)
		j := &job{col: columnWork{name: col.Name, values: vals}, key: key, done: make(chan struct{}), spans: spans}
		if s.trace {
			j.enqueued = time.Now()
		}
		if err := s.b.submit(ctx, j); err != nil {
			return nil, nil, err
		}
		waits = append(waits, pending{slot: i, j: j})
	}
	if s.trace {
		s.met.stageCacheLookup.Observe(lookup.Seconds())
		spans.add("cache_lookup", lookup)
	}
	for _, p := range waits {
		select {
		case <-p.j.done:
			if p.j.err != nil {
				return nil, nil, fmt.Errorf("serve: column %q: %w", cols[p.slot].Name, p.j.err)
			}
			out[p.slot] = p.j.vec
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	s.met.embedColumns.Add(int64(len(cols)))
	//lint:gemallow detnondet request timing feeds the embed latency histogram, never the answer
	s.met.embedSeconds.Observe(time.Since(start).Seconds())
	return out, keys, nil
}

// validateColumn enforces the request-isolation precondition.
func validateColumn(col table.Column) error {
	if len(col.Values) == 0 {
		return fmt.Errorf("%w: column %q is empty", ErrInput, col.Name)
	}
	for i, v := range col.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: column %q value %d is not finite", ErrInput, col.Name, i)
		}
	}
	return nil
}

// process embeds one coalesced batch: jobs are deduplicated by content key
// (concurrent identical misses are computed once), the unique columns go
// through one pooled Signatures pass, and every fresh row is cached and fed
// to the warm index. Each column's embedding is a pure per-column function
// (see the package comment), so splitting or merging batches cannot change
// any byte of any result.
func (s *Server) process(batch []*job) {
	groups := make(map[cacheKey][]*job, len(batch))
	var uniq []*job // first job per distinct key, in arrival order
	for _, j := range batch {
		if _, seen := groups[j.key]; !seen {
			uniq = append(uniq, j)
		}
		groups[j.key] = append(groups[j.key], j)
	}
	s.met.batches.Inc()
	s.met.batchCols.Add(int64(len(uniq)))
	s.met.batchMax.SetMax(float64(len(uniq)))
	var sigStart time.Time
	if s.trace {
		// batch_wait is per job: queue entry to the moment its batch
		// started embedding.
		now := time.Now()
		for _, j := range batch {
			if !j.enqueued.IsZero() {
				d := now.Sub(j.enqueued)
				s.met.stageBatchWait.Observe(d.Seconds())
				j.spans.add("batch_wait", d)
			}
		}
		sigStart = now
	}

	sigs := make([]core.Signature, len(uniq))
	sigErrs := make([]error, len(uniq))
	if len(uniq) == 1 {
		// The single-column signature path: no dataset wrapping for the
		// common low-traffic case.
		sigs[0], sigErrs[0] = s.emb.ColumnSignature(table.Column{Name: uniq[0].col.name, Values: uniq[0].col.values})
	} else {
		ds := &table.Dataset{Name: "serve-batch", Columns: make([]table.Column, len(uniq))}
		for i, j := range uniq {
			ds.Columns[i] = table.Column{Name: j.col.name, Values: j.col.values}
		}
		batchSigs, err := s.emb.Signatures(ds)
		if err != nil {
			// The batched pass reports only its first failure; re-run each
			// column through the single-column path so every job gets its
			// own result or error and no column is failed by a neighbour.
			for i, j := range uniq {
				sigs[i], sigErrs[i] = s.emb.ColumnSignature(table.Column{Name: j.col.name, Values: j.col.values})
			}
		} else {
			copy(sigs, batchSigs)
		}
	}

	if s.trace {
		// The signature pass is shared by the whole batch; every job in it
		// waited on the pass, so each gets the full duration.
		sigD := time.Since(sigStart)
		s.met.stageSignatures.Observe(sigD.Seconds())
		for _, j := range batch {
			j.spans.add("signatures", sigD)
		}
		for i, j := range uniq {
			if sigErrs[i] == nil {
				s.met.embedValues.Add(int64(len(j.col.values)))
				s.met.embedDistinct.Add(int64(sigs[i].Distinct))
			}
		}
	}

	for i, j := range uniq {
		var vec []float64
		err := sigErrs[i]
		if err == nil {
			vec, err = s.emb.EmbedSignature(sigs[i])
		}
		if err == nil {
			s.cache.put(j.key, vec)
			var t0 time.Time
			if s.trace {
				t0 = time.Now()
			}
			s.feedIndex(j.key, j.col.name, vec)
			if s.trace {
				d := time.Since(t0)
				s.met.stageIndexAdd.Observe(d.Seconds())
				j.spans.add("index_add", d)
			}
		} else {
			s.met.embedErrors.Inc()
		}
		for _, dup := range groups[j.key] {
			dup.finish(vec, err)
		}
	}
}

// feedIndex appends a fresh embedding to the warm index, normalized for
// the index metric the way core.EmbedVectors does. The auto-feed path adds
// each content key at most once, ever: a column that was explicitly
// removed stays removed until an explicit AddColumns brings it back, no
// matter how often its content is re-embedded.
//
// With a store configured the auto-feed is disabled entirely: it only
// fires on cache misses, and hit-or-miss is transient server state — a
// restarted server would enroll a different column set. Durable catalogs
// take members only through the explicit AddColumns path.
func (s *Server) feedIndex(key cacheKey, name string, vec []float64) {
	if s.cat == nil || s.storeMode {
		return
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.cat.Seen(catalog.Key(key)) {
		return
	}
	if _, err := s.cat.Add(catalog.Key(key), name, vec); err != nil {
		s.met.indexErrors.Inc()
	}
}

// countStoreErr passes err through, counting it in storeErrors when a
// catalog store caused it.
func (s *Server) countStoreErr(err error) error {
	if errors.Is(err, shard.ErrStore) {
		s.met.storeErrors.Inc()
	}
	return err
}

// ColumnInfo describes one live indexed column.
type ColumnInfo struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Key is the hex content key; empty for entries preloaded from a bare
	// index file (they have no recorded content).
	Key string `json:"key,omitempty"`
}

// Columns lists the live indexed columns in id order.
func (s *Server) Columns() ([]ColumnInfo, error) {
	if s.cat == nil {
		return nil, ErrNoIndex
	}
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	out := make([]ColumnInfo, 0, s.cat.Live())
	for id := 0; id < s.cat.Len(); id++ {
		if !s.cat.IsLive(id) {
			continue
		}
		info := ColumnInfo{ID: id, Name: s.cat.Name(id)}
		if k := s.cat.Key(id); k != (catalog.Key{}) {
			info.Key = k.String()
		}
		out = append(out, info)
	}
	return out, nil
}

// AddColumns embeds the given columns (through the cache and batcher like
// any Embed) and ensures each is live in the catalog, journaling fresh
// adds. It returns one index id per column, in request order. Unlike the
// auto-feed of Embed, an explicit add resurrects previously removed
// content.
//
// The catalog is content-addressed: a column whose content key matches a
// live entry resolves to that entry's id — under a non-contextual
// embedder two identically-valued columns are one catalog entry, listed
// under the name it was first added with. The returned ids are therefore
// the authoritative handle; remove by "@id" when names are ambiguous.
//
// On error, earlier columns of the batch may already be durably enrolled;
// because enrollment is content-addressed and idempotent, retrying the
// identical batch completes it without duplicates.
func (s *Server) AddColumns(ctx context.Context, cols []table.Column) ([]int, error) {
	if s.cat == nil {
		return nil, ErrNoIndex
	}
	rows, keys, err := s.embed(ctx, cols)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(cols))
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	for i, col := range cols {
		// Journal-first on the owning shard: a store failure aborts the add,
		// so the caller never sees an entry that would vanish on restart.
		id, err := s.cat.Add(catalog.Key(keys[i]), col.Name, rows[i])
		if err != nil {
			return nil, fmt.Errorf("serve: indexing column %q: %w", col.Name, s.countStoreErr(err))
		}
		ids[i] = id
	}
	return ids, nil
}

// RemoveColumns removes live columns by reference — a header name (every
// live column with that name) or "@i" for a specific id — journaling each
// remove, and returns the removed ids in ascending order. Unknown
// references fail with ErrNotFound before anything is removed.
func (s *Server) RemoveColumns(refs ...string) ([]int, error) {
	if s.cat == nil {
		return nil, ErrNoIndex
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	seen := make(map[int]bool)
	var ids []int
	for _, ref := range refs {
		matched := false
		claim := func(id int) {
			// A ref that resolves to an id an earlier ref already claimed
			// is a matched no-op, not a miss: every column it names IS
			// being removed by this call.
			matched = true
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		if strings.HasPrefix(ref, "@") {
			id, err := strconv.Atoi(ref[1:])
			if err != nil {
				return nil, fmt.Errorf("%w: column reference %q (want @i or a header name)", ErrInput, ref)
			}
			if s.cat.IsLive(id) {
				claim(id)
			}
		} else {
			for id := 0; id < s.cat.Len(); id++ {
				if s.cat.IsLive(id) && s.cat.Name(id) == ref {
					claim(id)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, ref)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := s.cat.Remove(id); err != nil {
			return nil, fmt.Errorf("serve: removing column %d: %w", id, s.countStoreErr(err))
		}
	}
	s.met.removes.Add(int64(len(ids)))
	if s.cfg.CompactEvery > 0 && s.cat.RemovalsSinceCompact() >= s.cfg.CompactEvery {
		// Best-effort: the removals above are already journaled and
		// applied, so a failed compaction must not turn this call into an
		// error — it stays retriable via CompactCatalog, and store
		// failures are counted inside compactLocked.
		_ = s.compactLocked()
		// Compaction reassigns ids; the returned ids refer to the
		// pre-compaction numbering the caller observed.
	}
	return ids, nil
}

// CompactCatalog rebuilds the index without its tombstones and folds the
// store journal into a fresh snapshot, keeping both aligned id-for-id. It
// returns the live column count.
func (s *Server) CompactCatalog() (int, error) {
	if s.cat == nil {
		return 0, ErrNoIndex
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if err := s.compactLocked(); err != nil {
		return 0, err
	}
	return s.cat.Live(), nil
}

// compactLocked is CompactCatalog under an already-held idxMu. The
// catalog compacts its durable step FIRST: store compaction only needs
// the live entries, so a store failure (full disk, dead handle) aborts
// the compaction before the in-memory indexes and id maps are touched —
// memory and disk never diverge on the common failure path.
func (s *Server) compactLocked() error {
	var t0 time.Time
	if s.trace {
		t0 = time.Now()
	}
	diverged, err := s.cat.Compact()
	if s.trace {
		s.met.compactSeconds.Observe(time.Since(t0).Seconds())
	}
	if diverged {
		// A shard store's live order is the contract that makes restart
		// replay line up with the rebuilt index; a mismatch means a
		// journal append failed earlier and the store lost a mutation.
		s.met.storeErrors.Inc()
	}
	if err != nil {
		return fmt.Errorf("serve: compacting catalog: %w", s.countStoreErr(err))
	}
	s.met.compactions.Inc()
	return nil
}

// Hit is one search result: an indexed column and its metric distance to
// the query.
type Hit struct {
	ID   int     `json:"id"`
	Name string  `json:"name"`
	Dist float64 `json:"dist"`
}

// Search embeds the query column (through the cache and batcher like any
// Embed) and returns its k nearest indexed columns. Since serving a column
// feeds it into the warm index, the query's own content is excluded from
// its result. A single-column Search is exactly SearchBatch of one query.
func (s *Server) Search(ctx context.Context, col table.Column, k int) ([]Hit, error) {
	res, err := s.SearchBatch(ctx, []table.Column{col}, k)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchBatch answers a whole batch of query columns in one pass: all
// columns embed through one coalesced Embed call, the catalog scatter-
// gathers every query per shard in a single batched sweep, and each
// query's hits come back in its own slot (its own indexed copy excluded,
// like Search). Per-request stage spans (embed/scatter/merge) cover the
// whole batch; results are identical to calling Search per column.
func (s *Server) SearchBatch(ctx context.Context, cols []table.Column, k int) ([][]Hit, error) {
	if s.cat == nil {
		return nil, ErrNoIndex
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k = %d", ErrInput, k)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no query columns", ErrInput)
	}
	spans := spansFrom(ctx)
	var t0 time.Time
	if s.trace {
		t0 = time.Now()
	}
	rows, keys, err := s.embed(ctx, cols)
	if s.trace {
		d := time.Since(t0)
		s.met.stageSearchEmbed.Observe(d.Seconds())
		spans.add("embed", d)
	}
	if err != nil {
		return nil, err
	}
	qs := make([][]float64, len(rows))
	for i, row := range rows {
		q := row
		if s.metric == ann.Cosine {
			q = stats.L2Normalize(q)
		}
		qs[i] = q
	}
	if s.trace {
		t0 = time.Now()
	}
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	s.met.searchBatchSize.Observe(float64(len(cols)))
	if s.trace {
		now := time.Now()
		s.met.lockWait.Observe(now.Sub(t0).Seconds())
		t0 = now
	}
	// k+1 covers each query's own indexed copy being among its nearest.
	res, err := s.cat.SearchBatch(qs, k+1)
	if s.trace {
		d := time.Since(t0)
		s.met.stageScatter.Observe(d.Seconds())
		spans.add("scatter", d)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: search: %w", err)
	}
	if s.trace {
		t0 = time.Now()
	}
	out := make([][]Hit, len(cols))
	for i := range res {
		hits := make([]Hit, 0, k)
		for _, r := range res[i] {
			if s.cat.Key(r.ID) == catalog.Key(keys[i]) {
				continue
			}
			hits = append(hits, Hit{ID: r.ID, Name: s.cat.Name(r.ID), Dist: r.Dist})
			if len(hits) == k {
				break
			}
		}
		out[i] = hits
	}
	if s.trace {
		d := time.Since(t0)
		s.met.stageMerge.Observe(d.Seconds())
		spans.add("merge", d)
	}
	return out, nil
}

// IndexLen returns the number of live indexed columns (0 without an
// index).
func (s *Server) IndexLen() int {
	if s.cat == nil {
		return 0
	}
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.cat.Live()
}

// indexShape snapshots (live, tombstones) under the read lock.
func (s *Server) indexShape() (live, tombstones int) {
	if s.cat == nil {
		return 0, 0
	}
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.cat.Live(), s.cat.Len() - s.cat.Live()
}

// Stats is a point-in-time snapshot of the server's operational counters —
// everything deliberately kept OUT of /embed responses so those stay a pure
// function of the request. Every counter and latency field is read from the
// same obs instrument /metrics exposes (see serveMetrics); the rest are
// reads of the cache and catalog state.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Columns       int64   `json:"columns"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	Batches       int64   `json:"batches"`
	MeanBatch     float64 `json:"mean_batch"`
	MaxBatch      int64   `json:"max_batch"`
	Errors        int64   `json:"errors"`
	IndexErrors   int64   `json:"index_errors"`
	CacheEntries  int     `json:"cache_entries"`
	IndexSize     int     `json:"index_size"`
	// IndexTombstones counts removed-but-not-yet-compacted slots.
	IndexTombstones int   `json:"index_tombstones"`
	Removes         int64 `json:"removes"`
	Compactions     int64 `json:"compactions"`
	// Shards is the catalog's shard count (0 without an index).
	Shards int `json:"shards"`
	// StoreColumns is the live size of the catalog store (0 without one);
	// StoreErrors counts journal/compaction failures — any non-zero value
	// means the durable catalog may be missing mutations.
	StoreColumns int   `json:"store_columns"`
	StoreErrors  int64 `json:"store_errors"`
	// The latency percentiles are lifetime gem_embed_seconds estimates,
	// exact only to their ×2 bucket (see obs.Histogram.Quantile).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// Stats reads the counters from the server's instruments.
func (s *Server) Stats() Stats {
	m := s.met
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	hits, misses, batches := m.cacheHits.Value(), m.cacheMisses.Value(), m.batches.Value()
	live, tombstones := s.indexShape()
	storeCols, shards := 0, 0
	if s.cat != nil {
		shards = s.cat.Shards()
		storeCols = s.cat.StoreLen()
	}
	return Stats{
		//lint:gemallow detnondet uptime is operator telemetry in the stats body
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        m.embedSeconds.Count(),
		Columns:         m.embedColumns.Value(),
		Hits:            hits,
		Misses:          misses,
		HitRate:         ratio(hits, hits+misses),
		Batches:         batches,
		MeanBatch:       ratio(m.batchCols.Value(), batches),
		MaxBatch:        int64(m.batchMax.Value()),
		Errors:          m.embedErrors.Value(),
		IndexErrors:     m.indexErrors.Value(),
		CacheEntries:    s.cache.len(),
		IndexSize:       live,
		IndexTombstones: tombstones,
		Removes:         m.removes.Value(),
		Compactions:     m.compactions.Value(),
		Shards:          shards,
		StoreColumns:    storeCols,
		StoreErrors:     m.storeErrors.Value(),
		LatencyP50Ms:    m.embedSeconds.Quantile(0.50) * 1000,
		LatencyP90Ms:    m.embedSeconds.Quantile(0.90) * 1000,
		LatencyP99Ms:    m.embedSeconds.Quantile(0.99) * 1000,
	}
}
