// Command gemserve hosts a warm Gem embedder behind an HTTP JSON API — the
// paper's deployment mode where one corpus-level mixture serves many
// incoming tables without refitting. Columns are answered from a
// content-hash cache when their exact content has been served before, and
// cache misses from concurrent requests are coalesced into single pooled
// signature passes. With -search, every fresh embedding also feeds a warm
// ANN index that answers nearest-column queries.
//
// Usage:
//
//	gemserve -fit catalog.csv -save-model gem.model -addr ""   # fit + persist, no serving
//	gemserve -model gem.model -addr :8080                      # serve the persisted embedder
//	gemserve -model gem.model -search -addr :8080              # + warm similarity search
//	gemserve -fit-synthetic 500 -addr 127.0.0.1:0              # fit a synthetic catalog and serve
//	gemserve -model gem.model -catalog ./store -addr :8080     # durable mutable catalog
//	gemserve -model gem.model -catalog ./store -shards 4       # catalog split across 4 shards
//	gemserve -proxy "http://h1:8080,http://h2:8080"            # scatter-gather front door
//
// Endpoints: POST /embed, POST /search, GET/POST/DELETE /columns,
// POST /columns/compact, GET /healthz, GET /stats. An /embed response is a
// pure function of the request body: repeated posts return byte-identical
// answers whether served cold, cached or coalesced. With -catalog DIR the
// index is durable: adds and removes are journaled to a snapshot+journal
// store, and a restarted server replays them — byte-identical /embed and
// /search answers, no re-embedding. With -shards N the catalog is split
// into N consistent-hashed shards (per-shard stores under DIR/shard-NNN)
// whose scatter-gather /search answers are byte-identical to the unsharded
// server; -proxy fans /search across remote shard processes instead.
//
// On SIGINT/SIGTERM the server stops accepting connections, finishes
// in-flight requests, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"net/http/pprof"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/shard"
)

// cliConfig carries the parsed flags; the build/run helpers are pure in it
// so tests can drive the command without a process boundary.
type cliConfig struct {
	model        string
	fit          string
	fitSynthetic int
	saveModel    string
	addr         string
	components   int
	restarts     int
	seed         int64
	subsample    int
	workers      int
	search       bool
	indexIn      string
	indexCatalog string
	catalogDir   string
	compactEvery int
	metricSpec   string
	precSpec     string
	maxBatch     int
	cacheSize    int
	shards       int
	proxy        string
	maxBodyBytes int64
	metrics      bool
	slowMS       float64
	pprofAddr    string

	// set records which flags were given explicitly on the command line
	// (filled by flag.Visit), so conflicts with flags that merely have
	// defaults can be told apart from flags the user actually asked for.
	set map[string]bool
}

// isSet reports whether the named flag was explicitly given.
func (c *cliConfig) isSet(name string) bool { return c.set[name] }

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemserve: ")

	var cfg cliConfig
	flag.StringVar(&cfg.model, "model", "", "load a persisted embedder (from -save-model or core.Save)")
	flag.StringVar(&cfg.fit, "fit", "", "fit a fresh embedder on a catalog CSV, directory or glob (gemembed format)")
	flag.IntVar(&cfg.fitSynthetic, "fit-synthetic", 0, "fit a fresh embedder on an N-column synthetic catalog")
	flag.StringVar(&cfg.saveModel, "save-model", "", "persist the embedder after fitting")
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address; empty to exit after -save-model")
	flag.IntVar(&cfg.components, "components", 50, "GMM components when fitting (m)")
	flag.IntVar(&cfg.restarts, "restarts", 3, "EM restarts when fitting")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed when fitting")
	flag.IntVar(&cfg.subsample, "subsample", 8000, "cap on stacked values used to fit the GMM (0 = all)")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool width shared by signature fan-out and the index build (0 = GOMAXPROCS; responses are identical for every value)")
	flag.BoolVar(&cfg.search, "search", false, "keep a warm HNSW index fed by served embeddings (enables /search)")
	flag.StringVar(&cfg.indexIn, "index-in", "", "preload a persisted ann index (implies -search)")
	flag.StringVar(&cfg.indexCatalog, "index-catalog", "", "catalog CSV the -index-in index was built from; its numeric headers name the preloaded entries in /search results (otherwise they render as @i)")
	flag.StringVar(&cfg.catalogDir, "catalog", "", "durable catalog store directory (snapshot+journal); implies -search, enables the mutable /columns API and replays the store on restart")
	flag.IntVar(&cfg.compactEvery, "compact-every", 1024, "auto-compact the catalog once this many removes accumulate (search beams widen with uncompacted tombstones, so unbounded churn without compaction degrades /search; <= 0 = only via POST /columns/compact)")
	flag.StringVar(&cfg.metricSpec, "metric", "cosine", "index distance: cosine|l2")
	flag.StringVar(&cfg.precSpec, "precision", "float64", "index scan precision: float64|float32|int8 (reduced tiers re-rank exactly)")
	flag.IntVar(&cfg.maxBatch, "max-batch", 0, "max columns per coalesced signature pass (0 = default 64)")
	flag.IntVar(&cfg.cacheSize, "cache-size", 0, "column-embedding cache entries (0 = default 4096, negative disables)")
	flag.IntVar(&cfg.shards, "shards", 1, "split the search catalog into N consistent-hashed shards (requires -search or -catalog; /search answers are byte-identical to -shards 1)")
	flag.StringVar(&cfg.proxy, "proxy", "", "comma-separated shard-server URLs; serve a scatter-gather /search front door instead of a model")
	flag.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", 0, "cap on one request body; oversized posts answer 413 (0 = default 8 MiB, negative disables)")
	flag.BoolVar(&cfg.metrics, "metrics", true, "expose Prometheus metrics at GET /metrics (request counters, latency histograms, stage and per-shard timings); responses are byte-identical either way")
	flag.Float64Var(&cfg.slowMS, "slow-ms", 0, "log a structured one-line record (request id + stage breakdown) for every request slower than this many milliseconds (0 disables)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); empty disables profiling")
	flag.Parse()
	cfg.set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })

	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(cfg cliConfig, w io.Writer) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	return runUntil(cfg, w, stop)
}

// runUntil is run with the shutdown signal injectable, so tests can drain
// a live server without killing the test process.
func runUntil(cfg cliConfig, w io.Writer, stop <-chan os.Signal) error {
	if cfg.pprofAddr != "" {
		stopPprof, err := startPprof(cfg.pprofAddr, w)
		if err != nil {
			return err
		}
		defer stopPprof()
	}
	if cfg.proxy != "" {
		return runProxy(cfg, w, stop)
	}
	if cfg.addr == "" && cfg.saveModel == "" {
		return fmt.Errorf("empty -addr without -save-model does nothing")
	}
	srv, cleanup, err := buildServer(cfg, w)
	if err != nil {
		return err
	}
	defer cleanup()
	if cfg.addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", cfg.addr, err)
	}
	fmt.Fprintf(w, "listening on http://%s (POST /embed, POST /search, /columns, GET /healthz, GET /stats, GET /metrics)\n", ln.Addr())
	return serveAndDrain(newHTTPServer(srv.Handler()), ln, stop, w)
}

// runProxy serves the scatter-gather front door over remote shard servers.
func runProxy(cfg cliConfig, w io.Writer, stop <-chan os.Signal) error {
	// The proxy holds no model: every flag that shapes one is a conflict,
	// not a silent no-op.
	for _, c := range []struct {
		on   bool
		flag string
	}{
		{cfg.model != "", "-model"},
		{cfg.fit != "", "-fit"},
		{cfg.fitSynthetic > 0, "-fit-synthetic"},
		{cfg.search, "-search"},
		{cfg.indexIn != "", "-index-in"},
		{cfg.catalogDir != "", "-catalog"},
		{cfg.isSet("shards"), "-shards"},
	} {
		if c.on {
			return fmt.Errorf("-proxy fronts remote shard servers; it cannot be combined with %s", c.flag)
		}
	}
	if cfg.addr == "" {
		return fmt.Errorf("-proxy needs a listen -addr")
	}
	pcfg := serve.ProxyConfig{
		Backends:     strings.Split(cfg.proxy, ","),
		MaxBodyBytes: cfg.maxBodyBytes,
	}
	if cfg.metrics {
		pcfg.Metrics = obs.NewRegistry()
	}
	p, err := serve.NewProxy(pcfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", cfg.addr, err)
	}
	fmt.Fprintf(w, "proxying %d shards on http://%s (POST /search, GET /healthz, GET /stats, GET /metrics)\n",
		len(strings.Split(cfg.proxy, ",")), ln.Addr())
	return serveAndDrain(newHTTPServer(p.Handler()), ln, stop, w)
}

// startPprof serves net/http/pprof on its own listener, kept off the API
// address so profiling endpoints are never reachable through the public
// port. Returns a closer for the listener.
func startPprof(addr string, w io.Writer) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listening for pprof on %s: %w", addr, err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pprof server: %v", err)
		}
	}()
	fmt.Fprintf(w, "pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { hs.Close() }, nil
}

// newHTTPServer wraps a handler with the serving timeouts a public
// listener needs: a header deadline so idle half-open connections
// (slowloris) cannot pin goroutines forever, and an idle keep-alive cap.
// Request bodies are bounded separately by -max-body-bytes.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveAndDrain serves until the listener fails or a shutdown signal
// arrives; on the signal it stops accepting connections, lets in-flight
// requests finish (bounded), and reports a clean exit.
func serveAndDrain(hs *http.Server, ln net.Listener, stop <-chan os.Signal, w io.Writer) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		fmt.Fprintf(w, "received %v, draining in-flight requests\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("draining: %w", err)
		}
		<-errc // Serve has returned ErrServerClosed
		fmt.Fprintf(w, "drained, exiting\n")
		return nil
	}
}

// buildServer assembles the warm server: embedder (loaded or freshly
// fitted, optionally persisted), optional search index or durable catalog
// store, serve config. cleanup closes the server and, after it, the store
// whose journal the server writes.
func buildServer(cfg cliConfig, w io.Writer) (srv *serve.Server, cleanup func(), err error) {
	// Cross-flag conflicts fail before the embedder is loaded or fitted:
	// a paper-sized fit takes minutes, and the conflicting flag would
	// otherwise be silently ignored after that work is done.
	if cfg.indexCatalog != "" && cfg.indexIn == "" {
		return nil, nil, fmt.Errorf("-index-catalog names the entries of a preloaded index; it requires -index-in")
	}
	if cfg.catalogDir != "" && cfg.indexIn != "" {
		return nil, nil, fmt.Errorf("-catalog replays its own index; it cannot be combined with -index-in")
	}
	if cfg.indexIn != "" && cfg.isSet("precision") {
		return nil, nil, fmt.Errorf("-precision is baked into a saved index at build time; it cannot change one loaded with -index-in")
	}
	if cfg.shards > 1 {
		if cfg.indexIn != "" {
			return nil, nil, fmt.Errorf("-index-in preloads one unsharded index; it cannot be combined with -shards")
		}
		if !cfg.search && cfg.catalogDir == "" {
			return nil, nil, fmt.Errorf("-shards splits the search catalog; it requires -search or -catalog")
		}
	}
	if cfg.isSet("shards") && cfg.shards < 1 {
		return nil, nil, fmt.Errorf("-shards must be at least 1, got %d", cfg.shards)
	}
	emb, err := buildEmbedder(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	scfg := serve.Config{
		MaxBatch:      cfg.maxBatch,
		CacheSize:     cfg.cacheSize,
		CompactEvery:  cfg.compactEvery,
		MaxBodyBytes:  cfg.maxBodyBytes,
		SlowThreshold: time.Duration(cfg.slowMS * float64(time.Millisecond)),
	}
	if cfg.metrics {
		scfg.Metrics = obs.NewRegistry()
	}
	if cfg.shards > 1 {
		return buildShardedServer(cfg, emb, scfg, w)
	}
	if cfg.search || cfg.indexIn != "" || cfg.catalogDir != "" {
		idx, err := buildIndex(cfg, pool.New(emb.Config().Workers))
		if err != nil {
			return nil, nil, err
		}
		scfg.Index = idx
		if cfg.indexCatalog != "" {
			names, err := catalogHeaders(cfg.indexCatalog)
			if err != nil {
				return nil, nil, err
			}
			scfg.IndexNames = names
		}
	}
	var st *catalog.Store
	if cfg.catalogDir != "" {
		fp, err := emb.Fingerprint()
		if err != nil {
			return nil, nil, err
		}
		// The store is bound to the embedder AND the index configuration:
		// replaying a journal into an index with a different metric or
		// seed would silently change /search, so it must fail instead.
		if st, err = catalog.Open(cfg.catalogDir, serve.StoreIdentity(fp, scfg.Index)); err != nil {
			return nil, nil, err
		}
		scfg.Store = st
		fmt.Fprintf(w, "catalog store %s: %d live columns\n", cfg.catalogDir, st.Len())
	}
	srv, err = serve.New(emb, scfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, nil, err
	}
	cleanup = func() {
		srv.Close()
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("closing catalog store: %v", err)
			}
		}
	}
	fp := srv.Fingerprint()
	fmt.Fprintf(w, "warm embedder ready: %d components, dim %d, fingerprint %s\n",
		emb.Model().K(), srv.Dim(), fp[:12])
	return srv, cleanup, nil
}

// buildShardedServer assembles the -shards N catalog: N identically
// configured indexes (and, with -catalog, N per-shard stores under
// DIR/shard-NNN whose identities bind their shard coordinate), merged
// behind one scatter-gather serve.Catalog.
func buildShardedServer(cfg cliConfig, emb *core.Embedder, scfg serve.Config, w io.Writer) (srv *serve.Server, cleanup func(), err error) {
	p := pool.New(emb.Config().Workers)
	idxs := make([]ann.Index, cfg.shards)
	for i := range idxs {
		if idxs[i], err = buildIndex(cfg, p); err != nil {
			return nil, nil, err
		}
	}
	var stores []*catalog.Store
	closeStores := func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}
	if cfg.catalogDir != "" {
		fp, err := emb.Fingerprint()
		if err != nil {
			return nil, nil, err
		}
		// An unsharded store keeps its files at the top of the directory; a
		// sharded server must not quietly ignore them (the columns would
		// vanish from /search), so their presence is a refused downgrade.
		for _, f := range []string{"snapshot.gemcat", "journal.gemcat"} {
			if _, statErr := os.Stat(filepath.Join(cfg.catalogDir, f)); statErr == nil {
				return nil, nil, fmt.Errorf("%s holds an unsharded catalog store (%s); -shards %d needs a fresh directory",
					cfg.catalogDir, f, cfg.shards)
			}
		}
		stores = make([]*catalog.Store, cfg.shards)
		for i := range stores {
			st, err := catalog.Open(
				filepath.Join(cfg.catalogDir, fmt.Sprintf("shard-%03d", i)),
				serve.StoreIdentityShard(fp, idxs[i], i, cfg.shards))
			if err != nil {
				closeStores()
				return nil, nil, err
			}
			stores[i] = st
		}
		total := 0
		for _, st := range stores {
			total += st.Len()
		}
		fmt.Fprintf(w, "catalog store %s: %d shards, %d live columns\n", cfg.catalogDir, cfg.shards, total)
	}
	cat, err := shard.New(shard.Config{
		Indexes: idxs,
		Stores:  stores,
		Pool:    p,
	})
	if err != nil {
		closeStores()
		return nil, nil, err
	}
	scfg.Catalog = cat
	srv, err = serve.New(emb, scfg)
	if err != nil {
		closeStores()
		return nil, nil, err
	}
	cleanup = func() {
		srv.Close()
		closeStores()
	}
	fp := srv.Fingerprint()
	fmt.Fprintf(w, "warm embedder ready: %d components, dim %d, %d shards, fingerprint %s\n",
		emb.Model().K(), srv.Dim(), cfg.shards, fp[:12])
	return srv, cleanup, nil
}

func buildEmbedder(cfg cliConfig, w io.Writer) (*core.Embedder, error) {
	modes := 0
	for _, on := range []bool{cfg.model != "", cfg.fit != "", cfg.fitSynthetic > 0} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return nil, fmt.Errorf("need exactly one embedder source: -model file, -fit file.csv, or -fit-synthetic N")
	}
	if cfg.saveModel != "" && cfg.model != "" {
		return nil, fmt.Errorf("-save-model persists a freshly fitted embedder; it cannot be combined with -model (the file already exists)")
	}
	if cfg.model != "" {
		// A persisted model is already fitted: fit parameters given
		// explicitly alongside it would be silently ignored.
		for _, f := range []string{"components", "restarts", "subsample"} {
			if cfg.isSet(f) {
				return nil, fmt.Errorf("-%s tunes the model fit; it cannot change a model loaded with -model", f)
			}
		}
	}

	if cfg.model != "" {
		f, err := os.Open(cfg.model)
		if err != nil {
			return nil, fmt.Errorf("opening model: %w", err)
		}
		defer f.Close()
		emb, err := core.LoadEmbedder(f)
		if err != nil {
			return nil, err
		}
		emb.SetWorkers(cfg.workers)
		fmt.Fprintf(w, "model loaded from %s\n", cfg.model)
		return emb, nil
	}

	src, err := catalog.Spec{Path: cfg.fit, Synthetic: cfg.fitSynthetic, Seed: cfg.seed}.Source()
	if err != nil {
		return nil, err
	}
	ds, err := src.Load()
	if err != nil {
		return nil, err
	}
	emb, err := core.NewEmbedder(core.Config{
		Components:     cfg.components,
		Restarts:       cfg.restarts,
		Seed:           cfg.seed,
		SubsampleStack: cfg.subsample,
		Workers:        cfg.workers,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := emb.Fit(ds); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "fitted on %d columns (%d values) in %.2fs\n",
		len(ds.Columns), ds.TotalValues(), time.Since(start).Seconds())
	if st := emb.FitStats(); st != nil && st.Winner >= 0 {
		win := st.Restarts[st.Winner]
		fmt.Fprintf(w, "fit telemetry: restart %d/%d won with logL %.4f after %d iterations (converged=%v); %d EM iterations total, E-step %.2fs, M-step %.2fs\n",
			st.Winner+1, len(st.Restarts), win.LogLikelihood, win.Iterations, win.Converged,
			st.Iterations(), st.EStepSeconds, st.MStepSeconds)
		if msg := st.Warning(); msg != "" {
			fmt.Fprintln(os.Stderr, msg)
		}
	}
	if cfg.saveModel != "" {
		f, err := os.Create(cfg.saveModel)
		if err != nil {
			return nil, fmt.Errorf("creating model file: %w", err)
		}
		if err := emb.Save(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("closing model file: %w", err)
		}
		fmt.Fprintf(w, "model saved to %s\n", cfg.saveModel)
	}
	return emb, nil
}

// catalogHeaders reads the numeric-column headers of a catalog CSV, in the
// order gemsearch indexes them, to name preloaded index entries.
func catalogHeaders(path string) ([]string, error) {
	ds, err := catalog.File(path).Load()
	if err != nil {
		return nil, err
	}
	return ds.Headers(), nil
}

// buildIndex builds or loads one index on the given worker pool. Every
// index of a sharded server shares ONE pool with the catalog's scatter
// loop: the pool's caller-runs design degrades nested fan-out (shards ×
// batched queries) to the same w slots instead of oversubscribing.
func buildIndex(cfg cliConfig, p *pool.Pool) (ann.Index, error) {
	metric, err := ann.ParseMetric(cfg.metricSpec)
	if err != nil {
		return nil, err
	}
	prec := ann.Float64
	if cfg.precSpec != "" {
		if prec, err = ann.ParsePrecision(cfg.precSpec); err != nil {
			return nil, err
		}
	}
	if cfg.indexIn != "" {
		f, err := os.Open(cfg.indexIn)
		if err != nil {
			return nil, fmt.Errorf("opening index: %w", err)
		}
		defer f.Close()
		idx, err := ann.Load(f, p)
		if err != nil {
			return nil, err
		}
		if idx.Metric() != metric {
			return nil, fmt.Errorf("index %s uses metric %s, want %s (pass -metric %s)",
				cfg.indexIn, idx.Metric(), metric, idx.Metric())
		}
		return idx, nil
	}
	return ann.NewHNSW(ann.HNSWConfig{Metric: metric, Seed: cfg.seed, Precision: prec}, p)
}
