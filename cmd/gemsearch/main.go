// Command gemsearch serves the paper's retrieval workload at catalog
// scale: it embeds the numeric columns of a catalog with Gem, builds an
// HNSW index over the embeddings (or loads a previously saved one), and
// answers top-k similarity queries for a query column. With -recall it
// replays every column as a query against the exact brute-force baseline
// and reports recall@k and the throughput of both indexes.
//
// Usage:
//
//	gemsearch -in catalog.csv -query price -k 10
//	gemsearch -synthetic 1000 -recall
//	gemsearch -in catalog.csv -index-out catalog.idx
//	gemsearch -in catalog.csv -index-in catalog.idx -query "@17"
//
// The catalog is a CSV in the gemembed format (header row, optional
// "#type:" ground-truth row, data rows), a directory or glob of such CSVs,
// or -synthetic N for an N-column synthetic catalog — all resolved through
// the shared internal/catalog ingest layer. With -catalog DIR the command
// instead searches the embeddings recorded in a gemserve catalog store:
// no model, no fitting — the stored rows are indexed directly. A query
// names a column header (first match wins) or addresses a column by
// position with "@i". -min-recall turns the recall report into a gate:
// the command fails when HNSW recall@k falls below the bound (CI uses
// this as the smoke check).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/experiments"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// cliConfig carries the parsed flags; run is pure in it so tests can drive
// the whole command without a process boundary.
type cliConfig struct {
	in         string
	synthetic  int
	catalogDir string
	seed       int64
	components int
	restarts   int
	subsample  int
	workers    int
	metricSpec string
	precSpec   string
	m          int
	efc        int
	efs        int
	k          int
	query      string
	recall     bool
	minRecall  float64
	indexIn    string
	indexOut   string

	// set records which flags were given explicitly on the command line
	// (filled by flag.Visit), so conflicts with flags that merely have
	// defaults can be told apart from flags the user actually asked for.
	set map[string]bool
}

// isSet reports whether the named flag was explicitly given.
func (c *cliConfig) isSet(name string) bool { return c.set[name] }

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemsearch: ")

	var cfg cliConfig
	flag.StringVar(&cfg.in, "in", "", "catalog CSV file, directory or glob (gemembed format)")
	flag.IntVar(&cfg.synthetic, "synthetic", 0, "generate an N-column synthetic catalog instead of reading -in")
	flag.StringVar(&cfg.catalogDir, "catalog", "", "search the embeddings recorded in a gemserve catalog store directory (no model, no fitting)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed (corpus, EM and index levels)")
	flag.IntVar(&cfg.components, "components", 50, "GMM components (m)")
	flag.IntVar(&cfg.restarts, "restarts", 3, "EM restarts")
	flag.IntVar(&cfg.subsample, "subsample", 8000, "cap on stacked values used to fit the GMM (0 = all)")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool width shared by the embedder and the index build (0 = GOMAXPROCS; results are identical for every value)")
	flag.StringVar(&cfg.metricSpec, "metric", "cosine", "index distance: cosine|l2")
	flag.StringVar(&cfg.precSpec, "precision", "float64", "index scan precision: float64|float32|int8 (reduced tiers re-rank exactly)")
	flag.IntVar(&cfg.m, "m", 0, "HNSW M, max neighbours per layer (0 = default 16)")
	flag.IntVar(&cfg.efc, "ef-construction", 0, "HNSW construction beam width (0 = default 3·M)")
	flag.IntVar(&cfg.efs, "ef-search", 0, "HNSW search beam width (0 = default 2·M; a loaded -index-in keeps the beam it was saved with)")
	flag.IntVar(&cfg.k, "k", 10, "neighbours to retrieve")
	flag.StringVar(&cfg.query, "query", "", "query column: a header name, or @i for the i-th column")
	flag.BoolVar(&cfg.recall, "recall", false, "replay every column as a query and report recall@k vs the exact baseline")
	flag.Float64Var(&cfg.minRecall, "min-recall", 0, "fail unless recall@k reaches this bound (implies -recall)")
	flag.StringVar(&cfg.indexIn, "index-in", "", "load a saved index instead of building one")
	flag.StringVar(&cfg.indexOut, "index-out", "", "save the index after building")
	flag.Parse()
	cfg.set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })

	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(cfg cliConfig, w io.Writer) error {
	metric, err := ann.ParseMetric(cfg.metricSpec)
	if err != nil {
		return err
	}
	prec := ann.Float64
	if cfg.precSpec != "" {
		if prec, err = ann.ParsePrecision(cfg.precSpec); err != nil {
			return err
		}
	}
	if cfg.k < 1 {
		return fmt.Errorf("-k must be positive, got %d", cfg.k)
	}
	// Cross-flag conflicts fail before any fitting: a paper-sized catalog
	// embed takes minutes, and the conflicting flag would otherwise be
	// silently ignored after that work is done.
	if cfg.indexIn != "" {
		// Build-time parameters are baked into a saved graph; accepting
		// them alongside -index-in would silently drop them.
		if cfg.m != 0 || cfg.efc != 0 {
			return fmt.Errorf("-m and -ef-construction apply when building an index; they cannot change one loaded with -index-in")
		}
		if cfg.isSet("precision") {
			return fmt.Errorf("-precision is baked into a saved index at build time; it cannot change one loaded with -index-in")
		}
	}

	var (
		vs      *core.VectorSet
		ds      *table.Dataset
		workers = cfg.workers
	)
	if cfg.catalogDir != "" {
		if cfg.in != "" || cfg.synthetic > 0 {
			return fmt.Errorf("-catalog searches stored embeddings; it cannot be combined with -in or -synthetic")
		}
		// The stored rows are indexed directly: no model is fitted, so fit
		// parameters given explicitly would be silently ignored.
		for _, f := range []string{"components", "restarts", "subsample"} {
			if cfg.isSet(f) {
				return fmt.Errorf("-%s tunes the model fit; -catalog searches stored embeddings without fitting, so it cannot be combined with -%s", f, f)
			}
		}
		if vs, err = loadStoredVectors(cfg.catalogDir, metric, w); err != nil {
			return err
		}
	} else if vs, ds, err = embedCatalog(cfg, metric, w); err != nil {
		return err
	}

	p := pool.New(workers)
	idx, err := obtainIndex(cfg, metric, prec, p, vs, w)
	if err != nil {
		return err
	}
	if cfg.indexOut != "" {
		if err := saveIndex(idx, cfg.indexOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "index saved to %s\n", cfg.indexOut)
	}

	if cfg.query != "" {
		if err := runQuery(cfg, idx, vs, ds, w); err != nil {
			return err
		}
	}
	if cfg.recall || cfg.minRecall > 0 {
		if err := runRecall(cfg, idx, metric, vs, w); err != nil {
			return err
		}
	}
	return nil
}

// embedCatalog loads the -in/-synthetic catalog through the shared ingest
// layer, fits a Gem embedder and embeds every column.
func embedCatalog(cfg cliConfig, metric ann.Metric, w io.Writer) (*core.VectorSet, *table.Dataset, error) {
	src, err := catalog.Spec{Path: cfg.in, Synthetic: cfg.synthetic, Seed: cfg.seed}.Source()
	if err != nil {
		return nil, nil, err
	}
	ds, err := src.Load()
	if err != nil {
		return nil, nil, err
	}

	// One Options value carries the worker bound end to end: the embedder's
	// shared pool via GemConfig, and the HNSW build pool in run.
	opts := experiments.Options{
		Seed:           cfg.seed,
		Components:     cfg.components,
		Restarts:       cfg.restarts,
		SubsampleStack: cfg.subsample,
		Workers:        cfg.workers,
	}
	opts.FillDefaults()
	if cfg.subsample <= 0 {
		opts.SubsampleStack = 0 // explicit "fit on everything"
	}
	embedder, err := core.NewEmbedder(opts.GemConfig(core.Distributional|core.Statistical, core.Concatenation))
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if err := embedder.Fit(ds); err != nil {
		return nil, nil, err
	}
	vs, err := embedder.EmbedVectors(ds, metric)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "embedded %d columns (dim %d) in %.2fs\n",
		len(vs.Vectors), len(vs.Vectors[0]), time.Since(start).Seconds())
	return vs, ds, nil
}

// loadStoredVectors reads the live entries of a gemserve catalog store and
// prepares them for the requested metric the way core.EmbedVectors does
// (the store records raw rows; cosine indexes want them normalized).
func loadStoredVectors(dir string, metric ann.Metric, w io.Writer) (*core.VectorSet, error) {
	fp, entries, err := catalog.Read(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("catalog store %s has no live columns", dir)
	}
	vs := &core.VectorSet{
		Names:   make([]string, len(entries)),
		Vectors: make([][]float64, len(entries)),
	}
	for i, e := range entries {
		vs.Names[i] = e.Name
		if metric == ann.Cosine {
			vs.Vectors[i] = stats.L2Normalize(e.Vec)
		} else {
			vs.Vectors[i] = e.Vec
		}
	}
	fmt.Fprintf(w, "catalog store %s: %d live columns (dim %d, embedder %.12s…)\n",
		dir, len(entries), len(entries[0].Vec), fp)
	return vs, nil
}

// obtainIndex loads -index-in (validating it against the embedded catalog)
// or builds a fresh HNSW graph on the shared pool.
func obtainIndex(cfg cliConfig, metric ann.Metric, prec ann.Precision, p *pool.Pool, vs *core.VectorSet, w io.Writer) (ann.Index, error) {
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
		// -ef-search is a query-time knob, so it does apply to a loaded
		// index.
		if h, ok := idx.(*ann.HNSW); ok && cfg.efs > 0 {
			h.SetEfSearch(cfg.efs)
		}
		if idx.Metric() != metric {
			return nil, fmt.Errorf("index %s uses metric %s, want %s (pass -metric %s)",
				cfg.indexIn, idx.Metric(), metric, idx.Metric())
		}
		if idx.Len() != len(vs.Vectors) || idx.Dim() != len(vs.Vectors[0]) {
			return nil, fmt.Errorf("index %s holds %d vectors of dim %d, catalog embeds to %d of dim %d — was it built from this catalog and configuration?",
				cfg.indexIn, idx.Len(), idx.Dim(), len(vs.Vectors), len(vs.Vectors[0]))
		}
		fmt.Fprintf(w, "index loaded from %s (%d vectors)\n", cfg.indexIn, idx.Len())
		return idx, nil
	}
	h, err := ann.NewHNSW(ann.HNSWConfig{
		Metric: metric, M: cfg.m, EfConstruction: cfg.efc,
		EfSearch: cfg.efs, Seed: cfg.seed, Precision: prec,
	}, p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := h.Add(vs.Vectors...); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "hnsw index built in %.2fs (M=%d, efConstruction=%d, precision=%s)\n",
		time.Since(start).Seconds(), h.Config().M, h.Config().EfConstruction, h.Precision())
	return h, nil
}

func saveIndex(idx ann.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating index file: %w", err)
	}
	if err := idx.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing index file: %w", err)
	}
	return nil
}

// resolveQuery maps -query to a column position: "@i" addresses by index,
// anything else is a header name (first match).
func resolveQuery(q string, vs *core.VectorSet) (int, error) {
	if strings.HasPrefix(q, "@") {
		i, err := strconv.Atoi(q[1:])
		if err != nil || i < 0 || i >= len(vs.Vectors) {
			return 0, fmt.Errorf("query %q: want @i with i in [0, %d)", q, len(vs.Vectors))
		}
		return i, nil
	}
	i := vs.Find(q)
	if i < 0 {
		return 0, fmt.Errorf("query column %q not in catalog", q)
	}
	return i, nil
}

// runQuery prints the top-k neighbours of the query column. ds is nil in
// -catalog mode, where no ground-truth types exist.
func runQuery(cfg cliConfig, idx ann.Index, vs *core.VectorSet, ds *table.Dataset, w io.Writer) error {
	qi, err := resolveQuery(cfg.query, vs)
	if err != nil {
		return err
	}
	typeOf := func(i int) string {
		if ds == nil {
			return ""
		}
		return ds.Columns[i].Type
	}
	// k+1 so the query column itself can be dropped from its own result.
	res, err := idx.Search(vs.Vectors[qi], cfg.k+1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntop %d for column %d (%q, type %q):\n", cfg.k, qi, vs.Names[qi], typeOf(qi))
	fmt.Fprintf(w, "%4s  %8s  %-28s %s\n", "rank", "dist", "column", "type")
	rank := 0
	for _, r := range res {
		if r.ID == qi {
			continue
		}
		rank++
		if rank > cfg.k {
			break
		}
		fmt.Fprintf(w, "%4d  %8.5f  %-28s %s\n", rank, r.Dist, vs.Names[r.ID], typeOf(r.ID))
	}
	return nil
}

// runRecall replays every column as a query against the index and the
// exact baseline via the shared experiments harness, reports recall@k and
// QPS, and enforces -min-recall.
func runRecall(cfg cliConfig, idx ann.Index, metric ann.Metric, vs *core.VectorSet, w io.Writer) error {
	flat := ann.NewFlat(metric)
	if err := flat.Add(vs.Vectors...); err != nil {
		return err
	}
	recall, flatSecs, hnswSecs, err := experiments.ReplayQueries(flat, idx, vs.Vectors, cfg.k)
	if err != nil {
		return err
	}
	n := float64(len(vs.Vectors))
	fmt.Fprintf(w, "\nrecall@%d vs flat over %d queries: %.4f\n", cfg.k, len(vs.Vectors), recall)
	fmt.Fprintf(w, "flat %.0f qps, hnsw %.0f qps (%.1fx)\n", n/flatSecs, n/hnswSecs, flatSecs/hnswSecs)
	if cfg.minRecall > 0 && recall < cfg.minRecall {
		return fmt.Errorf("recall@%d = %.4f below required %.4f", cfg.k, recall, cfg.minRecall)
	}
	return nil
}
