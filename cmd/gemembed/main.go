// Command gemembed computes Gem embeddings for the numeric columns of a CSV
// catalog and writes them as CSV or JSON.
//
// The input format is a header row followed by data rows; only columns whose
// cells all parse as numbers are embedded. An optional second row prefixed
// with "#type:" carries ground-truth labels (ignored by embedding, copied to
// the output for convenience). Input resolution goes through the shared
// internal/catalog ingest layer, so -in also accepts a directory or glob of
// CSVs, and -synthetic generates the standard synthetic catalog.
//
// Usage:
//
//	gemembed -in data.csv -components 50 -features D,S -format csv
//	gemembed -in 'lake/*.csv' -format json
//	gemembed -synthetic 200 -format csv
//	cat data.csv | gemembed -features D,S,C -composition concat -format json
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/table"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemembed: ")

	var (
		in          = flag.String("in", "", "input CSV file, directory or glob (default stdin)")
		synthetic   = flag.Int("synthetic", 0, "embed an N-column synthetic catalog instead of reading input")
		outPath     = flag.String("out", "", "output file (default stdout)")
		components  = flag.Int("components", 50, "GMM components (m)")
		restarts    = flag.Int("restarts", 10, "EM restarts")
		seed        = flag.Int64("seed", 1, "random seed")
		featureSpec = flag.String("features", "D,S", "feature families: any of D,S,C (comma separated)")
		composition = flag.String("composition", "concat", "composition for C: concat|agg|ae")
		format      = flag.String("format", "csv", "output format: csv|json")
		subsample   = flag.Int("subsample", 0, "cap on stacked values used to fit the GMM (0 = all)")
		workers     = flag.Int("workers", 0, "worker-pool width shared by column fan-out and EM (0 = GOMAXPROCS; output is identical for every value)")
	)
	flag.Parse()

	feats, err := parseFeatures(*featureSpec)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := parseComposition(*composition)
	if err != nil {
		log.Fatal(err)
	}

	src, err := catalog.Spec{Path: *in, Synthetic: *synthetic, Seed: *seed, Stdin: os.Stdin}.Source()
	if err != nil {
		log.Fatal(err)
	}
	ds, err := src.Load()
	if err != nil {
		log.Fatalf("reading input: %v", err)
	}

	embedder, err := core.NewEmbedder(core.Config{
		Components:     *components,
		Restarts:       *restarts,
		Seed:           *seed,
		Features:       feats,
		Composition:    comp,
		SubsampleStack: *subsample,
		Workers:        *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	emb, err := embedder.FitEmbed(ds)
	if err != nil {
		log.Fatalf("embedding: %v", err)
	}
	if msg := embedder.FitStats().Warning(); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatalf("creating output: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatalf("closing output: %v", err)
			}
		}()
		w = f
	}

	switch *format {
	case "csv":
		err = writeCSV(w, ds, emb)
	case "json":
		err = writeJSON(w, ds, emb)
	default:
		err = fmt.Errorf("unknown format %q (want csv|json)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func parseFeatures(spec string) (core.Features, error) {
	var feats core.Features
	for _, part := range strings.Split(spec, ",") {
		switch strings.ToUpper(strings.TrimSpace(part)) {
		case "D":
			feats |= core.Distributional
		case "S":
			feats |= core.Statistical
		case "C":
			feats |= core.Contextual
		case "":
		default:
			return 0, fmt.Errorf("unknown feature %q (want D, S or C)", part)
		}
	}
	if feats == 0 {
		return 0, fmt.Errorf("no features selected")
	}
	return feats, nil
}

func parseComposition(s string) (core.Composition, error) {
	switch strings.ToLower(s) {
	case "concat", "concatenation":
		return core.Concatenation, nil
	case "agg", "aggregation":
		return core.Aggregation, nil
	case "ae", "autoencoder":
		return core.AE, nil
	default:
		return 0, fmt.Errorf("unknown composition %q (want concat|agg|ae)", s)
	}
}

func writeCSV(w io.Writer, ds *table.Dataset, emb [][]float64) error {
	cw := csv.NewWriter(w)
	header := []string{"column", "type"}
	for j := range emb[0] {
		header = append(header, fmt.Sprintf("e%d", j))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("writing header: %w", err)
	}
	for i, col := range ds.Columns {
		row := []string{col.Name, col.Type}
		for _, v := range emb[i] {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("writing row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

type jsonEmbedding struct {
	Column    string    `json:"column"`
	Type      string    `json:"type,omitempty"`
	Embedding []float64 `json:"embedding"`
}

func writeJSON(w io.Writer, ds *table.Dataset, emb [][]float64) error {
	out := make([]jsonEmbedding, len(ds.Columns))
	for i, col := range ds.Columns {
		out[i] = jsonEmbedding{Column: col.Name, Type: col.Type, Embedding: emb[i]}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
