// Package experiments reproduces the paper's evaluation (§4): Tables 1–4
// and Figures 3–5, end to end. It generates the benchmark corpora, runs Gem
// and all baselines, computes the paper's metrics, and renders paper-style
// text tables and plot-ready CSV. cmd/gembench and the repository-level
// benchmarks are thin wrappers around this package. recall.go holds the one
// recall@k replay shared by cmd/gemsearch and the similarity-search example.
package experiments

import (
	"errors"

	"github.com/gem-embeddings/gem/internal/baselines"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/table"
)

// ErrRun is returned when an experiment fails.
var ErrRun = errors.New("experiments: run failed")

// Options scales experiments between quick smoke runs and full,
// paper-sized runs.
type Options struct {
	// Seed drives all corpus generation and model fitting.
	Seed int64
	// Scale multiplies corpus sizes (1.0 = paper-sized). Default 0.25,
	// which preserves every reported trend at a fraction of the runtime.
	Scale float64
	// Components is Gem's GMM component count m. Default 50.
	Components int
	// Restarts is the EM restart count. Default 3 (the paper's 10 changes
	// nothing measurable on these corpora; see the ablation bench).
	Restarts int
	// SubsampleStack caps the GMM/SOM fitting sample. Default 8000.
	SubsampleStack int
	// HeaderDim is the header-embedding width for contextual methods.
	// Default 128.
	HeaderDim int
	// Workers bounds each Gem embedder's shared worker pool (column
	// fan-out and the parallel EM engine together; see core.Config).
	// 0 defaults to GOMAXPROCS. Results are identical for every value.
	Workers int
}

// FillDefaults normalizes zero-valued options.
func (o *Options) FillDefaults() {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Components <= 0 {
		o.Components = 50
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	if o.SubsampleStack <= 0 {
		o.SubsampleStack = 8000
	}
	if o.HeaderDim <= 0 {
		o.HeaderDim = 128
	}
}

// GemConfig builds a core.Config from the options — the one translation of
// experiment options into an embedder configuration, shared by the harness
// and the CLIs (cmd/gemsearch builds its embedder through it so -workers
// reaches the shared pool the same way everywhere).
func (o Options) GemConfig(features core.Features, comp core.Composition) core.Config {
	return o.gemConfig(features, comp)
}

// gemConfig builds a core.Config from the options.
func (o Options) gemConfig(features core.Features, comp core.Composition) core.Config {
	return core.Config{
		Components:     o.Components,
		Restarts:       o.Restarts,
		Seed:           o.Seed,
		Features:       features,
		Composition:    comp,
		HeaderDim:      o.HeaderDim,
		SubsampleStack: o.SubsampleStack,
		AEEpochs:       15,
		Workers:        o.Workers,
	}
}

// GemMethod adapts a Gem configuration to the baselines.Method interface so
// the harness can evaluate Gem and baselines uniformly.
type GemMethod struct {
	// DisplayName is the row label, e.g. "Gem (D+S)".
	DisplayName string
	// Cfg is the full Gem configuration to run.
	Cfg core.Config
}

// Name implements baselines.Method.
func (g *GemMethod) Name() string { return g.DisplayName }

// Embed implements baselines.Method.
func (g *GemMethod) Embed(ds *table.Dataset) ([][]float64, error) {
	e, err := core.NewEmbedder(g.Cfg)
	if err != nil {
		return nil, err
	}
	return e.FitEmbed(ds)
}

var _ baselines.Method = (*GemMethod)(nil)

// corpusConfig converts options into a data.Config at the given grain.
func (o Options) corpusConfig(grain data.Grain) data.Config {
	return data.Config{Seed: o.Seed, Scale: o.Scale, Grain: grain}
}

// Table1Row is one dataset row of Table 1 (dataset statistics).
type Table1Row struct {
	Dataset     string
	Columns     int
	CoarseTypes int
	FineTypes   int
	TotalCells  int
}

// Table1 regenerates the dataset-statistics table (paper Table 1).
func Table1(opts Options) ([]Table1Row, error) {
	opts.FillDefaults()
	mk := func(name string, coarse, fine *table.Dataset) Table1Row {
		return Table1Row{
			Dataset:     name,
			Columns:     len(coarse.Columns),
			CoarseTypes: coarse.NumTypes(),
			FineTypes:   fine.NumTypes(),
			TotalCells:  coarse.TotalValues(),
		}
	}
	cc := opts.corpusConfig(data.Coarse)
	fc := opts.corpusConfig(data.Fine)
	rows := []Table1Row{
		mk("GDS", data.GDS(cc), data.GDS(fc)),
		mk("WDC", data.WDC(cc), data.WDC(fc)),
		mk("Sato Tables", data.SatoTables(cc), data.SatoTables(fc)),
		mk("Git Tables", data.GitTables(cc), data.GitTables(fc)),
	}
	return rows, nil
}
