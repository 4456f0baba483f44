// Package core implements Gem — Gaussian Mixture Model Embeddings for
// numerical feature distributions (the paper's primary contribution, §3).
//
// The pipeline, following Algorithm 1:
//
//  1. All numeric values of all columns are stacked into one 1-D sample and a
//     GMM with m components is fitted by EM (§3.1, Eq. 1–5).
//  2. Signature mechanism (§3.2): for every column, the responsibility of
//     each component for each value is averaged, yielding the distributional
//     embedding m_i (Figure 2, Eq. 6).
//  3. Seven statistical features are extracted per column — unique count,
//     mean, coefficient of variation, entropy, range, 10th and 90th
//     percentile — and standardized across columns (Eq. 7).
//  4. The augmented vector a_i = [m_i ‖ f̃_i] is L1-normalized into the
//     probability-matrix row P_i (Eq. 8–9).
//  5. Contextual header embeddings S_i (§3.3, Eq. 10; here the deterministic
//     SBERT substitute from internal/textembed) are composed with P_i by
//     concatenation (Eq. 11/13), aggregation, or an autoencoder.
//
// Every step is independently accessible so the ablation of Figure 3
// (D, S, C and all combinations) can be reproduced exactly.
//
//gem:deterministic
//gem:pooled
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"github.com/gem-embeddings/gem/internal/autoencoder"
	"github.com/gem-embeddings/gem/internal/gmm"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
	"github.com/gem-embeddings/gem/internal/textembed"
)

// ErrState is returned when Embed is called before Fit.
var ErrState = errors.New("core: embedder not fitted")

// ErrInput is returned for invalid inputs.
var ErrInput = errors.New("core: invalid input")

// Features is a bit set selecting which of Gem's three feature families an
// embedding includes (Figure 3's ablation axes).
type Features uint8

const (
	// Distributional selects the GMM mean-responsibility signature (D).
	Distributional Features = 1 << iota
	// Statistical selects the seven standardized statistical features (S).
	Statistical
	// Contextual selects the header embeddings (C).
	Contextual
)

// Has reports whether f includes g: every bit of g must be set in f, so a
// multi-bit mask asks for ALL of its families, not any one of them.
func (f Features) Has(g Features) bool { return f&g == g }

// String renders the combination the way the paper does ("D+S+C").
func (f Features) String() string {
	s := ""
	if f.Has(Distributional) {
		s += "D"
	}
	if f.Has(Statistical) {
		if s != "" {
			s += "+"
		}
		s += "S"
	}
	if f.Has(Contextual) {
		if s != "" {
			s += "+"
		}
		s += "C"
	}
	if s == "" {
		return "none"
	}
	return s
}

// Composition selects how value and header embeddings are merged (Table 3).
type Composition int

const (
	// Concatenation joins the parts side by side (Eq. 11/13) — the paper's
	// best-performing mode.
	Concatenation Composition = iota
	// Aggregation averages the parts into a single fixed-width vector.
	Aggregation
	// AE compresses the concatenated parts with an autoencoder.
	AE
)

// String names the composition mode.
func (c Composition) String() string {
	switch c {
	case Aggregation:
		return "aggregation"
	case AE:
		return "AE"
	default:
		return "concatenation"
	}
}

// Norm selects the vector normalization applied to signature rows.
type Norm int

const (
	// L1 normalization is what the paper specifies (Eq. 9–10).
	L1 Norm = iota
	// L2 normalization is provided for the ablation of that design choice.
	L2
)

// Config parametrizes a Gem embedder.
type Config struct {
	// Components is the number of GMM components m. Default 50 (the paper's
	// setting; Figure 4 shows 5–100 behave similarly).
	Components int
	// Tol is the EM convergence threshold on the change in mean per-value
	// log-likelihood: a restart stops once |ΔlogL| < Tol·n over the n
	// fitted values (see gmm.Config.Tol for the rule and the measurement
	// behind the default). Default 1e-4 — not scikit-learn's 1e-3, which
	// costs 2.9 % type precision on the benchmark corpus, and not the
	// former absolute 1e-3 on the total, which never fired.
	Tol float64
	// MaxIter caps EM iterations per restart. Default 200.
	MaxIter int
	// Restarts is the number of EM initializations. Default 10 (paper
	// §4.1.4).
	Restarts int
	// Seed drives all randomness (EM restarts, subsampling, AE training).
	Seed int64
	// Features selects D/S/C. Default Distributional|Statistical — the
	// numeric-only Gem (D+S) of Table 2.
	Features Features
	// Composition selects how C is merged with D/S when Contextual is
	// enabled. Default Concatenation.
	Composition Composition
	// Normalization selects L1 (paper) or L2 row normalization. Default L1.
	Normalization Norm
	// HeaderDim is the width of header embeddings. Default
	// textembed.DefaultDim (384).
	HeaderDim int
	// SubsampleStack caps the number of stacked values used to fit the GMM
	// (a deterministic uniform subsample). 0 means no cap. Fitting EM on a
	// bounded subsample leaves the mixture estimate essentially unchanged
	// while keeping large corpora fast.
	SubsampleStack int
	// EntropyBins is the histogram bin count of the entropy feature.
	// Default 20.
	EntropyBins int
	// AELatent is the latent width of the AE composition. Default 64.
	AELatent int
	// AEEpochs is the AE composition's training epochs. Default 30.
	AEEpochs int
	// EMInit selects the EM initialization method. Default quantile
	// seeding (see gmm.InitQuantile).
	EMInit gmm.InitMethod
	// RawStats disables the signed-log measurement of the scale-carrying
	// statistical features (see StatisticalFeatures). Exposed for the
	// ablation benches; the log measurement is the default.
	RawStats bool
	// Workers bounds the total parallelism of the embedder: one shared
	// internal/pool worker pool serves the column fan-out of
	// Signatures/Embed AND the EM engine's restart/chunk/candidate
	// fan-out (see gmm.Config.Pool), so nested parallelism cannot
	// oversubscribe — columns × restarts × chunks collapse onto Workers
	// bounded slots. Default GOMAXPROCS; 1 runs everything serially.
	// Results are written to index-addressed slots and reduced in index
	// order, so output is bit-identical for every worker count. Excluded
	// from persistence: the right width is a property of the loading
	// host, not the saving one.
	Workers int `json:"-"`
}

func (c *Config) fillDefaults() {
	if c.Components <= 0 {
		c.Components = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	if c.Restarts <= 0 {
		c.Restarts = 10
	}
	if c.Features == 0 {
		c.Features = Distributional | Statistical
	}
	if c.HeaderDim <= 0 {
		c.HeaderDim = textembed.DefaultDim
	}
	if c.EntropyBins <= 0 {
		c.EntropyBins = 20
	}
	if c.AELatent <= 0 {
		c.AELatent = 64
	}
	if c.AEEpochs <= 0 {
		c.AEEpochs = 30
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// StatMoments holds the per-feature mean and standard deviation of the
// statistical features across the fitting corpus columns (population
// standard deviation, matching stats.Standardize), frozen at Fit time.
// They make single-column embeddings batch-independent: EmbedSignature
// standardizes against the corpus moments instead of the incoming batch,
// so the serve layer can answer for one column at a time.
type StatMoments struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// Embedder produces Gem embeddings for numeric columns.
type Embedder struct {
	cfg     Config
	model   *gmm.Model
	headers *textembed.Embedder
	// moments are the frozen corpus-level feature moments; nil until Fit
	// (or when the config selects no statistical features).
	moments *StatMoments
	// pool is the one bounded worker pool shared by every parallel layer
	// of the pipeline (column fan-out and nested EM), sized by
	// cfg.Workers. See the internal/pool package comment for the
	// no-oversubscription contract.
	pool *pool.Pool
	// fitStats is the telemetry of the last Fit call; nil before Fit and
	// on loaded embedders. Excluded from persistence: it describes one
	// fitting run on one host, not the model.
	fitStats *gmm.FitStats
}

// NewEmbedder returns an unfitted embedder.
func NewEmbedder(cfg Config) (*Embedder, error) {
	cfg.fillDefaults()
	he, err := textembed.New(cfg.HeaderDim)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Embedder{cfg: cfg, headers: he, pool: pool.New(cfg.Workers)}, nil
}

// Config returns the effective (default-filled) configuration.
func (e *Embedder) Config() Config { return e.cfg }

// SetWorkers rebuilds the embedder's shared worker pool at the given width
// (non-positive means GOMAXPROCS). Workers is a property of the running
// host and is excluded from persistence, so this is how a loaded embedder
// gets a non-default width. The pool width never changes results, only
// wall-clock; do not call concurrently with embedding work.
func (e *Embedder) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.cfg.Workers = n
	e.pool = pool.New(n)
}

// Model returns the fitted GMM, or nil before Fit.
func (e *Embedder) Model() *gmm.Model { return e.model }

// Fit stacks all column values of ds into one sample (optionally
// subsampled) and fits the GMM (Algorithm 1, line 9).
func (e *Embedder) Fit(ds *table.Dataset) error {
	if ds == nil || len(ds.Columns) == 0 {
		return fmt.Errorf("%w: empty dataset", ErrInput)
	}
	stack := ds.Stack()
	if e.cfg.SubsampleStack > 0 && len(stack) > e.cfg.SubsampleStack {
		stack = subsample(stack, e.cfg.SubsampleStack, e.cfg.Seed)
	}
	m, st, err := gmm.FitWithStats(stack, gmm.Config{
		K:        e.cfg.Components,
		Tol:      e.cfg.Tol,
		MaxIter:  e.cfg.MaxIter,
		Restarts: e.cfg.Restarts,
		Seed:     e.cfg.Seed,
		Init:     e.cfg.EMInit,
		Pool:     e.pool,
	})
	if err != nil {
		return fmt.Errorf("core: fitting GMM: %w", err)
	}
	e.model = m
	e.fitStats = st
	return e.freezeMoments(ds)
}

// FitStats returns the telemetry recorded by the last Fit call: per-restart
// iteration counts and likelihoods, the winning restart, the winner's
// log-likelihood trajectory, and E/M-step wall-clock. Nil before Fit and on
// embedders restored by LoadEmbedder.
func (e *Embedder) FitStats() *gmm.FitStats { return e.fitStats }

// freezeMoments computes and stores the corpus-level feature moments of ds
// (see StatMoments). A no-op when the configuration selects no statistical
// features. The pass over the columns is repeated by a later Embed on the
// same dataset, but it cannot be deferred to one: the moments must exist
// even when the embedder goes straight to Save (the serve deployment mode),
// and the cost is one sort-dominated scan per column — marginal next to the
// EM iterations Fit just ran.
func (e *Embedder) freezeMoments(ds *table.Dataset) error {
	if !e.cfg.Features.Has(Statistical) {
		return nil
	}
	feats := make([][]float64, len(ds.Columns))
	err := e.pool.For(len(ds.Columns), func(i int) error {
		values := ds.Columns[i].Values
		if len(values) == 0 {
			return fmt.Errorf("core: column %d (%q): %w: empty column", i, ds.Columns[i].Name, ErrInput)
		}
		feats[i], _ = e.features(sortedCopy(values))
		return nil
	})
	if err != nil {
		return err
	}
	width := len(feats[0])
	mom := &StatMoments{Mean: make([]float64, width), Std: make([]float64, width)}
	col := make([]float64, len(feats))
	for j := 0; j < width; j++ {
		for i := range feats {
			col[i] = feats[i][j]
		}
		mom.Mean[j], _ = stats.Mean(col)
		mom.Std[j], _ = stats.StdDev(col)
	}
	e.moments = mom
	return nil
}

// Moments returns the frozen corpus-level feature moments, or nil before
// Fit (or when the configuration selects no statistical features).
func (e *Embedder) Moments() *StatMoments { return e.moments }

// subsample picks k values from xs uniformly without replacement,
// deterministically in seed. It runs a partial Fisher–Yates shuffle on a
// sparse view of the index permutation: only the k drawn slots and the
// entries they displace are materialized in a map, so the cost is O(k) time
// and memory regardless of len(xs) — where a full rng.Perm would allocate
// and shuffle all n indices to use just the first k.
func subsample(xs []float64, k int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	n := len(xs)
	displaced := make(map[int]int, 2*k)
	at := func(i int) int {
		if j, ok := displaced[i]; ok {
			return j
		}
		return i
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vi, vj := at(i), at(j)
		displaced[i], displaced[j] = vj, vi
		out[i] = xs[vj]
	}
	return out
}

// StatFeatureNames lists the seven statistical features in vector order.
func StatFeatureNames() []string {
	return []string{"unique_count", "mean", "cv", "entropy", "range", "p10", "p90"}
}

// StatisticalFeatures computes the paper's seven statistical features for
// one column (§3.2). EntropyBins controls the entropy histogram.
//
// Scale-carrying features (unique count, mean, range, percentiles, CV) are
// measured in signed log space, sign(x)·log(1+|x|), before the cross-column
// standardization of Eq. 7. On corpora whose column magnitudes span several
// decades, raw z-scores of these features collapse: the few huge-scale
// columns capture all the variance and the bulk of columns become an almost
// constant block, which washes out cosine similarity. The log measurement
// keeps the z-scores informative across decades; the raw-vs-log choice is
// benchmarked in the ablation benches (DESIGN.md §5).
func StatisticalFeatures(values []float64, entropyBins int) ([]float64, error) {
	fs, err := RawStatisticalFeatures(values, entropyBins)
	if err != nil {
		return nil, err
	}
	logMeasure(fs)
	return fs, nil
}

// RawStatisticalFeatures is StatisticalFeatures without the signed-log
// measurement — the literal raw feature values. Used by the ablation bench
// that quantifies the log-space design choice.
func RawStatisticalFeatures(values []float64, entropyBins int) ([]float64, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: empty column", ErrInput)
	}
	if entropyBins <= 0 {
		entropyBins = 20
	}
	fs, _ := sortedFeatures(sortedCopy(values), entropyBins)
	return fs, nil
}

// sortedCopy returns an ascending copy of values: NaNs first, and every −0
// before every +0. slices.Sort leaves −0 and +0 in whatever order the rows
// and the sort put them (they compare equal), and the percentiles and the
// extremes keep the sign of the zero they read, so the zeros are rewritten
// in sign order: the copy is a function of the values alone.
func sortedCopy(values []float64) []float64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	lo, _ := slices.BinarySearch(sorted, 0)
	hi, neg := lo, 0
	for ; hi < len(sorted) && sorted[hi] == 0; hi++ {
		if math.Signbit(sorted[hi]) {
			neg++
		}
	}
	for i := lo; i < hi; i++ {
		sorted[i] = 0
		if i < lo+neg {
			sorted[i] = math.Copysign(0, -1)
		}
	}
	return sorted
}

// sortedFeatures computes the seven raw features of a non-empty column
// from its ascending copy, and returns the number of distinct values beside
// them. Every feature is read off the sorted slice, so none depends on the
// order of the column's rows: unique count = runs of equal values (all NaNs
// counting as one), mean and deviation summed in ascending order, the
// extremes, the two percentiles by interpolation, the entropy histogram.
// Each feature has the bits the seven separate stats calls give on the
// ascending copy: stats.Min/Max keep a NaN when it comes first, and sorting
// puts every NaN first.
func sortedFeatures(sorted []float64, entropyBins int) ([]float64, int) {
	mean, _ := stats.Mean(sorted)
	lo, hi := sorted[0], sorted[0]
	var ss float64
	for _, x := range sorted {
		d := x - mean
		ss += d * d
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	cv := math.Sqrt(ss / float64(len(sorted)))
	if mean != 0 {
		cv /= math.Abs(mean)
	}

	nans := 0
	for nans < len(sorted) && math.IsNaN(sorted[nans]) {
		nans++
	}
	distinct := min(nans, 1)
	for i := nans; i < len(sorted); i++ {
		if i == nans || sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	ent, _ := stats.EntropyBetween(sorted, lo, hi, entropyBins)
	p10, _ := stats.PercentileSorted(sorted, 10)
	p90, _ := stats.PercentileSorted(sorted, 90)
	return []float64{float64(distinct), mean, cv, ent, hi - lo, p10, p90}, distinct
}

// logMeasure applies the signed-log measurement to the scale-carrying
// features in place; the entropy is already scale-free.
func logMeasure(fs []float64) {
	for j := range fs {
		if j != 3 {
			fs[j] = slog(fs[j])
		}
	}
}

// features returns a column's statistical features in the configured
// measurement, and its number of distinct values, from the column's
// ascending copy.
func (e *Embedder) features(sorted []float64) ([]float64, int) {
	fs, distinct := sortedFeatures(sorted, e.cfg.EntropyBins)
	if !e.cfg.RawStats {
		logMeasure(fs)
	}
	return fs, distinct
}

// slog is the signed log transform sign(x)·log(1+|x|).
func slog(x float64) float64 {
	if x >= 0 {
		return math.Log1p(x)
	}
	return -math.Log1p(-x)
}

// Signature is the per-column output of the signature mechanism before
// normalization and composition.
type Signature struct {
	// Column is the header of the column.
	Column string
	// MeanProbs is the distributional embedding m_i: the column's mean
	// responsibility per GMM component (sums to 1).
	MeanProbs []float64
	// Stats holds the raw (unstandardized) statistical features f_i.
	Stats []float64
	// Distinct is the number of distinct values in the column — what the
	// signature cost, where len(values) is what the column holds.
	Distinct int
}

// Signatures computes the signature of every column in ds under the fitted
// model.
func (e *Embedder) Signatures(ds *table.Dataset) ([]Signature, error) {
	if e.model == nil {
		return nil, ErrState
	}
	if ds == nil || len(ds.Columns) == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrInput)
	}
	// Per-column work is independent and the model is read-only once
	// fitted, so columns fan out across the worker pool; each worker
	// writes only its own slot, keeping output order deterministic.
	out := make([]Signature, len(ds.Columns))
	err := e.pool.For(len(ds.Columns), func(i int) error {
		sig, err := e.columnSignature(ds.Columns[i])
		if err != nil {
			return fmt.Errorf("core: column %d (%q): %w", i, ds.Columns[i].Name, err)
		}
		out[i] = sig
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// columnSignature computes one column's signature; the exact code path the
// batched Signatures fans out, so single-column and batched results are
// bit-identical. The column is sorted once, into a copy both halves of the
// signature read: the mixture kernel evaluates each run of equal values
// once and the features take their order statistics from the same slice.
// The error is unwrapped for the callers to contextualize.
func (e *Embedder) columnSignature(col table.Column) (Signature, error) {
	sorted := sortedCopy(col.Values)
	mp, err := e.model.MeanResponsibilities(sorted)
	if err != nil {
		return Signature{}, err
	}
	fs, distinct := e.features(sorted)
	return Signature{Column: col.Name, MeanProbs: mp, Stats: fs, Distinct: distinct}, nil
}

// Embed runs the full Gem pipeline on ds and returns one embedding row per
// column. Fit must have been called first (typically on the same dataset).
func (e *Embedder) Embed(ds *table.Dataset) ([][]float64, error) {
	sigs, err := e.Signatures(ds)
	if err != nil {
		return nil, err
	}

	n := len(sigs)
	// Standardize statistical features across columns (Eq. 7).
	var stdStats [][]float64
	if e.cfg.Features.Has(Statistical) {
		raw := make([][]float64, n)
		for i, s := range sigs {
			raw[i] = s.Stats
		}
		stdStats, err = stats.Standardize(raw)
		if err != nil {
			return nil, fmt.Errorf("core: standardizing features: %w", err)
		}
	}

	// Value embedding P_i (Eq. 8–9): the selected value-side parts are
	// concatenated and normalized. Each part is first brought to unit L2
	// norm so that neither the m-wide responsibility profile nor the
	// 7-wide z-score block dominates cosine similarity by magnitude alone
	// (a block-balance refinement of Eq. 8; the unbalanced variant is
	// covered by the ablation benches).
	valueRows := make([][]float64, n)
	for i := range sigs {
		var a []float64
		if e.cfg.Features.Has(Distributional) {
			a = append(a, stats.L2Normalize(sigs[i].MeanProbs)...)
		}
		if e.cfg.Features.Has(Statistical) {
			a = append(a, stats.L2Normalize(stdStats[i])...)
		}
		valueRows[i] = e.normalize(a)
	}

	// Contextual embedding S_i (Eq. 10). The header embedder is read-only,
	// so headers fan out across the same worker pool.
	var headerRows [][]float64
	if e.cfg.Features.Has(Contextual) {
		headerRows = make([][]float64, n)
		if err := e.pool.For(n, func(i int) error {
			headerRows[i] = e.normalize(e.headers.Embed(ds.Columns[i].Name))
			return nil
		}); err != nil {
			return nil, err
		}
	}

	switch {
	case !e.cfg.Features.Has(Contextual):
		return valueRows, nil
	case len(valueRows[0]) == 0:
		// Contextual only.
		return headerRows, nil
	default:
		return e.compose(valueRows, headerRows)
	}
}

// FitEmbed is Fit followed by Embed on the same dataset.
func (e *Embedder) FitEmbed(ds *table.Dataset) ([][]float64, error) {
	if err := e.Fit(ds); err != nil {
		return nil, err
	}
	return e.Embed(ds)
}

// compose merges value and header embeddings per the configured mode.
func (e *Embedder) compose(value, header [][]float64) ([][]float64, error) {
	n := len(value)
	switch e.cfg.Composition {
	case Aggregation:
		// Summarize the two parts into one fixed-width vector: each part is
		// zero-padded to the wider width and the parts are averaged. This
		// "compresses diverse characteristics into a less detailed form",
		// which is exactly the information loss the paper attributes to
		// aggregation.
		width := len(value[0])
		if len(header[0]) > width {
			width = len(header[0])
		}
		out := make([][]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, width)
			for j, v := range value[i] {
				row[j] += v / 2
			}
			for j, v := range header[i] {
				row[j] += v / 2
			}
			out[i] = row
		}
		return out, nil
	case AE:
		concat := concatRows(value, header)
		ae, err := autoencoder.New(autoencoder.Config{
			InputDim:  len(concat[0]),
			Hidden:    []int{128},
			LatentDim: e.cfg.AELatent,
			Seed:      e.cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: AE composition: %w", err)
		}
		if _, err := ae.Train(concat, autoencoder.TrainConfig{
			Epochs:       e.cfg.AEEpochs,
			BatchSize:    64,
			LearningRate: 1e-3,
			Seed:         e.cfg.Seed,
		}); err != nil {
			return nil, fmt.Errorf("core: AE composition: %w", err)
		}
		z, err := ae.Encode(concat)
		if err != nil {
			return nil, fmt.Errorf("core: AE composition: %w", err)
		}
		return z, nil
	default: // Concatenation (Eq. 11/13)
		return concatRows(value, header), nil
	}
}

func concatRows(a, b [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		row := make([]float64, 0, len(a[i])+len(b[i]))
		row = append(row, a[i]...)
		row = append(row, b[i]...)
		out[i] = row
	}
	return out
}

// normalize applies the configured row normalization.
func (e *Embedder) normalize(v []float64) []float64 {
	if e.cfg.Normalization == L2 {
		return stats.L2Normalize(v)
	}
	return stats.L1Normalize(v)
}

// AssignComponent returns, for each value of a column, the index of the GMM
// component with the highest responsibility (Eq. 12) — the paper's
// interpretation of a value's latent "semantic distribution".
func (e *Embedder) AssignComponent(values []float64) ([]int, error) {
	if e.model == nil {
		return nil, ErrState
	}
	out := make([]int, len(values))
	for i, x := range values {
		r := e.model.Responsibilities(x)
		best, bestV := 0, math.Inf(-1)
		for j, v := range r {
			if v > bestV {
				bestV = v
				best = j
			}
		}
		out[i] = best
	}
	return out, nil
}

// HeaderEmbedder exposes the contextual embedding component so callers
// (baselines, examples) can reuse the identical header representation.
func (e *Embedder) HeaderEmbedder() *textembed.Embedder { return e.headers }
