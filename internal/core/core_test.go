package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/eval"
	"github.com/gem-embeddings/gem/internal/mathx"
	"github.com/gem-embeddings/gem/internal/table"
)

// smallCorpus returns a tiny deterministic corpus with distinguishable types.
func smallCorpus() *table.Dataset {
	return data.GitTables(data.Config{Seed: 1, Scale: 0.1})
}

// fastCfg keeps EM cheap for tests.
func fastCfg() Config {
	return Config{
		Components:     12,
		Restarts:       2,
		MaxIter:        60,
		Seed:           42,
		SubsampleStack: 4000,
	}
}

func TestNewEmbedderDefaults(t *testing.T) {
	e, err := NewEmbedder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	if cfg.Components != 50 {
		t.Errorf("default Components = %d, want 50", cfg.Components)
	}
	if cfg.Tol != 1e-4 {
		t.Errorf("default Tol = %v, want 1e-4", cfg.Tol)
	}
	if cfg.Restarts != 10 {
		t.Errorf("default Restarts = %d, want 10", cfg.Restarts)
	}
	if cfg.Features != Distributional|Statistical {
		t.Errorf("default Features = %v, want D+S", cfg.Features)
	}
}

func TestFitAndEmbedShapes(t *testing.T) {
	ds := smallCorpus()
	e, err := NewEmbedder(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if e.Model() == nil {
		t.Fatal("Model nil after Fit")
	}
	emb, err := e.Embed(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != len(ds.Columns) {
		t.Fatalf("got %d embeddings for %d columns", len(emb), len(ds.Columns))
	}
	wantDim := 12 + 7 // components + statistical features
	for i, row := range emb {
		if len(row) != wantDim {
			t.Fatalf("embedding %d has dim %d, want %d", i, len(row), wantDim)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("embedding %d has non-finite value", i)
			}
		}
	}
}

func TestEmbedBeforeFitFails(t *testing.T) {
	e, _ := NewEmbedder(fastCfg())
	if _, err := e.Embed(smallCorpus()); !errors.Is(err, ErrState) {
		t.Errorf("want ErrState, got %v", err)
	}
	if _, err := e.Signatures(smallCorpus()); !errors.Is(err, ErrState) {
		t.Errorf("Signatures: want ErrState, got %v", err)
	}
	if _, err := e.AssignComponent([]float64{1}); !errors.Is(err, ErrState) {
		t.Errorf("AssignComponent: want ErrState, got %v", err)
	}
}

func TestFitEmptyDatasetFails(t *testing.T) {
	e, _ := NewEmbedder(fastCfg())
	if err := e.Fit(&table.Dataset{}); !errors.Is(err, ErrInput) {
		t.Errorf("want ErrInput, got %v", err)
	}
	if err := e.Fit(nil); !errors.Is(err, ErrInput) {
		t.Errorf("nil: want ErrInput, got %v", err)
	}
}

func TestL1RowsSumToOneForDistributionalOnly(t *testing.T) {
	ds := smallCorpus()
	cfg := fastCfg()
	cfg.Features = Distributional
	e, _ := NewEmbedder(cfg)
	emb, err := e.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Mean responsibilities are non-negative, so L1 normalization makes each
	// row sum to exactly 1.
	for i, row := range emb {
		var s float64
		for _, v := range row {
			if v < -1e-12 {
				t.Fatalf("row %d has negative probability %v", i, v)
			}
			s += v
		}
		if !mathx.AlmostEqual(s, 1, 1e-9) {
			t.Errorf("row %d sums to %v, want 1", i, s)
		}
	}
}

func TestSignatures(t *testing.T) {
	ds := smallCorpus()
	e, _ := NewEmbedder(fastCfg())
	if err := e.Fit(ds); err != nil {
		t.Fatal(err)
	}
	sigs, err := e.Signatures(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != len(ds.Columns) {
		t.Fatalf("got %d signatures", len(sigs))
	}
	for i, s := range sigs {
		if s.Column != ds.Columns[i].Name {
			t.Errorf("signature %d column %q, want %q", i, s.Column, ds.Columns[i].Name)
		}
		if len(s.MeanProbs) != 12 {
			t.Errorf("signature %d has %d mean probs, want 12", i, len(s.MeanProbs))
		}
		var sum float64
		for _, p := range s.MeanProbs {
			sum += p
		}
		if !mathx.AlmostEqual(sum, 1, 1e-9) {
			t.Errorf("signature %d mean probs sum to %v", i, sum)
		}
		if len(s.Stats) != 7 {
			t.Errorf("signature %d has %d stats, want 7", i, len(s.Stats))
		}
	}
}

func TestStatisticalFeatures(t *testing.T) {
	values := []float64{1, 2, 2, 3, 4, 10}
	f, err := StatisticalFeatures(values, 10)
	if err != nil {
		t.Fatal(err)
	}
	names := StatFeatureNames()
	if len(f) != len(names) || len(f) != 7 {
		t.Fatalf("feature count = %d, want 7", len(f))
	}
	// Scale-carrying features are measured in signed log space.
	if !mathx.AlmostEqual(f[0], math.Log1p(5), 1e-12) { // unique count
		t.Errorf("unique_count = %v, want log1p(5)", f[0])
	}
	if !mathx.AlmostEqual(f[1], math.Log1p(22.0/6), 1e-12) { // mean
		t.Errorf("mean = %v, want log1p(22/6)", f[1])
	}
	if !mathx.AlmostEqual(f[4], math.Log1p(9), 1e-12) { // range
		t.Errorf("range = %v, want log1p(9)", f[4])
	}
	if _, err := StatisticalFeatures(nil, 10); !errors.Is(err, ErrInput) {
		t.Errorf("empty: want ErrInput, got %v", err)
	}
}

func TestRawStatisticalFeatures(t *testing.T) {
	values := []float64{1, 2, 2, 3, 4, 10}
	f, err := RawStatisticalFeatures(values, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 5 { // unique count
		t.Errorf("unique_count = %v, want 5", f[0])
	}
	if !mathx.AlmostEqual(f[1], 22.0/6, 1e-12) { // mean
		t.Errorf("mean = %v, want %v", f[1], 22.0/6)
	}
	if f[4] != 9 { // range
		t.Errorf("range = %v, want 9", f[4])
	}
	if _, err := RawStatisticalFeatures(nil, 10); !errors.Is(err, ErrInput) {
		t.Errorf("empty: want ErrInput, got %v", err)
	}
}

func TestSlogProperties(t *testing.T) {
	if slog(0) != 0 {
		t.Error("slog(0) != 0")
	}
	if slog(-3) != -slog(3) {
		t.Error("slog must be odd")
	}
	if slog(math.E-1) != 1 {
		t.Errorf("slog(e-1) = %v, want 1", slog(math.E-1))
	}
}

func TestEmbedDeterministic(t *testing.T) {
	ds := smallCorpus()
	mk := func() [][]float64 {
		e, _ := NewEmbedder(fastCfg())
		emb, err := e.FitEmbed(ds)
		if err != nil {
			t.Fatal(err)
		}
		return emb
	}
	a, b := mk(), mk()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("embedding not deterministic at [%d][%d]", i, j)
			}
		}
	}
}

func TestFeatureCombinationDims(t *testing.T) {
	ds := smallCorpus()
	headerDim := 64
	cases := []struct {
		feats Features
		comp  Composition
		dim   int
	}{
		{Distributional, Concatenation, 12},
		{Statistical, Concatenation, 7},
		{Contextual, Concatenation, headerDim},
		{Distributional | Statistical, Concatenation, 19},
		{Distributional | Contextual, Concatenation, 12 + headerDim},
		{Statistical | Contextual, Concatenation, 7 + headerDim},
		{Distributional | Statistical | Contextual, Concatenation, 19 + headerDim},
		{Distributional | Statistical | Contextual, Aggregation, headerDim},
		{Distributional | Statistical | Contextual, AE, 16},
	}
	for _, tc := range cases {
		cfg := fastCfg()
		cfg.Features = tc.feats
		cfg.Composition = tc.comp
		cfg.HeaderDim = headerDim
		cfg.AELatent = 16
		cfg.AEEpochs = 2
		e, err := NewEmbedder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := e.FitEmbed(ds)
		if err != nil {
			t.Fatalf("%v/%v: %v", tc.feats, tc.comp, err)
		}
		if len(emb[0]) != tc.dim {
			t.Errorf("%v/%v: dim = %d, want %d", tc.feats, tc.comp, len(emb[0]), tc.dim)
		}
	}
}

func TestFeaturesString(t *testing.T) {
	tests := []struct {
		f    Features
		want string
	}{
		{Distributional, "D"},
		{Statistical, "S"},
		{Contextual, "C"},
		{Distributional | Statistical, "D+S"},
		{Distributional | Statistical | Contextual, "D+S+C"},
		{0, "none"},
	}
	for _, tc := range tests {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("Features(%d).String() = %q, want %q", tc.f, got, tc.want)
		}
	}
	if Concatenation.String() != "concatenation" || Aggregation.String() != "aggregation" || AE.String() != "AE" {
		t.Error("Composition.String wrong")
	}
}

func TestGemSeparatesDistinctTypes(t *testing.T) {
	// The headline behaviour: Gem (D+S) must achieve decent average
	// precision on a corpus with distinguishable distributions.
	ds := smallCorpus()
	e, _ := NewEmbedder(fastCfg())
	emb, err := e.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := eval.AveragePrecisionByType(emb, ds.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if ap < 0.2 {
		t.Errorf("Gem (D+S) average precision = %v, want >= 0.2", ap)
	}
}

func TestContextualHelpsWhenHeadersInformative(t *testing.T) {
	ds := data.GDS(data.Config{Seed: 3, Scale: 0.05, Grain: data.Fine})
	base := fastCfg()
	base.Components = 8

	dOnly := base
	dOnly.Features = Distributional | Statistical
	e1, _ := NewEmbedder(dOnly)
	emb1, err := e1.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap1, _ := eval.AveragePrecisionByType(emb1, ds.Labels())

	dsc := base
	dsc.Features = Distributional | Statistical | Contextual
	e2, _ := NewEmbedder(dsc)
	emb2, err := e2.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap2, _ := eval.AveragePrecisionByType(emb2, ds.Labels())

	if ap2 <= ap1 {
		t.Errorf("adding headers on GDS-like data should help: D+S=%v, D+S+C=%v", ap1, ap2)
	}
}

func TestAssignComponent(t *testing.T) {
	ds := smallCorpus()
	e, _ := NewEmbedder(fastCfg())
	if err := e.Fit(ds); err != nil {
		t.Fatal(err)
	}
	vals := ds.Columns[0].Values[:5]
	assign, err := e.AssignComponent(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 5 {
		t.Fatalf("got %d assignments", len(assign))
	}
	for _, a := range assign {
		if a < 0 || a >= e.Model().K() {
			t.Errorf("assignment %d outside [0, %d)", a, e.Model().K())
		}
	}
}

func TestL2NormalizationOption(t *testing.T) {
	ds := smallCorpus()
	cfg := fastCfg()
	cfg.Normalization = L2
	cfg.Features = Distributional
	e, _ := NewEmbedder(cfg)
	emb, err := e.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range emb {
		var ss float64
		for _, v := range row {
			ss += v * v
		}
		if !mathx.AlmostEqual(math.Sqrt(ss), 1, 1e-9) {
			t.Errorf("row %d L2 norm = %v, want 1", i, math.Sqrt(ss))
		}
	}
}

func TestSubsampleDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = float64(i)
		}
		a := subsample(xs, 10, seed)
		b := subsample(xs, 10, seed)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// All sampled values must come from xs without duplication of index
		// (values are unique here, so check distinctness).
		seen := map[float64]bool{}
		for _, v := range a {
			if v < 0 || v > 99 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFeaturesHas(t *testing.T) {
	cases := []struct {
		name string
		f, g Features
		want bool
	}{
		{"single bit present", Distributional | Statistical, Distributional, true},
		{"single bit absent", Distributional, Contextual, false},
		{"full mask on full set", Distributional | Statistical | Contextual, Distributional | Statistical | Contextual, true},
		// Multi-bit mask: Has asks for ALL families of the mask. A D-only
		// config does NOT have D+S (the pre-fix f&g != 0 said it did).
		{"multi-bit mask on partial set", Distributional, Distributional | Statistical, false},
		{"multi-bit mask on superset", Distributional | Statistical | Contextual, Distributional | Statistical, true},
		{"multi-bit mask exact", Statistical | Contextual, Statistical | Contextual, true},
		{"disjoint multi-bit mask", Statistical, Distributional | Contextual, false},
	}
	for _, c := range cases {
		if got := c.f.Has(c.g); got != c.want {
			t.Errorf("%s: (%v).Has(%v) = %v, want %v", c.name, c.f, c.g, got, c.want)
		}
	}
}

func TestSubsampleFullDraw(t *testing.T) {
	// k == n must return a permutation of xs (every value exactly once).
	xs := []float64{4, 8, 15, 16, 23, 42}
	got := subsample(xs, len(xs), 3)
	seen := map[float64]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != len(xs) {
		t.Errorf("full draw lost values: %v", got)
	}
}

func TestHeaderEmbedderExposed(t *testing.T) {
	e, _ := NewEmbedder(fastCfg())
	if e.HeaderEmbedder() == nil {
		t.Fatal("HeaderEmbedder nil")
	}
	v := e.HeaderEmbedder().Embed("price")
	if len(v) != e.Config().HeaderDim {
		t.Errorf("header dim = %d, want %d", len(v), e.Config().HeaderDim)
	}
}

// TestFitConvergesUnderDefaultTol pins ROADMAP item 3's stopping-rule
// half: under the default Tol and MaxIter every EM restart meets the
// per-value tolerance before the iteration cap, on the golden catalog and
// on the paper-shaped GDS stack at the benchmark's model size.
func TestFitConvergesUnderDefaultTol(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg Config
		ds  *table.Dataset
	}{
		"golden": {goldenConfig(), goldenCatalog()},
		"gds": {
			Config{Components: 50, Restarts: 3, Seed: 12, SubsampleStack: 8000},
			data.GDS(data.Config{Seed: 12, Scale: 1, Grain: data.Coarse}),
		},
	} {
		e, err := NewEmbedder(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Fit(tc.ds); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r, rs := range e.FitStats().Restarts {
			if !rs.Converged || rs.Iterations >= e.Config().MaxIter {
				t.Errorf("%s restart %d: converged=%v after %d iterations (MaxIter %d)",
					name, r, rs.Converged, rs.Iterations, e.Config().MaxIter)
			}
		}
	}
}
