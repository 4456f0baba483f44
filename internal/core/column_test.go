package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// TestEmbedColumnMatchesBatchedEmbed pins the serve-layer contract: for
// columns of the fitting corpus, the single-column path (frozen moments)
// reproduces the batched Embed rows bit-exactly, because the batch
// standardization over the fitting corpus IS the frozen standardization.
func TestEmbedColumnMatchesBatchedEmbed(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"D+S", fastCfg()},
		{"D only", func() Config { c := fastCfg(); c.Features = Distributional; return c }()},
		{"S only", func() Config { c := fastCfg(); c.Features = Statistical; return c }()},
		{"D+S+C concat", func() Config {
			c := fastCfg()
			c.Features = Distributional | Statistical | Contextual
			c.HeaderDim = 32
			return c
		}()},
		{"D+S+C agg", func() Config {
			c := fastCfg()
			c.Features = Distributional | Statistical | Contextual
			c.Composition = Aggregation
			c.HeaderDim = 32
			return c
		}()},
		{"L2 norm", func() Config { c := fastCfg(); c.Normalization = L2; return c }()},
		{"raw stats", func() Config { c := fastCfg(); c.RawStats = true; return c }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := smallCorpus()
			e, err := NewEmbedder(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := e.FitEmbed(ds)
			if err != nil {
				t.Fatal(err)
			}
			for i, col := range ds.Columns {
				row, err := e.EmbedColumn(col)
				if err != nil {
					t.Fatalf("EmbedColumn(%q): %v", col.Name, err)
				}
				if len(row) != len(batch[i]) {
					t.Fatalf("column %d: dim %d vs batched %d", i, len(row), len(batch[i]))
				}
				for j := range row {
					if row[j] != batch[i][j] {
						t.Fatalf("column %d (%q) component %d: single %v != batched %v",
							i, col.Name, j, row[j], batch[i][j])
					}
				}
			}
		})
	}
}

func TestColumnSignatureMatchesBatch(t *testing.T) {
	ds := smallCorpus()
	e, err := NewEmbedder(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(ds); err != nil {
		t.Fatal(err)
	}
	sigs, err := e.Signatures(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range ds.Columns {
		sig, err := e.ColumnSignature(col)
		if err != nil {
			t.Fatal(err)
		}
		if sig.Column != sigs[i].Column {
			t.Fatalf("column %d name %q vs %q", i, sig.Column, sigs[i].Column)
		}
		for j := range sig.MeanProbs {
			if sig.MeanProbs[j] != sigs[i].MeanProbs[j] {
				t.Fatalf("column %d mean-prob %d differs", i, j)
			}
		}
		for j := range sig.Stats {
			if sig.Stats[j] != sigs[i].Stats[j] {
				t.Fatalf("column %d stat %d differs", i, j)
			}
		}
		if want := stats.UniqueCount(col.Values); sig.Distinct != want || sigs[i].Distinct != want {
			t.Fatalf("column %d: Distinct %d (batched %d), want %d", i, sig.Distinct, sigs[i].Distinct, want)
		}
	}
}

// TestColumnSignatureOrderFree shuffles a column that repeats its values:
// neither half of the signature may move by a bit.
func TestColumnSignatureOrderFree(t *testing.T) {
	ds := smallCorpus()
	e, err := NewEmbedder(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(ds); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	col := table.Column{Name: "dup", Values: make([]float64, 600)}
	for i := range col.Values {
		col.Values[i] = math.Round(10*ds.Columns[0].Values[rng.Intn(len(ds.Columns[0].Values))]) / 10
	}
	// Zeros of both signs compare equal, but a percentile keeps the sign
	// of the zero it reads.
	for i := 0; i < 120; i++ {
		col.Values[i] = math.Copysign(0, float64(i%2)-0.5)
	}
	want, err := e.ColumnSignature(col)
	if err != nil {
		t.Fatal(err)
	}
	if want.Distinct >= len(col.Values)/2 {
		t.Fatalf("%d distinct of %d values; the test wants repetition", want.Distinct, len(col.Values))
	}
	for s := 0; s < 200; s++ {
		rng.Shuffle(len(col.Values), func(a, b int) { col.Values[a], col.Values[b] = col.Values[b], col.Values[a] })
		got, err := e.ColumnSignature(col)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.MeanProbs {
			if math.Float64bits(got.MeanProbs[j]) != math.Float64bits(want.MeanProbs[j]) {
				t.Fatalf("shuffle %d: mean-prob %d = %v, want %v bit for bit", s, j, got.MeanProbs[j], want.MeanProbs[j])
			}
		}
		for j, name := range StatFeatureNames() {
			if math.Float64bits(got.Stats[j]) != math.Float64bits(want.Stats[j]) {
				t.Fatalf("shuffle %d: %s = %v, want %v bit for bit", s, name, got.Stats[j], want.Stats[j])
			}
		}
		if got.Distinct != want.Distinct {
			t.Fatalf("shuffle %d: Distinct %d, want %d", s, got.Distinct, want.Distinct)
		}
	}
}

// shuffledRows returns ds with the rows of every column in a seeded random
// order; the columns and their order stay as they are.
func shuffledRows(ds *table.Dataset, seed int64) *table.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := &table.Dataset{Name: ds.Name, Columns: make([]table.Column, len(ds.Columns))}
	for i, col := range ds.Columns {
		col.Values = append([]float64(nil), col.Values...)
		rng.Shuffle(len(col.Values), func(a, b int) { col.Values[a], col.Values[b] = col.Values[b], col.Values[a] })
		out.Columns[i] = col
	}
	return out
}

// TestEmbeddingIndependentOfRowOrder: an embedding is a function of the
// column's values, not of their order. Shuffling the rows of every column
// of the golden catalog and of the four paper corpora leaves every Embed
// row and every EmbedColumn row as it was, bit for bit.
func TestEmbeddingIndependentOfRowOrder(t *testing.T) {
	corpora := append([]*table.Dataset{goldenCatalog()}, data.AllCorpora(data.Config{Seed: 4, Scale: 0.05})...)
	for _, ds := range corpora {
		e, err := NewEmbedder(fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Fit(ds); err != nil {
			t.Fatal(err)
		}
		want, err := e.Embed(ds)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			shuf := shuffledRows(ds, seed)
			got, err := e.Embed(shuf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				requireRowBits(t, fmt.Sprintf("%s shuffle %d: Embed column %d", ds.Name, seed, i), got[i], want[i])
				single, err := e.EmbedColumn(ds.Columns[i])
				if err != nil {
					t.Fatal(err)
				}
				shuffled, err := e.EmbedColumn(shuf.Columns[i])
				if err != nil {
					t.Fatal(err)
				}
				requireRowBits(t, fmt.Sprintf("%s shuffle %d: EmbedColumn column %d", ds.Name, seed, i), shuffled, single)
			}
		}
	}
}

// requireRowBits fails unless got and want agree bit for bit.
func requireRowBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d dims, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: component %d = %v, want %v bit for bit", what, j, got[j], want[j])
		}
	}
}

func TestColumnPathErrors(t *testing.T) {
	e, err := NewEmbedder(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ColumnSignature(table.Column{Name: "x", Values: []float64{1}}); !errors.Is(err, ErrState) {
		t.Errorf("unfitted ColumnSignature: want ErrState, got %v", err)
	}
	if _, err := e.EmbedSignature(Signature{}); !errors.Is(err, ErrState) {
		t.Errorf("unfitted EmbedSignature: want ErrState, got %v", err)
	}
	if _, err := e.Fingerprint(); !errors.Is(err, ErrState) {
		t.Errorf("unfitted Fingerprint: want ErrState, got %v", err)
	}
	if err := e.Fit(smallCorpus()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ColumnSignature(table.Column{Name: "empty"}); !errors.Is(err, ErrInput) {
		t.Errorf("empty column: want ErrInput, got %v", err)
	}

	aeCfg := fastCfg()
	aeCfg.Features = Distributional | Statistical | Contextual
	aeCfg.Composition = AE
	aeCfg.HeaderDim = 16
	ae, err := NewEmbedder(aeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ae.Fit(smallCorpus()); err != nil {
		t.Fatal(err)
	}
	if _, err := ae.EmbedColumn(smallCorpus().Columns[0]); !errors.Is(err, ErrInput) {
		t.Errorf("AE composition: want ErrInput, got %v", err)
	}
}

func TestFingerprintStability(t *testing.T) {
	ds := smallCorpus()
	mk := func(cfg Config) *Embedder {
		e, err := NewEmbedder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Fit(ds); err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := mk(fastCfg())
	b := mk(fastCfg())
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("same config+corpus must fingerprint identically:\n  %s\n  %s", fa, fb)
	}

	// Workers must not matter: it is a host property, not an identity.
	wcfg := fastCfg()
	wcfg.Workers = 1
	fw, err := mk(wcfg).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fw != fa {
		t.Errorf("worker count changed the fingerprint")
	}

	// A different seed fits a different mixture.
	scfg := fastCfg()
	scfg.Seed = 777
	fs, err := mk(scfg).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fs == fa {
		t.Errorf("different mixture fingerprints collide")
	}

	// Save/Load must preserve the fingerprint (model and moments survive).
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEmbedder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fl != fa {
		t.Errorf("fingerprint changed across Save/Load:\n  %s\n  %s", fa, fl)
	}
}

// TestEmbedColumnAfterReload is the serve deployment mode end to end: fit,
// persist, load, and serve single columns bit-identically to the original
// embedder.
func TestEmbedColumnAfterReload(t *testing.T) {
	ds := smallCorpus()
	e, err := NewEmbedder(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(ds); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEmbedder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Moments() == nil {
		t.Fatal("moments not persisted")
	}
	for _, col := range ds.Columns[:3] {
		want, err := e.EmbedColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.EmbedColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("column %q component %d differs after reload", col.Name, j)
			}
		}
	}
}

// TestEmbedSignatureNoMoments covers loading a legacy file without frozen
// moments: statistical configs must fail with a clear state error instead
// of silently standardizing against nothing.
func TestEmbedSignatureNoMoments(t *testing.T) {
	ds := smallCorpus()
	e, err := NewEmbedder(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(ds); err != nil {
		t.Fatal(err)
	}
	e.moments = nil // simulate a legacy save file
	if _, err := e.EmbedColumn(ds.Columns[0]); !errors.Is(err, ErrState) {
		t.Errorf("missing moments: want ErrState, got %v", err)
	}
}
