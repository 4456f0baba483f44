package ann

import (
	"testing"

	"github.com/gem-embeddings/gem/internal/pool"
)

// TestHNSWRecallVsFlat pins the quality bar of the approximate index: on
// 1000 clustered vectors, recall@10 against the exact scan must reach 0.95
// under both metrics (the embedding-space version of this check is the root
// package's TestDefaultConstructionBeamRecall).
func TestHNSWRecallVsFlat(t *testing.T) {
	const (
		n, dim, k = 1000, 24, 10
		queries   = 200
	)
	vecs := randomVectors(n, dim, 7)
	qs := randomVectors(queries, dim, 8)
	for _, metric := range []Metric{Cosine, Euclidean} {
		t.Run(metric.String(), func(t *testing.T) {
			flat := NewFlat(metric)
			if err := flat.Add(vecs...); err != nil {
				t.Fatal(err)
			}
			h, err := NewHNSW(HNSWConfig{Metric: metric, Seed: 1}, pool.New(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Add(vecs...); err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, q := range qs {
				exact, err := flat.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				approx, err := h.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				total += recallAt(exact, approx)
			}
			recall := total / queries
			if recall < 0.95 {
				t.Errorf("recall@%d = %.4f, want >= 0.95", k, recall)
			}
		})
	}
}

// TestHNSWSmallIndexExhaustive: with EfSearch >= n and a connected graph
// the beam search degenerates to an exact scan, so every query must match
// Flat exactly, including distances and tie order.
func TestHNSWSmallIndexExhaustive(t *testing.T) {
	const n, dim, k = 200, 16, 10
	vecs := randomVectors(n, dim, 3)
	flat := NewFlat(Cosine)
	h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 2, EfSearch: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Add(vecs...); err != nil {
		t.Fatal(err)
	}
	if err := h.Add(vecs...); err != nil {
		t.Fatal(err)
	}
	for qi, q := range randomVectors(50, dim, 4) {
		exact, err := flat.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := h.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) != len(approx) {
			t.Fatalf("query %d: %d vs %d results", qi, len(approx), len(exact))
		}
		for i := range exact {
			if exact[i] != approx[i] {
				t.Fatalf("query %d rank %d: hnsw %+v, flat %+v", qi, i, approx[i], exact[i])
			}
		}
	}
}

// TestHNSWIncrementalAdd verifies that vectors added across several Add
// calls are all retrievable.
func TestHNSWIncrementalAdd(t *testing.T) {
	vecs := randomVectors(300, 8, 11)
	h, err := NewHNSW(HNSWConfig{Metric: Euclidean, Seed: 5, EfSearch: 300, BatchSize: 7}, pool.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(vecs); i += 50 {
		if err := h.Add(vecs[i : i+50]...); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 300 {
		t.Fatalf("Len = %d, want 300", h.Len())
	}
	// Each stored vector must find itself as its own nearest neighbour.
	for i, v := range vecs {
		res, err := h.Search(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Dist > 1e-12 {
			t.Fatalf("vector %d: self-search = %+v", i, res)
		}
	}
}

// TestHNSWDuplicateVectors: heavy duplication (identical columns are
// common in real catalogs) must neither break construction nor tie order.
func TestHNSWDuplicateVectors(t *testing.T) {
	h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 9, EfSearch: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var vecs [][]float64
	for i := 0; i < 60; i++ {
		vecs = append(vecs, []float64{1, 2, 3})
	}
	vecs = append(vecs, []float64{-1, 2, 0.5})
	if err := h.Add(vecs...); err != nil {
		t.Fatal(err)
	}
	res, err := h.Search([]float64{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2, 3, 4} {
		if res[i].ID != want {
			t.Fatalf("duplicate tie order = %+v, want ids 0..4", res)
		}
	}
}

func TestHNSWConfigValidation(t *testing.T) {
	if _, err := NewHNSW(HNSWConfig{M: 1}, nil); err == nil {
		t.Error("M=1 accepted, want error")
	}
	h, err := NewHNSW(HNSWConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	if cfg.M != 16 || cfg.EfConstruction != 48 || cfg.EfSearch != 32 || cfg.BatchSize != 64 {
		t.Errorf("defaults = %+v", cfg)
	}
	// The default beams follow M; explicit ones are kept.
	for _, c := range []struct{ m, efc, efs, wantEfc, wantEfs int }{
		{4, 0, 0, 12, 8}, {32, 0, 0, 96, 64}, {16, 200, 100, 200, 100}, {32, 20, 10, 20, 10},
	} {
		h, err := NewHNSW(HNSWConfig{M: c.m, EfConstruction: c.efc, EfSearch: c.efs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Config(); got.EfConstruction != c.wantEfc || got.EfSearch != c.wantEfs {
			t.Errorf("M=%d EfConstruction=%d EfSearch=%d: effective beams %d / %d, want %d / %d",
				c.m, c.efc, c.efs, got.EfConstruction, got.EfSearch, c.wantEfc, c.wantEfs)
		}
	}
}

// TestHNSWSetEfSearch: the query-time beam width is adjustable after
// construction (and after Load); non-positive values are ignored.
func TestHNSWSetEfSearch(t *testing.T) {
	h, err := NewHNSW(HNSWConfig{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.SetEfSearch(512)
	if got := h.Config().EfSearch; got != 512 {
		t.Errorf("EfSearch = %d, want 512", got)
	}
	h.SetEfSearch(0)
	h.SetEfSearch(-3)
	if got := h.Config().EfSearch; got != 512 {
		t.Errorf("EfSearch after ignored sets = %d, want 512", got)
	}
}
