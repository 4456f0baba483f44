package ann

import (
	"fmt"
	"testing"

	"github.com/gem-embeddings/gem/internal/pool"
)

// benchCorpus is the shared benchmark workload: big enough that the scan
// and beam costs dominate, small enough to build quickly.
const (
	benchN   = 2000
	benchDim = 32
	benchK   = 10
)

func benchIndex(b *testing.B, kind string, prec Precision) Index {
	b.Helper()
	vecs := randomVectors(benchN, benchDim, 17)
	var idx Index
	switch kind {
	case "flat":
		f, err := NewFlatAt(Cosine, prec)
		if err != nil {
			b.Fatal(err)
		}
		idx = f
	case "hnsw":
		h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 17, Precision: prec}, pool.New(4))
		if err != nil {
			b.Fatal(err)
		}
		idx = h
	}
	if err := idx.Add(vecs...); err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkSearcherSearch measures the scratch-backed single-query path.
// The Flat rows must report 0 allocs/op at every precision — that is the
// Searcher contract, enforced as a test by TestSearcherZeroAllocFlat.
func BenchmarkSearcherSearch(b *testing.B) {
	qs := randomVectors(64, benchDim, 23)
	for _, kind := range []string{"flat", "hnsw"} {
		for _, prec := range allPrecisions {
			b.Run(kind+"/"+prec.String(), func(b *testing.B) {
				s, err := NewSearcher(benchIndex(b, kind, prec))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Search(qs[0], benchK); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Search(qs[i%len(qs)], benchK); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIndexSearch measures the copying Index.Search path for
// comparison with the Searcher: the difference is the copy-out cost.
func BenchmarkIndexSearch(b *testing.B) {
	qs := randomVectors(64, benchDim, 23)
	for _, kind := range []string{"flat", "hnsw"} {
		b.Run(kind, func(b *testing.B) {
			idx := benchIndex(b, kind, Float64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(qs[i%len(qs)], benchK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchBatch measures Index.SearchBatch across batch sizes and
// fan-out widths; allocs/op divided by the batch size is the per-query
// allocation cost of the batched path.
func BenchmarkSearchBatch(b *testing.B) {
	queries := randomVectors(256, benchDim, 29)
	for _, kind := range []string{"flat", "hnsw"} {
		for _, size := range []int{1, 16, 256} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/b%d/w%d", kind, size, workers)
				b.Run(name, func(b *testing.B) {
					idx := benchIndex(b, kind, Float64)
					setBenchPool(b, idx, pool.New(workers))
					qs := queries[:size]
					if _, err := idx.SearchBatch(qs, benchK); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := idx.SearchBatch(qs, benchK); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func setBenchPool(b *testing.B, idx Index, p *pool.Pool) {
	b.Helper()
	switch v := idx.(type) {
	case *Flat:
		v.SetPool(p)
	case *HNSW:
		v.SetPool(p)
	default:
		b.Fatalf("unknown index type %T", idx)
	}
}

// BenchmarkHNSWBuild measures graph construction — what every restart,
// compaction and POST /columns pays — on tightly clustered unit vectors at
// the served embedding width: one batched Add, single-vector Adds onto the
// built graph, and Rebuild with every 8th id tombstoned. allocs/op divided
// by the vectors per op is the build path's allocation cost per vector.
func BenchmarkHNSWBuild(b *testing.B) {
	const n, single, dim = 2048, 256, 57
	vecs := goldenVectors(n+single, dim, 41)
	build := func(b *testing.B) *HNSW {
		h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 17}, pool.New(1))
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Add(vecs[:n]...); err != nil {
			b.Fatal(err)
		}
		return h
	}
	perVec := func(b *testing.B, vectors int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vectors), "ns/vec")
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			build(b)
		}
		perVec(b, n)
	})
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := build(b)
			b.StartTimer()
			for _, v := range vecs[n:] {
				if err := h.Add(v); err != nil {
					b.Fatal(err)
				}
			}
		}
		perVec(b, single)
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := build(b)
			for id := 0; id < n; id += 8 {
				if err := h.Remove(id); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if _, err := h.Rebuild(); err != nil {
				b.Fatal(err)
			}
		}
		perVec(b, n-n/8)
	})
}
