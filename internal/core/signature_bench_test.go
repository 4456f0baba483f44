package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/gem-embeddings/gem/internal/table"
)

// BenchmarkColumnSignature measures one column's signature — a sort, the
// mixture kernel once per distinct value, the seven features — at the
// distinct fractions traffic has: all-distinct, the ≈ 0.5 of 1000 values
// rounded to two decimals, a handful of levels, and a short column that
// hardly repeats. ns/value is the per-value cost a caller pays.
func BenchmarkColumnSignature(b *testing.B) {
	ds := smallCorpus()
	cfg := fastCfg()
	cfg.Components = 50
	cfg.Workers = 1
	e, err := NewEmbedder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Fit(ds); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		n        int
		distinct float64
	}{{1000, 1.0}, {1000, 0.5}, {1000, 0.05}, {100, 0.9}} {
		b.Run(fmt.Sprintf("n=%d/distinct=%.2f", tc.n, tc.distinct), func(b *testing.B) {
			// Draw the column from a pool of n·distinct corpus-scaled levels.
			rng := rand.New(rand.NewSource(5))
			src := ds.Columns[0].Values
			levels := make([]float64, int(float64(tc.n)*tc.distinct))
			for i := range levels {
				levels[i] = src[rng.Intn(len(src))] + rng.Float64()
			}
			col := table.Column{Name: "bench", Values: make([]float64, tc.n)}
			for i := range col.Values {
				col.Values[i] = levels[i%len(levels)]
			}
			rng.Shuffle(tc.n, func(a, c int) { col.Values[a], col.Values[c] = col.Values[c], col.Values[a] })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sig, err := e.ColumnSignature(col)
				if err != nil {
					b.Fatal(err)
				}
				if sig.Distinct != len(levels) {
					b.Fatalf("%d distinct values, want %d", sig.Distinct, len(levels))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tc.n), "ns/value")
		})
	}
}
