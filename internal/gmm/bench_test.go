package gmm

import (
	"math/rand"
	"slices"
	"testing"
)

var benchSink []float64

// BenchmarkMeanResponsibilities measures the signature kernel at the
// paper's K = 50 on an ascending column of 1000 distinct values drawn from
// the fitted sample's range. ns/pair is the cost of one (distinct value,
// component) pair — the log term, the exponential, the normalisation and
// the accumulation — with the column already sorted.
func BenchmarkMeanResponsibilities(b *testing.B) {
	const k, n = 50, 1000
	m, err := Fit(mixtureSample(5000, 50), Config{K: k, Restarts: 1, MaxIter: 30, Seed: 50})
	if err != nil {
		b.Fatal(err)
	}
	col := mixtureSample(n, 51)
	rng := rand.New(rand.NewSource(52))
	for i := range col {
		col[i] += 1e-9 * rng.Float64() // no two values alike
	}
	slices.Sort(col)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, err = m.MeanResponsibilities(col)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*k), "ns/pair")
}
