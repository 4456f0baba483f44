package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/gem-embeddings/gem/internal/table"
)

// benchColumn is a serving-sized column: long enough that the GMM hot path
// dominates a miss, so the hit/miss ratio reflects production traffic.
func benchColumn(name string, n int, seed int64) table.Column {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = 40 + 9*rng.NormFloat64()
	}
	return table.Column{Name: name, Values: vs}
}

// BenchmarkServeCacheHit measures the cached path: content hash plus LRU
// lookup, no GMM work. Compare with BenchmarkServeCacheMiss — the
// acceptance bar is a >=10x gap in ns/op (measured ~100x or more at this
// column size).
func BenchmarkServeCacheHit(b *testing.B) {
	s := newTestServer(b, 0, Config{})
	col := benchColumn("hot", 2000, 1)
	if _, err := s.Embed(context.Background(), []table.Column{col}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Embed(context.Background(), []table.Column{col}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Hits != int64(b.N) {
		b.Fatalf("hits = %d, want %d", st.Hits, b.N)
	}
}

// BenchmarkServeCacheMiss measures the same column going through the full
// signature path every time (cache disabled).
func BenchmarkServeCacheMiss(b *testing.B) {
	s := newTestServer(b, 0, Config{CacheSize: -1})
	col := benchColumn("cold", 2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Embed(context.Background(), []table.Column{col}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Hits != 0 {
		b.Fatalf("cache disabled but hits = %d", st.Hits)
	}
}

// BenchmarkServeThroughput drives concurrent duplicate-heavy clients
// through the batcher — the serving analogue of the repo's parallel-EM
// benchmarks.
func BenchmarkServeThroughput(b *testing.B) {
	s := newTestServer(b, 0, Config{})
	pool := make([]table.Column, 16)
	for i := range pool {
		pool[i] = benchColumn("col", 2000, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			col := pool[i%len(pool)]
			if _, err := s.Embed(context.Background(), []table.Column{col}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// benchBody renders a request body of cols columns × n values, rounded to
// two decimals like catalog traffic.
func benchBody(single bool, cols, n int) []byte {
	var b bytes.Buffer
	if single {
		b.WriteString(`{"k":10,"column":`)
	} else {
		b.WriteString(`{"columns":[`)
	}
	for c := 0; c < cols; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"col_%d","values":[`, c)
		for i, v := range benchColumn("", n, int64(c)).Values {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(math.Round(v*100)/100, 'f', -1, 64))
		}
		b.WriteString("]}")
	}
	if !single {
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.Bytes()
}

// BenchmarkDecodeColumns measures decodeBody — the wire half of a cache
// miss — on a 100-value /search body and a 64 × 1000-value /embed body:
// MB/s of request text and allocations per body.
func BenchmarkDecodeColumns(b *testing.B) {
	s := newTestServer(b, 0, Config{})
	w := httptest.NewRecorder()
	run := func(name string, body []byte, decode func(r *http.Request) bool) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !decode(&http.Request{Body: io.NopCloser(bytes.NewReader(body))}) {
					b.Fatalf("body rejected: %s", w.Body)
				}
			}
		})
	}
	run("search-1x100", benchBody(true, 1, 100), func(r *http.Request) bool {
		var req searchRequest
		return s.decodeBody(w, r, &req) && len(req.Column.Values) == 100
	})
	run("embed-64x1000", benchBody(false, 64, 1000), func(r *http.Request) bool {
		var req embedRequest
		return s.decodeBody(w, r, &req) && len(req.Columns) == 64 && len(req.Columns[63].Values) == 1000
	})
}
