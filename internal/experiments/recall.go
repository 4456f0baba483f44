package experiments

// Retrieval quality: every indexed vector is replayed as a query against an
// exact index (ann.Flat) and an approximate one (ann.HNSW). The exact scan
// defines ground truth, so the approximate numbers are true recall@k plus
// the speed bought by the graph. cmd/gemsearch's -recall mode, the
// similarity-search example and the repository BenchmarkSearch share this
// one implementation.

import (
	"fmt"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
)

// ReplayQueries runs every vector as a query against both indexes and
// returns mean recall@k plus the per-index wall-clock seconds. Each query
// is searched with k+1 so the query vector itself (assumed stored at its
// own position) can be excluded from its result.
func ReplayQueries(flat, approx ann.Index, vecs [][]float64, k int) (recall, flatSecs, approxSecs float64, err error) {
	exact, flatSecs, err := replay(flat, vecs, k)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%w: flat %v", ErrRun, err)
	}
	got, approxSecs, err := replay(approx, vecs, k)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%w: %v", ErrRun, err)
	}
	var total float64
	for i := range vecs {
		total += RecallAtK(exact[i], got[i], i, k)
	}
	return total / float64(len(vecs)), flatSecs, approxSecs, nil
}

// replay searches idx with every vector at depth k+1 and returns the result
// lists plus the wall-clock of the whole replay.
func replay(idx ann.Index, vecs [][]float64, k int) ([][]ann.Result, float64, error) {
	out := make([][]ann.Result, len(vecs))
	start := time.Now()
	for i, q := range vecs {
		var err error
		if out[i], err = idx.Search(q, k+1); err != nil {
			return nil, 0, fmt.Errorf("query %d: %v", i, err)
		}
	}
	return out, time.Since(start).Seconds(), nil
}

// RecallAtK compares an approximate result list against the exact one for
// query self (both searched with k+1 so the query column itself can be
// dropped) and returns |exact∩approx| / |exact| over the top k.
func RecallAtK(exact, approx []ann.Result, self, k int) float64 {
	trim := func(rs []ann.Result) []ann.Result {
		out := make([]ann.Result, 0, k)
		for _, r := range rs {
			if r.ID == self {
				continue
			}
			out = append(out, r)
			if len(out) == k {
				break
			}
		}
		return out
	}
	ex, ap := trim(exact), trim(approx)
	if len(ex) == 0 {
		return 1
	}
	ids := make(map[int]bool, len(ap))
	for _, r := range ap {
		ids[r.ID] = true
	}
	hit := 0
	for _, r := range ex {
		if ids[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(ex))
}
