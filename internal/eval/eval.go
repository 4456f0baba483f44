// Package eval implements the evaluation protocol of the paper (§4.1.2):
// cosine-similarity nearest neighbours, precision and recall at k for
// semantic type detection (with k equal to the ground-truth cluster size),
// average precision aggregated per semantic type, and the clustering metrics
// ACC (accuracy under optimal Hungarian label matching) and ARI (adjusted
// Rand index).
package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/hungarian"
)

// ErrInput is returned for malformed metric inputs.
var ErrInput = errors.New("eval: invalid input")

// CosineSimilarity returns the cosine of the angle between a and b. Zero
// vectors have similarity 0 with everything. The arithmetic lives in
// internal/ann — the repository's single metric implementation — so eval
// and the search indexes can never drift apart.
func CosineSimilarity(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return math.NaN(), fmt.Errorf("%w: vector lengths %d vs %d", ErrInput, len(a), len(b))
	}
	return ann.CosineSimilarity(a, b), nil
}

// CosineSimilarityMatrix returns the full pairwise cosine similarity matrix
// of the embedding rows, built on the shared internal/ann metric kernels.
func CosineSimilarityMatrix(embeddings [][]float64) ([][]float64, error) {
	n := len(embeddings)
	if n == 0 {
		return nil, fmt.Errorf("%w: no embeddings", ErrInput)
	}
	d := len(embeddings[0])
	norms := make([]float64, n)
	for i, e := range embeddings {
		if len(e) != d {
			return nil, fmt.Errorf("%w: embedding %d has dim %d, want %d", ErrInput, i, len(e), d)
		}
		norms[i] = ann.Norm(e)
	}
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		sim[i][i] = 1
		for j := i + 1; j < n; j++ {
			var s float64
			if norms[i] > 0 && norms[j] > 0 {
				s = ann.Dot(embeddings[i], embeddings[j]) / (norms[i] * norms[j])
			}
			sim[i][j] = s
			sim[j][i] = s
		}
	}
	return sim, nil
}

// TopKNeighbors returns, for row i of the similarity matrix, the indices of
// the k most similar other rows (self excluded), most similar first. Ties are
// broken by lower index for determinism.
func TopKNeighbors(sim [][]float64, i, k int) ([]int, error) {
	n := len(sim)
	if i < 0 || i >= n {
		return nil, fmt.Errorf("%w: row %d outside [0, %d)", ErrInput, i, n)
	}
	if k < 0 {
		return nil, fmt.Errorf("%w: k = %d", ErrInput, k)
	}
	if k > n-1 {
		k = n - 1
	}
	idx := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			idx = append(idx, j)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if sim[i][idx[a]] != sim[i][idx[b]] {
			return sim[i][idx[a]] > sim[i][idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k], nil
}

// PRResult holds precision and recall at k for one query column.
type PRResult struct {
	Precision float64
	Recall    float64
	K         int
}

// PrecisionRecallAtK computes precision and recall for column i following the
// paper's protocol: k is the number of other columns sharing i's ground-truth
// label; the top-k cosine neighbours are retrieved; TP are neighbours with
// the same label.
func PrecisionRecallAtK(sim [][]float64, labels []string, i int) (PRResult, error) {
	n := len(sim)
	if len(labels) != n {
		return PRResult{}, fmt.Errorf("%w: %d labels for %d rows", ErrInput, len(labels), n)
	}
	if i < 0 || i >= n {
		return PRResult{}, fmt.Errorf("%w: row %d outside [0, %d)", ErrInput, i, n)
	}
	k := 0
	for j, l := range labels {
		if j != i && l == labels[i] {
			k++
		}
	}
	if k == 0 {
		// A singleton type has no relevant neighbours; define P = R = 0 so it
		// neither inflates nor crashes the aggregate.
		return PRResult{K: 0}, nil
	}
	neighbors, err := TopKNeighbors(sim, i, k)
	if err != nil {
		return PRResult{}, err
	}
	tp := 0
	for _, j := range neighbors {
		if labels[j] == labels[i] {
			tp++
		}
	}
	return PRResult{
		Precision: float64(tp) / float64(len(neighbors)),
		Recall:    float64(tp) / float64(k),
		K:         k,
	}, nil
}

// AveragePrecisionByType computes precision@k for every column, averages
// within each semantic type, and then averages across types (macro average).
// This matches the paper's "average precision score ... for each semantic
// type and then aggregate all the precisions".
func AveragePrecisionByType(embeddings [][]float64, labels []string) (float64, error) {
	sim, err := CosineSimilarityMatrix(embeddings)
	if err != nil {
		return math.NaN(), err
	}
	return AveragePrecisionByTypeFromSim(sim, labels)
}

// AveragePrecisionByTypeFromSim is AveragePrecisionByType for a precomputed
// similarity matrix.
func AveragePrecisionByTypeFromSim(sim [][]float64, labels []string) (float64, error) {
	return macroAverage(sim, labels, func(pr PRResult) float64 { return pr.Precision })
}

// AverageRecallByType is the recall analogue of AveragePrecisionByType.
func AverageRecallByType(embeddings [][]float64, labels []string) (float64, error) {
	sim, err := CosineSimilarityMatrix(embeddings)
	if err != nil {
		return math.NaN(), err
	}
	return macroAverage(sim, labels, func(pr PRResult) float64 { return pr.Recall })
}

// macroAverage averages score(PrecisionRecallAtK) within each semantic type
// that has at least two columns, then across those types. Types are summed
// in sorted-label order: a float sum depends on its order, and ranging over a
// map would move the result's last bit from one call to the next.
func macroAverage(sim [][]float64, labels []string, score func(PRResult) float64) (float64, error) {
	if len(labels) != len(sim) {
		return math.NaN(), fmt.Errorf("%w: %d labels for %d rows", ErrInput, len(labels), len(sim))
	}
	perType := make(map[string][]float64)
	for i := range sim {
		pr, err := PrecisionRecallAtK(sim, labels, i)
		if err != nil {
			return math.NaN(), err
		}
		if pr.K == 0 {
			continue // singleton type: undefined, skip
		}
		perType[labels[i]] = append(perType[labels[i]], score(pr))
	}
	if len(perType) == 0 {
		return math.NaN(), fmt.Errorf("%w: no type with at least two columns", ErrInput)
	}
	types := make([]string, 0, len(perType))
	for t := range perType {
		types = append(types, t)
	}
	sort.Strings(types)
	var total float64
	for _, t := range types {
		var s float64
		for _, v := range perType[t] {
			s += v
		}
		total += s / float64(len(perType[t]))
	}
	return total / float64(len(types)), nil
}

// ClusterACC returns clustering accuracy: the fraction of points whose
// predicted cluster, after the optimal one-to-one mapping of predicted
// clusters onto ground-truth classes (Hungarian algorithm), matches the
// ground truth. Ranges in [0, 1].
func ClusterACC(trueLabels []string, predicted []int) (float64, error) {
	n := len(trueLabels)
	if n == 0 || len(predicted) != n {
		return math.NaN(), fmt.Errorf("%w: %d true labels, %d predictions", ErrInput, n, len(predicted))
	}
	trueIdx := indexLabels(trueLabels)
	predIdx := indexInts(predicted)
	k := len(trueIdx)
	if len(predIdx) > k {
		k = len(predIdx)
	}
	// Contingency matrix as profit: w[p][t] = count of points in predicted
	// cluster p with true class t.
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
	}
	for i := 0; i < n; i++ {
		p := predIdx[predicted[i]]
		t := trueIdx[trueLabels[i]]
		w[p][t]++
	}
	_, total, err := hungarian.MaximizeProfit(w)
	if err != nil {
		return math.NaN(), err
	}
	return total / float64(n), nil
}

// AdjustedRandIndex returns the ARI between the ground-truth labels and the
// predicted clustering. 1 = identical partitions, ~0 = random, negative =
// worse than chance.
func AdjustedRandIndex(trueLabels []string, predicted []int) (float64, error) {
	n := len(trueLabels)
	if n == 0 || len(predicted) != n {
		return math.NaN(), fmt.Errorf("%w: %d true labels, %d predictions", ErrInput, n, len(predicted))
	}
	trueIdx := indexLabels(trueLabels)
	predIdx := indexInts(predicted)
	r := len(trueIdx)
	c := len(predIdx)
	cont := make([][]int, r)
	for i := range cont {
		cont[i] = make([]int, c)
	}
	rowSum := make([]int, r)
	colSum := make([]int, c)
	for i := 0; i < n; i++ {
		t := trueIdx[trueLabels[i]]
		p := predIdx[predicted[i]]
		cont[t][p]++
		rowSum[t]++
		colSum[p]++
	}
	choose2 := func(m int) float64 { return float64(m) * float64(m-1) / 2 }
	var sumComb, sumRows, sumCols float64
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			sumComb += choose2(cont[i][j])
		}
	}
	for _, s := range rowSum {
		sumRows += choose2(s)
	}
	for _, s := range colSum {
		sumCols += choose2(s)
	}
	totalPairs := choose2(n)
	expected := sumRows * sumCols / totalPairs
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		// Degenerate partitions (e.g. everything in one cluster on both
		// sides): define ARI as 1 when partitions agree exactly, else 0.
		if sumComb == maxIndex {
			return 1, nil
		}
		return 0, nil
	}
	return (sumComb - expected) / (maxIndex - expected), nil
}

// indexLabels maps each distinct string label to a dense index in first-seen
// order.
func indexLabels(labels []string) map[string]int {
	idx := make(map[string]int)
	for _, l := range labels {
		if _, ok := idx[l]; !ok {
			idx[l] = len(idx)
		}
	}
	return idx
}

// indexInts maps each distinct int label to a dense index in first-seen order.
func indexInts(labels []int) map[int]int {
	idx := make(map[int]int)
	for _, l := range labels {
		if _, ok := idx[l]; !ok {
			idx[l] = len(idx)
		}
	}
	return idx
}
