// Package stats provides descriptive statistics for numeric column values:
// the seven statistical features Gem extracts from each column (unique count,
// mean, coefficient of variation, entropy, range, 10th and 90th percentile),
// plus the moments, ECDF and standardization utilities the baselines and the
// synthetic data generators need.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/gem-embeddings/gem/internal/mathx"
)

// ErrEmpty is returned when a statistic is requested over an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs using compensated summation.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	return mathx.KahanSum(xs) / float64(len(xs)), nil
}

// Variance returns the population variance of xs (divide by n).
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)), nil
}

// SampleVariance returns the unbiased sample variance of xs (divide by n-1).
// For a single observation it returns 0.
func SampleVariance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return math.NaN(), err
	}
	return math.Sqrt(v), nil
}

// Skewness returns the population skewness (third standardized moment).
// It returns 0 for constant samples.
func Skewness(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	m, _ := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0, nil
	}
	return m3 / math.Pow(m2, 1.5), nil
}

// Kurtosis returns the population excess kurtosis (fourth standardized moment
// minus 3). It returns 0 for constant samples.
func Kurtosis(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	m, _ := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	n := float64(len(xs))
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0, nil
	}
	return m4/(m2*m2) - 3, nil
}

// Min returns the smallest value in xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Range returns max(xs) - min(xs).
func Range(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	return hi - lo, nil
}

// CoefficientOfVariation returns stddev/|mean|. When the mean is zero it
// returns the standard deviation itself so the feature stays finite, which is
// the behaviour the Gem feature vector needs (a normalized dispersion proxy).
func CoefficientOfVariation(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	if m == 0 {
		return sd, nil
	}
	return sd / math.Abs(m), nil
}

// UniqueCount returns the number of distinct values in xs. NaN values are
// counted as a single distinct value.
func UniqueCount(xs []float64) int {
	seen := make(map[float64]struct{}, len(xs))
	nan := false
	for _, x := range xs {
		if math.IsNaN(x) {
			nan = true
			continue
		}
		seen[x] = struct{}{}
	}
	n := len(seen)
	if nan {
		n++
	}
	return n
}

// Percentile returns the p-th percentile of xs for p in [0, 100] using linear
// interpolation between closest ranks (the same convention as NumPy's
// default).
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for a sample that is already ascending (as
// sort.Float64s leaves it, NaNs first): no copy, no sort, so a caller that
// needs several percentiles — or already holds the sorted sample for another
// reason — pays for the order once.
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return math.NaN(), ErrEmpty
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN(), fmt.Errorf("stats: percentile %v outside [0, 100]", p)
	}
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// Entropy returns the Shannon entropy (in nats) of the empirical distribution
// of xs discretized into bins equal-width bins across [min, max]. A constant
// sample has zero entropy. bins must be positive.
func Entropy(xs []float64, bins int) (float64, error) {
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	return EntropyBetween(xs, lo, hi, bins)
}

// EntropyBetween is Entropy for a caller that already knows the sample's
// extremes lo = Min(xs) and hi = Max(xs). Up to 64 bins are counted on the
// stack.
func EntropyBetween(xs []float64, lo, hi float64, bins int) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	if bins <= 0 {
		return math.NaN(), fmt.Errorf("stats: entropy needs bins > 0, got %d", bins)
	}
	var stack [64]int
	counts := stack[:]
	if bins > len(stack) {
		counts = make([]int, bins)
	}
	counts = counts[:bins]
	fillHistogram(counts, xs, lo, hi)
	n := float64(len(xs))
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h, nil
}

// Histogram returns the counts of xs over bins equal-width bins spanning
// [min(xs), max(xs)]. The top edge is inclusive. A constant sample puts all
// mass in the first bin.
func Histogram(xs []float64, bins int) ([]int, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs bins > 0, got %d", bins)
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	counts := make([]int, bins)
	fillHistogram(counts, xs, lo, hi)
	return counts, nil
}

// fillHistogram adds xs to the zeroed counts: len(counts) equal-width bins
// spanning [lo, hi], top edge inclusive.
func fillHistogram(counts []int, xs []float64, lo, hi float64) {
	bins := len(counts)
	if lo == hi {
		counts[0] = len(xs)
		return
	}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		idx := int((x - lo) / w)
		if idx >= bins {
			idx = bins - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
}

// ECDF returns the empirical CDF of xs evaluated at x:
// the fraction of samples <= x.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF over xs.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// At returns the fraction of samples <= x.
func (e *ECDF) At(x float64) float64 {
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Sorted returns the underlying sorted sample (shared, do not mutate).
func (e *ECDF) Sorted() []float64 { return e.sorted }

// Len returns the number of samples behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// Standardize z-scores each coordinate of the rows in-place-free: it returns
// a new matrix where column j of the input has mean 0 and stddev 1 across
// rows. Zero-variance columns become all zeros. rows must be rectangular.
func Standardize(rows [][]float64) ([][]float64, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	width := len(rows[0])
	for i, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("stats: standardize row %d has %d values, want %d", i, len(r), width)
		}
	}
	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = make([]float64, width)
	}
	col := make([]float64, len(rows))
	for j := 0; j < width; j++ {
		for i := range rows {
			col[i] = rows[i][j]
		}
		m, _ := Mean(col)
		sd, _ := StdDev(col)
		for i := range rows {
			if sd == 0 {
				out[i][j] = 0
			} else {
				out[i][j] = (rows[i][j] - m) / sd
			}
		}
	}
	return out, nil
}

// L1Normalize scales v so that the sum of absolute values is 1 (Eq. 9 and 10
// of the paper). The zero vector is returned unchanged.
func L1Normalize(v []float64) []float64 {
	var norm float64
	for _, x := range v {
		norm += math.Abs(x)
	}
	out := make([]float64, len(v))
	if norm == 0 {
		copy(out, v)
		return out
	}
	for i, x := range v {
		out[i] = x / norm
	}
	return out
}

// L2Normalize scales v to unit Euclidean norm. The zero vector is returned
// unchanged.
func L2Normalize(v []float64) []float64 {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	out := make([]float64, len(v))
	if ss == 0 {
		copy(out, v)
		return out
	}
	norm := math.Sqrt(ss)
	for i, x := range v {
		out[i] = x / norm
	}
	return out
}
