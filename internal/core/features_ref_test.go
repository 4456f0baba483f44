package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/gem-embeddings/gem/internal/stats"
)

// refStatisticalFeatures and refRawStatisticalFeatures are the feature
// bodies as they stood before the one-sort signature, kept verbatim as the
// reference: seven independent stats calls, each making its own passes,
// copies and sorts. The features are a function of the column's values, not
// of their order, so the reference is applied to the ascending copy.
func refStatisticalFeatures(values []float64, entropyBins int) ([]float64, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: empty column", ErrInput)
	}
	if entropyBins <= 0 {
		entropyBins = 20
	}
	mean, err := stats.Mean(values)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cv, _ := stats.CoefficientOfVariation(values)
	ent, _ := stats.Entropy(values, entropyBins)
	rng, _ := stats.Range(values)
	p10, _ := stats.Percentile(values, 10)
	p90, _ := stats.Percentile(values, 90)
	return []float64{
		slog(float64(stats.UniqueCount(values))),
		slog(mean),
		slog(cv),
		ent,
		slog(rng),
		slog(p10),
		slog(p90),
	}, nil
}

func refRawStatisticalFeatures(values []float64, entropyBins int) ([]float64, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: empty column", ErrInput)
	}
	if entropyBins <= 0 {
		entropyBins = 20
	}
	mean, err := stats.Mean(values)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cv, _ := stats.CoefficientOfVariation(values)
	ent, _ := stats.Entropy(values, entropyBins)
	rng, _ := stats.Range(values)
	p10, _ := stats.Percentile(values, 10)
	p90, _ := stats.Percentile(values, 90)
	return []float64{
		float64(stats.UniqueCount(values)),
		mean,
		cv,
		ent,
		rng,
		p10,
		p90,
	}, nil
}

// ascending is the reference's copy of col in ascending order: NaNs first
// and, among equal values, −0 before +0.
func ascending(col []float64) []float64 {
	asc := append([]float64(nil), col...)
	sort.SliceStable(asc, func(i, j int) bool {
		a, b := asc[i], asc[j]
		if a == b {
			return math.Signbit(a) && !math.Signbit(b)
		}
		return a < b || (math.IsNaN(a) && !math.IsNaN(b))
	})
	return asc
}

// sameFloat is bit equality, with every NaN equal to every other: which NaN
// payload an operation produces is the hardware's choice, not the code's.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// featureColumns are the inputs the one-sort features must reproduce the
// reference on, bit for bit: the degenerate sizes, signed zeros, non-finite
// members (sorting puts a NaN first wherever it stood), heavy repetition,
// and every input order.
func featureColumns() map[string][]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(1717))
	dup := make([]float64, 1000)
	for i := range dup {
		dup[i] = math.Round(100*(40+9*rng.NormFloat64())) / 100
	}
	few := make([]float64, 500)
	for i := range few {
		few[i] = float64(rng.Intn(7)) - 3
	}
	heavy := make([]float64, 300)
	for i := range heavy {
		heavy[i] = rng.NormFloat64() / (rng.Float64() + 0.01) * 1e6
	}
	asc := append([]float64(nil), dup...)
	sort.Float64s(asc)
	desc := make([]float64, len(asc))
	for i, v := range asc {
		desc[len(asc)-1-i] = v
	}
	return map[string][]float64{
		"n=1":              {42.5},
		"n=1 zero":         {0},
		"n=2":              {3, -1},
		"constant":         {7, 7, 7, 7, 7},
		"constant zero":    {0, 0, 0},
		"signed zeros":     {0, negZero, 0, negZero, negZero},
		"zeros and values": {negZero, 1, 0, -1, negZero, 1},
		"zero mean":        {-2, -1, 1, 2},
		"NaN first":        {nan, 1, 2, 3, 2},
		"NaN middle":       {1, 2, nan, 3, nan, 2},
		"NaN last":         {5, 4, 4, nan},
		"all NaN":          {nan, nan},
		"+Inf member":      {1, inf, 2, 2},
		"-Inf member":      {1, -inf, 2, 2},
		"both Infs":        {inf, 0, -inf},
		"Inf first":        {inf, 1, 1, 3},
		"NaN and Inf":      {1, inf, nan, -inf},
		"rounded shuffled": dup,
		"rounded asc":      asc,
		"rounded desc":     desc,
		"seven levels":     few,
		"heavy tail":       heavy,
		"huge magnitudes":  {1e308, -1e308, 1e308, 5e307},
		"denormals":        {5e-324, 0, 1e-320, 5e-324},
	}
}

// TestStatisticalFeaturesMatchReference asserts all seven features, raw and
// signed-log, equal the reference bit for bit on every column of
// featureColumns at several bin counts, including the ≤ 0 "use the default"
// ones.
func TestStatisticalFeaturesMatchReference(t *testing.T) {
	names := StatFeatureNames()
	for label, col := range featureColumns() {
		for _, bins := range []int{20, 1, 3, 64, 200, 0, -5} {
			for _, fn := range []struct {
				name     string
				got, ref func([]float64, int) ([]float64, error)
			}{
				{"log", StatisticalFeatures, refStatisticalFeatures},
				{"raw", RawStatisticalFeatures, refRawStatisticalFeatures},
			} {
				in := append([]float64(nil), col...)
				got, err := fn.got(in, bins)
				if err != nil {
					t.Fatalf("%s/%s bins=%d: %v", label, fn.name, bins, err)
				}
				want, err := fn.ref(ascending(col), bins)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d features, want %d", label, fn.name, len(got), len(want))
				}
				for j := range want {
					if !sameFloat(got[j], want[j]) {
						t.Errorf("%s/%s bins=%d: %s = %v (%#x), reference %v (%#x)", label, fn.name, bins,
							names[j], got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
				for i := range col {
					if !sameFloat(in[i], col[i]) {
						t.Fatalf("%s/%s: input value %d modified", label, fn.name, i)
					}
				}
			}
		}
	}
	for _, fn := range []func([]float64, int) ([]float64, error){StatisticalFeatures, RawStatisticalFeatures} {
		if _, err := fn(nil, 20); err == nil {
			t.Error("empty column accepted")
		}
	}
}
