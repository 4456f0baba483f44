package gmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gem-embeddings/gem/internal/mathx"
)

// mixtureSample draws n values from a known two-component mixture.
func mixtureSample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		if rng.Float64() < 0.4 {
			xs[i] = -5 + rng.NormFloat64()
		} else {
			xs[i] = 5 + 0.5*rng.NormFloat64()
		}
	}
	return xs
}

func TestFitRecoversTwoComponents(t *testing.T) {
	xs := mixtureSample(4000, 1)
	m, err := Fit(xs, Config{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Fatalf("K = %d, want 2", m.K())
	}
	// Components are sorted by mean: first ≈ -5, second ≈ +5.
	if math.Abs(m.Means[0]+5) > 0.2 || math.Abs(m.Means[1]-5) > 0.2 {
		t.Errorf("means = %v, want ≈ [-5, 5]", m.Means)
	}
	if math.Abs(m.Weights[0]-0.4) > 0.05 || math.Abs(m.Weights[1]-0.6) > 0.05 {
		t.Errorf("weights = %v, want ≈ [0.4, 0.6]", m.Weights)
	}
	if math.Abs(math.Sqrt(m.Variances[0])-1) > 0.15 {
		t.Errorf("sigma[0] = %v, want ≈ 1", math.Sqrt(m.Variances[0]))
	}
	if math.Abs(math.Sqrt(m.Variances[1])-0.5) > 0.1 {
		t.Errorf("sigma[1] = %v, want ≈ 0.5", math.Sqrt(m.Variances[1]))
	}
	if !m.Converged {
		t.Error("EM should converge on an easy mixture")
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, Config{K: 2}); !errors.Is(err, ErrInput) {
		t.Errorf("empty: want ErrInput, got %v", err)
	}
	if _, err := Fit([]float64{1, 2}, Config{K: 0}); !errors.Is(err, ErrInput) {
		t.Errorf("K=0: want ErrInput, got %v", err)
	}
	if _, err := Fit([]float64{1, math.NaN()}, Config{K: 1}); !errors.Is(err, ErrInput) {
		t.Errorf("NaN: want ErrInput, got %v", err)
	}
	if _, err := Fit([]float64{1, math.Inf(1)}, Config{K: 1}); !errors.Is(err, ErrInput) {
		t.Errorf("Inf: want ErrInput, got %v", err)
	}
}

func TestFitKGreaterThanNClamps(t *testing.T) {
	m, err := Fit([]float64{1, 2, 3}, Config{K: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() > 3 {
		t.Errorf("K = %d, want clamped to <= 3", m.K())
	}
}

func TestFitDeterministicWithSeed(t *testing.T) {
	xs := mixtureSample(500, 2)
	a, err := Fit(xs, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(xs, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Means {
		if a.Means[j] != b.Means[j] || a.Weights[j] != b.Weights[j] {
			t.Fatalf("same seed produced different models: %v vs %v", a.Means, b.Means)
		}
	}
}

func TestFitConstantSample(t *testing.T) {
	xs := []float64{7, 7, 7, 7, 7, 7}
	m, err := Fit(xs, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, mu := range m.Means {
		if math.Abs(mu-7) > 1e-6 {
			t.Errorf("constant sample mean = %v, want 7", mu)
		}
	}
	for _, v := range m.Variances {
		if v <= 0 {
			t.Errorf("variance must stay positive, got %v", v)
		}
	}
}

func TestWeightsSumToOne(t *testing.T) {
	xs := mixtureSample(800, 4)
	for _, k := range []int{1, 2, 5, 10} {
		m, err := Fit(xs, Config{K: k, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, w := range m.Weights {
			s += w
		}
		if !mathx.AlmostEqual(s, 1, 1e-9) {
			t.Errorf("K=%d: weights sum to %v", k, s)
		}
	}
}

func TestMeansSortedAscending(t *testing.T) {
	xs := mixtureSample(500, 6)
	m, err := Fit(xs, Config{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < m.K(); j++ {
		if m.Means[j] < m.Means[j-1] {
			t.Fatalf("means not sorted: %v", m.Means)
		}
	}
}

func TestResponsibilitiesSumToOneProperty(t *testing.T) {
	xs := mixtureSample(300, 7)
	m, err := Fit(xs, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) bool {
		x = math.Mod(x, 100)
		if math.IsNaN(x) {
			return true
		}
		r := m.Responsibilities(x)
		var s float64
		for _, v := range r {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
			s += v
		}
		return mathx.AlmostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResponsibilitiesFavorNearestComponent(t *testing.T) {
	xs := mixtureSample(2000, 8)
	m, err := Fit(xs, Config{K: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A point at -5 must be claimed by the low-mean component (index 0).
	r := m.Responsibilities(-5)
	if r[0] < 0.99 {
		t.Errorf("resp(-5) = %v, want component 0 dominant", r)
	}
	r = m.Responsibilities(5)
	if r[1] < 0.99 {
		t.Errorf("resp(5) = %v, want component 1 dominant", r)
	}
}

func TestMeanResponsibilities(t *testing.T) {
	xs := mixtureSample(2000, 9)
	m, err := Fit(xs, Config{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// A column drawn only from the low mode should average ≈ [1, 0].
	col := make([]float64, 200)
	rng := rand.New(rand.NewSource(10))
	for i := range col {
		col[i] = -5 + rng.NormFloat64()*0.5
	}
	mr, err := m.MeanResponsibilities(col)
	if err != nil {
		t.Fatal(err)
	}
	if mr[0] < 0.95 {
		t.Errorf("mean responsibilities = %v, want component 0 ≈ 1", mr)
	}
	var s float64
	for _, v := range mr {
		s += v
	}
	if !mathx.AlmostEqual(s, 1, 1e-9) {
		t.Errorf("mean responsibilities sum = %v, want 1", s)
	}
	if _, err := m.MeanResponsibilities(nil); !errors.Is(err, ErrInput) {
		t.Errorf("empty column: want ErrInput, got %v", err)
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	xs := mixtureSample(1000, 11)
	m, err := Fit(xs, Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi, steps = -30.0, 30.0, 60000
	h := (hi - lo) / steps
	var sum float64
	for i := 0; i <= steps; i++ {
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		sum += w * m.PDF(lo+float64(i)*h)
	}
	if math.Abs(sum*h-1) > 1e-3 {
		t.Errorf("mixture PDF integral = %v, want 1", sum*h)
	}
}

func TestLogPDFMatchesPDF(t *testing.T) {
	xs := mixtureSample(500, 12)
	m, err := Fit(xs, Config{K: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// PDF is the exponential of LogPDF; both are checked against the
	// mixture density summed component by component with math.Exp.
	for _, x := range []float64{-5, 0, 5, 2.3} {
		var want float64
		for j := range m.Weights {
			d := x - m.Means[j]
			want += m.Weights[j] * math.Exp(-d*d/(2*m.Variances[j])) / math.Sqrt(2*math.Pi*m.Variances[j])
		}
		if !mathx.AlmostEqual(math.Exp(m.LogPDF(x)), want, 1e-9) || !mathx.AlmostEqual(m.PDF(x), want, 1e-9) {
			t.Errorf("x=%v: exp(LogPDF) = %v, PDF = %v, direct sum %v", x, math.Exp(m.LogPDF(x)), m.PDF(x), want)
		}
	}
}

func TestScoreSamplesAndInformationCriteria(t *testing.T) {
	xs := mixtureSample(1000, 13)
	m, err := Fit(xs, Config{K: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// ScoreSamples on the training set should be close to the stored
	// training log-likelihood.
	if !mathx.AlmostEqual(m.ScoreSamples(xs), m.LogLikelihood, 1e-3) {
		t.Errorf("ScoreSamples = %v, LogLikelihood = %v", m.ScoreSamples(xs), m.LogLikelihood)
	}
	if m.NumParams() != 5 {
		t.Errorf("NumParams = %d, want 5 for K=2", m.NumParams())
	}
	if m.BIC() <= m.AIC() {
		// For n = 1000, log(n) > 2, so BIC penalty exceeds AIC penalty.
		t.Errorf("BIC (%v) should exceed AIC (%v) at n=1000", m.BIC(), m.AIC())
	}
}

func TestMoreComponentsNeverHurtLikelihoodMuch(t *testing.T) {
	xs := mixtureSample(800, 14)
	m1, err := Fit(xs, Config{K: 1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Fit(xs, Config{K: 4, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if m4.LogLikelihood < m1.LogLikelihood-1 {
		t.Errorf("K=4 logL %v much worse than K=1 %v", m4.LogLikelihood, m1.LogLikelihood)
	}
}

func TestSelectKPicksTwoForBimodal(t *testing.T) {
	xs := mixtureSample(1500, 15)
	best, bics, err := SelectK(xs, []int{1, 2, 3}, Config{Seed: 15, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bics[2] >= bics[1] {
		t.Errorf("BIC(2)=%v should beat BIC(1)=%v on bimodal data", bics[2], bics[1])
	}
	if best.K() < 2 {
		t.Errorf("SelectK picked K=%d, want >= 2", best.K())
	}
	if _, _, err := SelectK(xs, nil, Config{}); !errors.Is(err, ErrInput) {
		t.Errorf("no candidates: want ErrInput, got %v", err)
	}
}

func TestSampleRoundTrip(t *testing.T) {
	xs := mixtureSample(2000, 16)
	m, err := Fit(xs, Config{K: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	ys := m.Sample(4000, rng)
	m2, err := Fit(ys, Config{K: 2, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if math.Abs(m.Means[j]-m2.Means[j]) > 0.3 {
			t.Errorf("refit mean[%d] = %v, want ≈ %v", j, m2.Means[j], m.Means[j])
		}
	}
}

func TestInitRandomAlsoWorks(t *testing.T) {
	xs := mixtureSample(1000, 19)
	m, err := Fit(xs, Config{K: 2, Seed: 19, Init: InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Means[0]+5) > 0.5 || math.Abs(m.Means[1]-5) > 0.5 {
		t.Errorf("random init means = %v, want ≈ [-5, 5]", m.Means)
	}
}

func TestRestartsImproveLikelihood(t *testing.T) {
	xs := mixtureSample(600, 20)
	single, err := Fit(xs, Config{K: 4, Seed: 21, Restarts: 1, Init: InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Fit(xs, Config{K: 4, Seed: 21, Restarts: 10, Init: InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	if multi.LogLikelihood < single.LogLikelihood-1e-9 {
		t.Errorf("10 restarts logL %v < 1 restart %v", multi.LogLikelihood, single.LogLikelihood)
	}
}
