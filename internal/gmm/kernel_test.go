package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/gem-embeddings/gem/internal/mathx"
)

// rowMax is the largest entry of row, −Inf when none exceeds −Inf (a NaN
// entry is never the maximum): the shift logTerms returns beside the row.
func rowMax(row []float64) float64 {
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// twoExpSoftmax is the form softmax replaced — log-sum-exp, then a second
// exponential per entry — kept as the reference the kernel is checked
// against, on the same portable exp.
func twoExpSoftmax(row []float64) ([]float64, float64) {
	lse := rowMax(row)
	if !math.IsInf(lse, -1) {
		var sum float64
		for _, v := range row {
			sum += mathx.Exp(v - lse)
		}
		lse += math.Log(sum)
	}
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = mathx.Exp(v - lse)
	}
	return out, lse
}

// softmaxRows are log-term rows at the extremes of what an E-step sees,
// followed by random ones.
func softmaxRows() map[string][]float64 {
	rows := map[string][]float64{
		"k=1":            {-3.25},
		"all-equal":      {-7, -7, -7, -7, -7},
		"one-dominant":   {-900, -2, -1200, -1e6, -850},
		"700-nats-apart": {-1, -701, -1401, -2101},
		"denormal-tail":  {0, -720, -744, -745.5, -800},
		"with--Inf":      {math.Inf(-1), -4, math.Inf(-1), -5},
		"large-positive": {800, 799, 100},
	}
	rng := rand.New(rand.NewSource(17))
	for t := 0; t < 50; t++ {
		row := make([]float64, 1+rng.Intn(60))
		scale := math.Pow(10, 3*rng.Float64())
		for j := range row {
			row[j] = -scale * rng.ExpFloat64()
		}
		rows[fmt.Sprintf("random-%d", t)] = row
	}
	return rows
}

// TestSoftmaxMatchesTwoExpForm pins the kernel against the form it
// replaced: the same responsibilities within 1e-15 plus the rounding the
// two-exp form itself carries (exp(v − lse) inherits the ulp of lse as a
// relative error; dividing by the sum does not), rows that sum to 1 within
// a few ulp per entry, and the log-likelihood term bit for bit.
func TestSoftmaxMatchesTwoExpForm(t *testing.T) {
	for name, row := range softmaxRows() {
		want, wantLSE := twoExpSoftmax(row)
		got := append([]float64(nil), row...)
		lse := softmax(got, rowMax(got))
		if math.Float64bits(lse) != math.Float64bits(wantLSE) {
			t.Errorf("%s: log-sum-exp %v, want %v bit for bit", name, lse, wantLSE)
		}
		var sum float64
		tol := 1e-15 + math.Abs(lse)*0x1p-52
		for j := range got {
			if math.Abs(got[j]-want[j]) > tol {
				t.Errorf("%s: entry %d = %v, two-exp form %v", name, j, got[j], want[j])
			}
			sum += got[j]
		}
		if tol := 4 * float64(len(row)) * 0x1p-53; math.Abs(sum-1) > tol {
			t.Errorf("%s: row sums to %v, want 1 within %g", name, sum, tol)
		}
	}
}

// TestExpUnderflowCutoff pins the fact the softmax's skipped exponentials
// rest on: a component more than 745.14 nats below the row maximum gets a
// responsibility of exactly 0, whether its exp is computed or skipped.
func TestExpUnderflowCutoff(t *testing.T) {
	for _, d := range []float64{-745.14, -745.5, -746, -746.5, -1e6} {
		if got := mathx.Exp(d); got != 0 {
			t.Fatalf("mathx.Exp(%v) = %v, want exactly 0", d, got)
		}
	}
	row := []float64{-3, -748.14, -748.5, -749, -749.5, -1e6}
	softmax(row, rowMax(row))
	want := []float64{1, 0, 0, 0, 0, 0}
	requireSameBits(t, "responsibilities", row, want)
}

// TestSoftmaxNonFiniteRows pins the two degenerate rows: a NaN entry
// poisons the returned log-likelihood (the restart-abandon signal), and a
// row without a finite entry returns −Inf with NaN responsibilities, as
// the two-exp form did.
func TestSoftmaxNonFiniteRows(t *testing.T) {
	nan, ninf := math.NaN(), math.Inf(-1)
	for name, row := range map[string][]float64{
		"one-NaN":   {-1, nan, -3},
		"first-NaN": {nan, -2},
		"all-NaN":   {nan, nan},
		"NaN+-Inf":  {ninf, nan},
	} {
		if lse := softmax(row, rowMax(row)); !math.IsNaN(lse) {
			t.Errorf("%s: returned %v, want NaN", name, lse)
		}
	}
	row := []float64{ninf, ninf, ninf}
	want, wantLSE := twoExpSoftmax(row)
	if lse := softmax(row, rowMax(row)); lse != wantLSE || !math.IsInf(lse, -1) {
		t.Errorf("all -Inf: returned %v, want -Inf", lse)
	}
	for j := range row {
		if !math.IsNaN(row[j]) || !math.IsNaN(want[j]) {
			t.Errorf("all -Inf: entry %d = %v (two-exp form %v), want NaN", j, row[j], want[j])
		}
	}
}

// TestTrainingAndInferenceResponsibilitiesIdentical walks a column through
// the E-step's arithmetic — folded constants, logTerms into the row,
// softmax in place — and requires each row to equal
// Responsibilities(x) bit for bit and its log-likelihood term to equal
// LogPDF(x).
func TestTrainingAndInferenceResponsibilitiesIdentical(t *testing.T) {
	m, col := kernelModelAndColumn(t)
	k := m.K()
	c1, c2 := make([]float64, k), make([]float64, k)
	m.foldedConstants(c1, c2)
	row := make([]float64, k)
	for _, x := range col {
		ll := softmax(row, logTerms(x, m.Means, c1, c2, row))
		if want := m.LogPDF(x); math.Float64bits(ll) != math.Float64bits(want) {
			t.Fatalf("x=%v: E-step log-likelihood %v, LogPDF %v", x, ll, want)
		}
		for j, r := range m.Responsibilities(x) {
			if math.Float64bits(r) != math.Float64bits(row[j]) {
				t.Fatalf("x=%v component %d: E-step %v, Responsibilities %v", x, j, row[j], r)
			}
		}
	}
}

// kernelModelAndColumn is a small fitted mixture and a column with
// far-flung values, signed zeros and every value of its first half
// repeated one to three more times, out of order.
func kernelModelAndColumn(t *testing.T) (*Model, []float64) {
	t.Helper()
	m, err := Fit(mixtureSample(3000, 71), Config{K: 7, Restarts: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	col := append(mixtureSample(400, 72), -1e4, 1e4, 0, math.Copysign(0, -1), 0)
	for i := 0; i < 200; i++ {
		for c := 0; c <= i%3; c++ {
			col = append(col, col[i])
		}
	}
	rand.New(rand.NewSource(74)).Shuffle(len(col), func(a, b int) { col[a], col[b] = col[b], col[a] })
	return m, col
}

// requireSameBits fails unless got and want agree bit for bit.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: component %d = %v, want %v bit for bit", what, j, got[j], want[j])
		}
	}
}

// TestMeanResponsibilitiesIsCountWeightedMeanOverDistinct is the kernel's
// specification: the count-weighted mean of Responsibilities over the
// sorted distinct values of the column, bit for bit.
func TestMeanResponsibilitiesIsCountWeightedMeanOverDistinct(t *testing.T) {
	m, col := kernelModelAndColumn(t)
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	want := make([]float64, m.K())
	distinct := 0
	for i := 0; i < len(sorted); {
		run := i
		for run < len(sorted) && sorted[run] == sorted[i] {
			run++
		}
		for j, r := range m.Responsibilities(sorted[i]) {
			want[j] += float64(float64(run-i) * r)
		}
		distinct++
		i = run
	}
	if distinct >= len(col)*3/4 || distinct < 400 {
		t.Fatalf("column has %d distinct of %d values; the test wants heavy repetition", distinct, len(col))
	}
	for j := range want {
		want[j] *= 1 / float64(len(col))
	}
	before := append([]float64(nil), col...)
	got, err := m.MeanResponsibilities(col)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "unsorted column", got, want)
	requireSameBits(t, "argument after the call", col, before)
	got, err = m.MeanResponsibilities(sorted)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "ascending column", got, want)
}

// TestMeanResponsibilitiesAllDistinctAscendingIsInOrderMean ties the kernel
// to the form it replaced: on an ascending column without repeats every run
// has length one, and the result is the in-order mean of the rows.
func TestMeanResponsibilitiesAllDistinctAscendingIsInOrderMean(t *testing.T) {
	m, col := kernelModelAndColumn(t)
	sort.Float64s(col)
	distinct := col[:1]
	for _, x := range col[1:] {
		if x != distinct[len(distinct)-1] {
			distinct = append(distinct, x)
		}
	}
	mean := make([]float64, m.K())
	for _, x := range distinct {
		for j, r := range m.Responsibilities(x) {
			mean[j] += r
		}
	}
	for j := range mean {
		mean[j] *= 1 / float64(len(distinct))
	}
	got, err := m.MeanResponsibilities(distinct)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "all-distinct ascending column", got, mean)
}

// TestMeanResponsibilitiesOrderFree shuffles a duplicated column 200 times:
// the result may not move by a bit.
func TestMeanResponsibilitiesOrderFree(t *testing.T) {
	m, col := kernelModelAndColumn(t)
	want, err := m.MeanResponsibilities(col)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(75))
	for s := 0; s < 200; s++ {
		rng.Shuffle(len(col), func(a, b int) { col[a], col[b] = col[b], col[a] })
		got, err := m.MeanResponsibilities(col)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("shuffle %d", s), got, want)
	}
}

// TestMeanResponsibilitiesNaNPoisons pins the non-finite contract: a NaN
// anywhere in the column is its own run and makes every entry NaN.
func TestMeanResponsibilitiesNaNPoisons(t *testing.T) {
	m, _ := kernelModelAndColumn(t)
	for _, col := range [][]float64{
		{math.NaN()},
		{1, 2, math.NaN(), 2},
		{math.NaN(), math.NaN(), 1},
	} {
		got, err := m.MeanResponsibilities(col)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range got {
			if !math.IsNaN(v) {
				t.Errorf("%v: component %d = %v, want NaN", col, j, v)
			}
		}
	}
}

// TestNaNAbandonsRestart drives emLoop directly (FitWithStats rejects
// non-finite samples up front): a NaN reaching the E-step, from the data or
// from a parameter, must surface as a NaN log-likelihood and abandon the
// restart rather than iterate on a poisoned model.
func TestNaNAbandonsRestart(t *testing.T) {
	start := func() *Model {
		return &Model{Weights: []float64{0.5, 0.5}, Means: []float64{-5, 5}, Variances: []float64{1, 1}}
	}
	cfg := Config{K: 2}
	cfg.fillDefaults()

	xs := mixtureSample(300, 73)
	xs[150] = math.NaN()
	if m, tel := emLoop(xs, start(), cfg, 1e-8); m != nil || tel.iterations != 1 {
		t.Errorf("NaN value: model %v after %d iterations, want abandoned after 1", m, tel.iterations)
	}

	init := start()
	init.Means[1] = math.NaN()
	if m, tel := emLoop(mixtureSample(300, 73), init, cfg, 1e-8); m != nil || tel.iterations != 1 {
		t.Errorf("NaN mean: model %v after %d iterations, want abandoned after 1", m, tel.iterations)
	}
}
