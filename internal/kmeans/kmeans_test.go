package kmeans

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoBlobs returns two well-separated 2-D Gaussian blobs.
func twoBlobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, 0, 2*n)
	truth := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		pts = append(pts, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		truth = append(truth, 0)
	}
	for i := 0; i < n; i++ {
		pts = append(pts, []float64{10 + rng.NormFloat64()*0.3, 10 + rng.NormFloat64()*0.3})
		truth = append(truth, 1)
	}
	return pts, truth
}

func TestRunSeparatesBlobs(t *testing.T) {
	pts, truth := twoBlobs(50, 1)
	res, err := Run(pts, Config{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// All points in the same blob must share a cluster.
	if res.Assignments[0] == res.Assignments[len(pts)-1] {
		t.Fatal("blobs not separated")
	}
	for i, a := range res.Assignments {
		if a != res.Assignments[truth[i]*50] {
			t.Fatalf("point %d misassigned", i)
		}
	}
	if res.Inertia > 100 {
		t.Errorf("inertia = %v, expected small for tight blobs", res.Inertia)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{K: 1}); !errors.Is(err, ErrInput) {
		t.Errorf("empty: want ErrInput, got %v", err)
	}
	if _, err := Run([][]float64{{1}, {2}}, Config{K: 0}); !errors.Is(err, ErrInput) {
		t.Errorf("K=0: want ErrInput, got %v", err)
	}
	if _, err := Run([][]float64{{1}}, Config{K: 2}); !errors.Is(err, ErrInput) {
		t.Errorf("K>n: want ErrInput, got %v", err)
	}
	if _, err := Run([][]float64{{1, 2}, {1}}, Config{K: 1}); !errors.Is(err, ErrInput) {
		t.Errorf("ragged: want ErrInput, got %v", err)
	}
	if _, err := Run([][]float64{{}}, Config{K: 1}); !errors.Is(err, ErrInput) {
		t.Errorf("zero-dim: want ErrInput, got %v", err)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	pts, _ := twoBlobs(30, 2)
	a, err := Run(pts, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pts, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Errorf("same seed gave different inertia: %v vs %v", a.Inertia, b.Inertia)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("same seed gave different assignment at %d", i)
		}
	}
}

func TestRunKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {5}, {10}}
	res, err := Run(pts, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("K = n should have zero inertia, got %v", res.Inertia)
	}
	seen := map[int]bool{}
	for _, a := range res.Assignments {
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Errorf("K = n should use all clusters, got %v", res.Assignments)
	}
}

func TestRunSingleCluster(t *testing.T) {
	pts := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	res, err := Run(pts, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-2) > 1e-9 || math.Abs(res.Centroids[0][1]-2) > 1e-9 {
		t.Errorf("single centroid = %v, want (2,2)", res.Centroids[0])
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	pts := [][]float64{{4, 4}, {4, 4}, {4, 4}, {4, 4}}
	res, err := Run(pts, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("identical points: inertia = %v, want 0", res.Inertia)
	}
}

func TestRestartsImproveOrEqual(t *testing.T) {
	pts, _ := twoBlobs(40, 5)
	single, err := Run(pts, Config{K: 4, Seed: 11, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(pts, Config{K: 4, Seed: 11, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Inertia > single.Inertia+1e-9 {
		t.Errorf("more restarts worsened inertia: %v > %v", multi.Inertia, single.Inertia)
	}
}

func TestInertiaNonIncreasingInKProperty(t *testing.T) {
	pts, _ := twoBlobs(25, 9)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := Run(pts, Config{K: k, Seed: 13, Restarts: 6})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.05 { // small slack: Lloyd is a local optimizer
			t.Errorf("K=%d inertia %v > K=%d inertia %v", k, res.Inertia, k-1, prev)
		}
		prev = res.Inertia
	}
}

func TestAssignmentsAreNearestCentroidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		k := 1 + rng.Intn(4)
		res, err := Run(pts, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, cent := range res.Centroids {
				d0 := p[0] - cent[0]
				d1 := p[1] - cent[1]
				dd := d0*d0 + d1*d1
				if dd < bestD {
					bestD = dd
					best = c
				}
			}
			cent := res.Centroids[res.Assignments[i]]
			d0 := p[0] - cent[0]
			d1 := p[1] - cent[1]
			if d0*d0+d1*d1 > bestD+1e-9 {
				_ = best
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAssign(t *testing.T) {
	centroids := [][]float64{{0, 0}, {10, 10}}
	pts := [][]float64{{1, 1}, {9, 9}, {-2, 0}}
	got, err := Assign(pts, centroids)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Assign = %v, want %v", got, want)
			break
		}
	}
	if _, err := Assign(nil, centroids); !errors.Is(err, ErrInput) {
		t.Errorf("empty points: want ErrInput, got %v", err)
	}
	if _, err := Assign([][]float64{{1}}, centroids); !errors.Is(err, ErrInput) {
		t.Errorf("dim mismatch: want ErrInput, got %v", err)
	}
}

// seedPlusPlusRef is the k-means++ seeding as first written: every pick
// rescans each point against every chosen centroid, O(n·K²·d). It is the
// reference seedPlusPlus's running minimum must match bit for bit.
func seedPlusPlusRef(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	d := len(points[0])
	centroids := make([][]float64, 0, k)
	first := append(make([]float64, 0, d), points[rng.Intn(len(points))]...)
	centroids = append(centroids, first)

	dists := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			dd := math.Inf(1)
			for _, c := range centroids {
				if v := sqDist(p, c); v < dd {
					dd = v
				}
			}
			dists[i] = dd
			total += dd
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(len(points))
		} else {
			target := rng.Float64() * total
			var cum float64
			for i, dd := range dists {
				cum += dd
				if cum >= target {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, append(make([]float64, 0, d), points[idx]...))
	}
	return centroids
}

// TestSeedPlusPlusMatchesReference pins the running-minimum seeding to the
// full rescan: identical centroids and an identical random stream afterwards,
// over seeds, K values and inputs that include duplicate points and the
// all-coincident (total == 0) branch.
func TestSeedPlusPlusMatchesReference(t *testing.T) {
	blobs, _ := twoBlobs(60, 3)
	dupes := make([][]float64, 0, 90)
	for i := 0; i < 90; i++ {
		dupes = append(dupes, []float64{float64(i % 4), float64(i % 3), 1})
	}
	wide := make([][]float64, 200)
	grng := rand.New(rand.NewSource(9))
	for i := range wide {
		wide[i] = make([]float64, 7)
		for j := range wide[i] {
			wide[i][j] = grng.NormFloat64() * float64(j+1)
		}
	}
	inputs := map[string][][]float64{
		"blobs":     blobs,
		"dupes":     dupes,
		"identical": {{4, 4}, {4, 4}, {4, 4}, {4, 4}, {4, 4}},
		"wide":      wide,
	}
	for name, pts := range inputs {
		for _, k := range []int{1, 2, 3, 5, 12, 40} {
			if k > len(pts) {
				continue
			}
			for seed := int64(0); seed < 8; seed++ {
				ra := rand.New(rand.NewSource(seed))
				rb := rand.New(rand.NewSource(seed))
				got, want := seedPlusPlus(pts, k, ra), seedPlusPlusRef(pts, k, rb)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d seed=%d: %d centroids, want %d", name, k, seed, len(got), len(want))
				}
				for c := range want {
					for j := range want[c] {
						if math.Float64bits(got[c][j]) != math.Float64bits(want[c][j]) {
							t.Fatalf("%s k=%d seed=%d: centroid %d = %v, want %v", name, k, seed, c, got[c], want[c])
						}
					}
				}
				if a, b := ra.Int63(), rb.Int63(); a != b {
					t.Fatalf("%s k=%d seed=%d: random stream diverged after seeding", name, k, seed)
				}
			}
		}
	}
}
