// Package kmeans implements Lloyd's algorithm with k-means++ seeding for
// d-dimensional data. It serves two roles in the Gem reproduction: seeding
// the EM algorithm for the Gaussian mixture model (cluster means become
// initial component means) and initializing the cluster centroids of the
// deep-clustering models (SDCN, TableDC) before their self-supervised
// refinement, as the original methods do.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrInput is returned for invalid clustering inputs.
var ErrInput = errors.New("kmeans: invalid input")

// Result holds the output of a k-means run.
type Result struct {
	// Centroids are the final cluster centers, one row per cluster.
	Centroids [][]float64
	// Assignments maps each input point to its cluster index.
	Assignments []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Config controls a k-means run.
type Config struct {
	// K is the number of clusters (required, >= 1).
	K int
	// MaxIter caps Lloyd iterations. Default 100.
	MaxIter int
	// Tol stops iteration when inertia improves by less than Tol relatively.
	// Default 1e-6.
	Tol float64
	// Restarts runs the whole algorithm this many times with different seeds
	// and keeps the best inertia. Default 1.
	Restarts int
	// Seed makes the run deterministic.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.Restarts <= 0 {
		c.Restarts = 1
	}
}

// Run clusters points into cfg.K clusters. Points must be non-empty and
// rectangular, and K must not exceed the number of points.
func Run(points [][]float64, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: no points", ErrInput)
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional points", ErrInput)
	}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrInput, i, len(p), d)
		}
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: K = %d", ErrInput, cfg.K)
	}
	if cfg.K > len(points) {
		return nil, fmt.Errorf("%w: K = %d > %d points", ErrInput, cfg.K, len(points))
	}
	cfg.fillDefaults()

	var best *Result
	for r := 0; r < cfg.Restarts; r++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
		res := runOnce(points, cfg, rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func runOnce(points [][]float64, cfg Config, rng *rand.Rand) *Result {
	d := len(points[0])
	centroids := seedPlusPlus(points, cfg.K, rng)
	assignments := make([]int, len(points))
	prevInertia := math.Inf(1)
	iterations := 0

	for iter := 0; iter < cfg.MaxIter; iter++ {
		iterations = iter + 1
		// Assignment step.
		var inertia float64
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				dd := sqDist(p, cent)
				if dd < bestD {
					bestD = dd
					bestC = c
				}
			}
			assignments[i] = bestC
			inertia += bestD
		}
		// Update step.
		counts := make([]int, cfg.K)
		sums := make([][]float64, cfg.K)
		for c := range sums {
			sums[c] = make([]float64, d)
		}
		for i, p := range points {
			c := assignments[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to keep K clusters alive.
				far, farD := 0, -1.0
				for i, p := range points {
					dd := sqDist(p, centroids[assignments[i]])
					if dd > farD {
						farD = dd
						far = i
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		if prevInertia-inertia <= cfg.Tol*math.Max(prevInertia, 1) {
			prevInertia = inertia
			break
		}
		prevInertia = inertia
	}

	// Final assignment with the final centroids.
	var inertia float64
	for i, p := range points {
		bestC, bestD := 0, math.Inf(1)
		for c, cent := range centroids {
			dd := sqDist(p, cent)
			if dd < bestD {
				bestD = dd
				bestC = c
			}
		}
		assignments[i] = bestC
		inertia += bestD
	}
	return &Result{
		Centroids:   centroids,
		Assignments: assignments,
		Inertia:     inertia,
		Iterations:  iterations,
	}
}

// seedPlusPlus picks K initial centroids by the k-means++ scheme: the first
// uniformly, each next proportional to squared distance from the nearest
// chosen centroid.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	d := len(points[0])
	centroids := make([][]float64, 0, k)
	first := append(make([]float64, 0, d), points[rng.Intn(len(points))]...)
	centroids = append(centroids, first)

	// dists[i] is point i's squared distance to its nearest chosen centroid,
	// kept as a running minimum: each pick compares every point against the
	// newest centroid only, O(n·K·d) in all. A minimum over the same floats
	// does not depend on the order they arrive in, so the picks are the ones
	// a full rescan against every centroid would make.
	dists := make([]float64, len(points))
	for i := range dists {
		dists[i] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		var total float64
		for i, p := range points {
			if v := sqDist(p, newest); v < dists[i] {
				dists[i] = v
			}
			total += dists[i]
		}
		var idx int
		if total == 0 {
			// All points coincide with existing centroids; pick uniformly.
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

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Assign returns the index of the nearest centroid for each point.
func Assign(points, centroids [][]float64) ([]int, error) {
	if len(points) == 0 || len(centroids) == 0 {
		return nil, fmt.Errorf("%w: empty points or centroids", ErrInput)
	}
	d := len(centroids[0])
	out := make([]int, len(points))
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrInput, i, len(p), d)
		}
		bestC, bestD := 0, math.Inf(1)
		for c, cent := range centroids {
			dd := sqDist(p, cent)
			if dd < bestD {
				bestD = dd
				bestC = c
			}
		}
		out[i] = bestC
	}
	return out, nil
}
