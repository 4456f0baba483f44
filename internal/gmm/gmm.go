// Package gmm implements the univariate Gaussian Mixture Model and the
// Expectation–Maximization algorithm at the core of Gem (paper §3.1,
// Equations 1–6). All numeric column values are stacked into a single 1-D
// sample; EM fits m Gaussian components to it; responsibilities of each
// component for each value then drive the signature mechanism.
//
// The implementation follows the paper's setup: convergence when the change
// in log-likelihood falls below a threshold (per value, see Config.Tol),
// multiple EM restarts (default 10) keeping the best likelihood, and model
// selection via the Bayesian Information Criterion. E-step arithmetic is
// carried out in log-space with a max-shifted softmax so that far-flung
// values cannot underflow.
//
// Fitting parallelizes at three levels when Config.Pool is set — EM restarts,
// the per-iteration E- and M-steps (in fixed-boundary chunks), and SelectK's
// candidate models — and is engineered to be bit-identical for every pool
// width: per-restart RNGs are derived from a seed sequence, partial sums are
// reduced in index order, and winners are selected by scanning results in
// index order. The determinism test suite pins this property, and the
// gemlint analyzers detmaprange and detnondet (see internal/lint) enforce
// its preconditions statically: no unordered map iteration feeds output
// and no wall clock or unseeded randomness enters the fit. The pooled
// fan-out discipline is checked by poolgo.
//
//gem:deterministic
//gem:pooled
package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/gem-embeddings/gem/internal/kmeans"
	"github.com/gem-embeddings/gem/internal/mathx"
	"github.com/gem-embeddings/gem/internal/pool"
)

// ErrInput is returned for invalid fitting inputs.
var ErrInput = errors.New("gmm: invalid input")

// ErrNoConverge is returned when no EM restart produced a usable model.
var ErrNoConverge = errors.New("gmm: EM failed to produce a model")

const (
	log2Pi = 1.8378770664093453 // log(2*pi)
	// varianceFloorFrac keeps component variances from collapsing onto a
	// single point, relative to the total sample variance.
	varianceFloorFrac = 1e-8
	minVariance       = 1e-12
)

// InitMethod selects how EM is initialized.
type InitMethod int

const (
	// InitQuantile (the default) seeds component means at equally spaced
	// sample quantiles, which allocates components proportionally to data
	// mass. On heavy-tailed 1-D data this avoids the k-means failure mode
	// where squared distance pulls nearly all centers into the extreme
	// tail. The init choice is benchmarked by BenchmarkAblationEMInit.
	InitQuantile InitMethod = iota
	// InitKMeans seeds component means with k-means++ cluster centers.
	InitKMeans
	// InitRandom seeds component means with random sample points.
	InitRandom
)

// Config controls EM fitting.
type Config struct {
	// K is the number of Gaussian components (required, >= 1). The paper
	// uses 50 by default and shows 5–100 behave the same (Figure 4).
	K int
	// Tol bounds the change in MEAN PER-VALUE log-likelihood below which EM
	// stops: a restart has converged once |logL − prevLogL| < Tol·n, n the
	// number of fitted values (the form scikit-learn's GaussianMixture
	// applies its tol to). EM contracts linearly near its fixed point
	// (arXiv:1903.00979), so ΔlogL decays geometrically per value; a
	// threshold on the total scales with n instead and, at n = 8000 and
	// logL ≈ −6.4e4, an absolute 1e-3 is a relative 1.6e-8 that never fired
	// — every restart ran to MaxIter.
	//
	// Default 1e-4, chosen from the measured landscape on the benchmark's
	// offline_fit workload (K = 50, 3 restarts, n = 8000; type precision is
	// the paper's retrieval metric and repeats to the last digit):
	//
	//	Tol (per value)  fit time  type precision (total 1e-3: 0.42218)
	//	1e-3 (sklearn)   0.24 s    0.4099  (−2.9 %: stops too early)
	//	1e-4             0.93 s    0.4238  (+0.4 %), 115 of 600 iterations
	//	1e-5             3.84 s    0.4227  (+0.1 %)
	//
	// Re-measure type precision before picking another value.
	Tol float64
	// MaxIter caps EM iterations per restart. Default 200.
	MaxIter int
	// Restarts runs EM this many times and keeps the best log-likelihood.
	// Default 10 (the paper's setting).
	Restarts int
	// Seed makes the run deterministic.
	Seed int64
	// Init selects the initialization method. Default InitQuantile.
	Init InitMethod
	// Pool schedules restart-, chunk- and candidate-level parallelism. A
	// nil Pool (the default) runs everything on the calling goroutine. The
	// same Pool may be shared with the caller's own fan-out (core shares
	// its column pool): nested For calls are safe and total concurrency
	// stays bounded by the pool width. Output is bit-identical for every
	// pool width, including nil.
	//
	// Memory trade-off: each concurrently running restart holds its own
	// n×K responsibility matrix, so peak memory grows by up to
	// min(pool width, Restarts) such matrices versus serial fitting.
	// For large stacks, bound n via subsampling (core.Config's
	// SubsampleStack) or use a narrower pool.
	Pool *pool.Pool
	// iterHook, when set, observes every EM iteration of every restart
	// (the iteration index and the log-likelihood after that E-step).
	// Test-only: it is how the property suite checks EM monotonicity.
	// With a parallel Pool and Restarts > 1 it is called concurrently.
	iterHook func(iter int, ll float64)
}

func (c *Config) fillDefaults() {
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	if c.Restarts <= 0 {
		c.Restarts = 10
	}
}

// Model is a fitted univariate Gaussian mixture. Components are sorted by
// ascending mean so that models fitted on similar data have comparable
// component order.
type Model struct {
	// Weights are the mixing coefficients, summing to 1.
	Weights []float64
	// Means are the component means.
	Means []float64
	// Variances are the component variances.
	Variances []float64
	// LogLikelihood is the total log-likelihood of the training sample.
	LogLikelihood float64
	// Iterations is the number of EM iterations of the winning restart.
	Iterations int
	// Converged reports whether the winning restart met the tolerance
	// before MaxIter.
	Converged bool
	// N is the number of training values.
	N int

	// c1 and c2 are the responsibility kernel's per-component constants
	// (see foldedConstants), derived once when Fit or Load returns the
	// model; nil on a model assembled field by field, which derives them
	// per call. Weights, Means and Variances stay the source of truth, and
	// a model from Fit or Load is not to be edited after it is returned.
	c1, c2 []float64
}

// K returns the number of components.
func (m *Model) K() int { return len(m.Weights) }

// RestartStats describes one EM restart of a Fit run.
type RestartStats struct {
	// Iterations is how many EM iterations the restart ran.
	Iterations int `json:"iterations"`
	// LogLikelihood is the restart's final training log-likelihood (NaN
	// for a restart that diverged and produced no model).
	LogLikelihood float64 `json:"log_likelihood"`
	// Converged reports whether the restart met the tolerance before
	// MaxIter.
	Converged bool `json:"converged"`
}

// FitStats is the fit telemetry of one Fit run — the convergence
// behaviour an operator watches as a feedback signal (how hard did EM
// work, did restarts agree, where did the wall-clock go). It is
// observational only: nothing in it feeds back into the fitted model, and
// it is not persisted with the model.
type FitStats struct {
	// Restarts holds one entry per EM restart, in restart order.
	Restarts []RestartStats `json:"restarts"`
	// Winner is the index of the restart whose model was kept (-1 when
	// every restart diverged).
	Winner int `json:"winner"`
	// Trajectory is the winning restart's log-likelihood after every EM
	// iteration — the convergence curve.
	Trajectory []float64 `json:"trajectory,omitempty"`
	// EStepSeconds and MStepSeconds are wall-clock totals across all
	// restarts. With a parallel pool restarts overlap, so the sums can
	// exceed the elapsed fit time — they measure work, not latency.
	EStepSeconds float64 `json:"estep_seconds"`
	MStepSeconds float64 `json:"mstep_seconds"`
}

// Iterations sums the EM iterations across all restarts.
func (s *FitStats) Iterations() int {
	n := 0
	for _, r := range s.Restarts {
		n += r.Iterations
	}
	return n
}

// Warning returns the one line a command prints to standard error when the
// winning restart stopped at MaxIter without meeting Tol — the model is
// usable, but EM was cut short — and "" when it converged (or s is nil: an
// embedder restored from disk carries no telemetry).
func (s *FitStats) Warning() string {
	if s == nil || s.Winner < 0 || s.Restarts[s.Winner].Converged {
		return ""
	}
	return fmt.Sprintf("warning: EM did not converge: restart %d/%d won at the iteration cap (%d iterations) with the log-likelihood still moving by more than Tol per value",
		s.Winner+1, len(s.Restarts), s.Restarts[s.Winner].Iterations)
}

// Fit runs EM on xs with cfg and returns the best model across restarts.
func Fit(xs []float64, cfg Config) (*Model, error) {
	m, _, err := FitWithStats(xs, cfg)
	return m, err
}

// FitWithStats is Fit returning the run's telemetry alongside the model.
// The telemetry is purely observational: the returned model is
// bit-identical to Fit's for every pool width.
func FitWithStats(xs []float64, cfg Config) (*Model, *FitStats, error) {
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("%w: empty sample", ErrInput)
	}
	if cfg.K < 1 {
		return nil, nil, fmt.Errorf("%w: K = %d", ErrInput, cfg.K)
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("%w: non-finite value at index %d", ErrInput, i)
		}
	}
	k := cfg.K
	if k > len(xs) {
		k = len(xs) // cannot support more components than points
	}
	cfg.fillDefaults()

	totalVar := sampleVariance(xs)
	varFloor := math.Max(totalVar*varianceFloorFrac, minVariance)

	// Restarts are independent given their RNGs, so they fan out across
	// the pool: restart r always seeds its RNG from the same point of the
	// seed sequence, and each restart writes only its own slot. The winner
	// is then selected by scanning slots in restart order with a strict
	// comparison — exactly what the serial loop does — so the selected
	// model does not depend on scheduling.
	models := make([]*Model, cfg.Restarts)
	tels := make([]emTelemetry, cfg.Restarts)
	_ = cfg.Pool.For(cfg.Restarts, func(r int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*104729))
		init := initialize(xs, k, cfg, rng, totalVar)
		models[r], tels[r] = emLoop(xs, init, cfg, varFloor)
		return nil
	})
	st := &FitStats{Restarts: make([]RestartStats, cfg.Restarts), Winner: -1}
	var best *Model
	for r, m := range models {
		st.EStepSeconds += tels[r].eSeconds
		st.MStepSeconds += tels[r].mSeconds
		st.Restarts[r] = RestartStats{
			Iterations:    tels[r].iterations,
			LogLikelihood: math.NaN(),
		}
		if m == nil {
			continue
		}
		st.Restarts[r] = RestartStats{
			Iterations:    m.Iterations,
			LogLikelihood: m.LogLikelihood,
			Converged:     m.Converged,
		}
		if best == nil || m.LogLikelihood > best.LogLikelihood {
			best = m
			st.Winner = r
		}
	}
	if best == nil {
		return nil, st, ErrNoConverge
	}
	st.Trajectory = tels[st.Winner].trajectory
	best.sortByMean()
	best.c1, best.c2 = best.constants()
	return best, st, nil
}

// nearestGap returns the distance from mu to the closest distinct
// neighboring value in the sorted slice. It returns 0 — never ±Inf — when
// no positive gap exists: an empty slice, a single value, or a slice whose
// neighbors of mu all equal mu (the all-equal column). Callers treat 0 as
// "no usable local bandwidth" and fall back to the global scale.
func nearestGap(mu float64, sorted []float64) float64 {
	idx := sort.SearchFloat64s(sorted, mu)
	best := math.Inf(1)
	for _, t := range []int{idx - 1, idx, idx + 1} {
		if t < 0 || t >= len(sorted) {
			continue
		}
		d := math.Abs(sorted[t] - mu)
		if d > 0 && d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// sampleVariance returns the population variance of xs. Samples with fewer
// than two values carry no spread information, so n <= 1 returns 0 rather
// than NaN (the empty sample would otherwise divide 0/0).
func sampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return ss / float64(len(xs))
}

// initialize builds starting parameters for one EM restart.
func initialize(xs []float64, k int, cfg Config, rng *rand.Rand, totalVar float64) *Model {
	means := make([]float64, k)
	switch cfg.Init {
	case InitRandom:
		for j := range means {
			means[j] = xs[rng.Intn(len(xs))]
		}
	case InitKMeans:
		pts := make([][]float64, len(xs))
		for i, x := range xs {
			pts[i] = []float64{x}
		}
		res, err := kmeans.Run(pts, kmeans.Config{K: k, MaxIter: 25, Seed: rng.Int63()})
		if err != nil {
			for j := range means {
				means[j] = xs[rng.Intn(len(xs))]
			}
			break
		}
		for j := range means {
			means[j] = res.Centroids[j][0]
		}
	default: // InitQuantile
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// Jittered mid-quantiles: each restart perturbs the quantile grid
		// so restarts explore different bulk allocations.
		for j := range means {
			q := (float64(j) + 0.5 + 0.4*(rng.Float64()-0.5)) / float64(k)
			if q < 0 {
				q = 0
			}
			if q > 1 {
				q = 1
			}
			means[j] = sorted[int(q*float64(len(sorted)-1))]
		}
	}
	weights := make([]float64, k)
	variances := make([]float64, k)
	v := totalVar
	if v <= 0 {
		v = 1
	}
	for j := range weights {
		weights[j] = 1 / float64(k)
		variances[j] = v
	}
	if cfg.Init == InitQuantile && k > 1 {
		// Local bandwidths: the squared gap to the nearest neighbouring
		// mean. A global variance would make every component cover the
		// whole heavy-tailed range and stall EM.
		sortedMeans := append([]float64(nil), means...)
		sort.Float64s(sortedMeans)
		for j := range variances {
			local := nearestGap(means[j], sortedMeans)
			if local <= 0 {
				local = math.Sqrt(v)
			}
			variances[j] = math.Max(local*local, v*1e-8)
		}
	}
	return &Model{Weights: weights, Means: means, Variances: variances}
}

// emChunk is the number of values per E-step and M-step chunk. Chunk
// boundaries depend only on n — never on the pool width — so the ordered
// reduction of per-chunk partial sums performs float additions in an order
// that is invariant under scheduling. The size is large enough that a
// chunk's work dwarfs the goroutine handoff, and small enough that a 10k
// stack still splits across a typical pool.
const emChunk = 1024

// emTelemetry is one restart's observational record: the log-likelihood
// after every iteration and where the wall-clock went. Recording it costs
// two time.Now calls and one slice append per iteration — invisible next
// to an E-step pass over the sample — and cannot affect the fitted
// parameters.
type emTelemetry struct {
	trajectory []float64
	iterations int
	eSeconds   float64
	mSeconds   float64
}

// emLoop runs EM until convergence (|Δ logL| < Tol·n) or MaxIter.
//
// Both halves of each iteration fan out across cfg.Pool in the same
// fixed-size chunks of values, with index-slot writes only: an E-step chunk
// fills its own rows of the responsibility matrix and one
// partial-likelihood slot, an M-step chunk one stripe of per-component
// partial sums. Partials are reduced in chunk order, and the chunked
// reduction is the single code path — pool width 1 and nil pools sum in
// the identical order — so results are bit-identical for every worker
// count.
func emLoop(xs []float64, m *Model, cfg Config, varFloor float64) (*Model, emTelemetry) {
	n := len(xs)
	k := len(m.Weights)
	resp := make([]float64, n*k) // row-major n×k responsibilities
	c1 := make([]float64, k)
	c2 := make([]float64, k)
	nChunks := (n + emChunk - 1) / emChunk
	llPart := make([]float64, nChunks)
	// Two M-step partial-sum stripes per chunk, allocated once for the
	// whole run: chunks write disjoint stripes, so reuse across iterations
	// is race-free and keeps the hot loop allocation-free. Stripes are
	// padded to whole 64-byte cache lines so adjacent chunks running on
	// different cores never false-share a boundary line.
	stride := (k + 7) / 8 * 8
	part := make([]float64, nChunks*2*stride)
	nk := make([]float64, k)
	mu := make([]float64, k)
	vr := make([]float64, k)
	bounds := func(c int) (lo, hi int) {
		return c * emChunk, min((c+1)*emChunk, n)
	}
	stripe := func(c, s int) []float64 {
		off := (2*c + s) * stride
		return part[off : off+k]
	}
	prevLL := math.Inf(-1)
	converged := false
	iter := 0
	var tel emTelemetry

	for ; iter < cfg.MaxIter; iter++ {
		// E-step in log space. The density folds into two per-component
		// constants (see foldedConstants), hoisted out of the value loop.
		// Each row of resp is its own scratch: log terms in,
		// responsibilities out.
		//lint:gemallow detnondet E-step timing feeds emTelemetry only, never the model
		eStart := time.Now()
		m.foldedConstants(c1, c2)
		_ = cfg.Pool.For(nChunks, func(c int) error {
			lo, hi := bounds(c)
			var ll float64
			for i := lo; i < hi; i++ {
				row := resp[i*k : i*k+k]
				ll += softmax(row, logTerms(xs[i], m.Means, c1, c2, row))
			}
			llPart[c] = ll
			return nil
		})
		var ll float64
		for _, p := range llPart {
			ll += p
		}
		//lint:gemallow detnondet E-step timing feeds emTelemetry only, never the model
		tel.eSeconds += time.Since(eStart).Seconds()
		if math.IsNaN(ll) {
			tel.iterations = iter + 1
			return nil, tel
		}
		tel.trajectory = append(tel.trajectory, ll)
		if cfg.iterHook != nil {
			cfg.iterHook(iter, ll)
		}
		// Convergence check on the per-value change in log-likelihood (see
		// Config.Tol).
		if math.Abs(ll-prevLL) < cfg.Tol*float64(n) {
			prevLL = ll
			converged = true
			break
		}
		prevLL = ll

		// M-step (Equations 3–5) in two contiguous sweeps of resp: all k
		// weight and mean sums, then all k variance sums about the new
		// means. Within a chunk every component accumulates over values in
		// index order.
		//lint:gemallow detnondet M-step timing feeds emTelemetry only, never the model
		mStart := time.Now()
		_ = cfg.Pool.For(nChunks, func(c int) error {
			lo, hi := bounds(c)
			pn, pm := stripe(c, 0), stripe(c, 1)
			clear(pn)
			clear(pm)
			for i := lo; i < hi; i++ {
				x := xs[i]
				row := resp[i*k : i*k+k]
				for j, r := range row {
					pn[j] += r
					pm[j] += r * x
				}
			}
			return nil
		})
		clear(nk)
		clear(mu)
		for c := 0; c < nChunks; c++ {
			pn, pm := stripe(c, 0), stripe(c, 1)
			for j := range nk {
				nk[j] += pn[j]
				mu[j] += pm[j]
			}
		}
		for j := range mu {
			// A dead component (nk ≈ 0, reseeded below) gets a meaningless
			// mean here; its variance sum is computed and discarded.
			mu[j] /= nk[j]
		}
		_ = cfg.Pool.For(nChunks, func(c int) error {
			lo, hi := bounds(c)
			pv := stripe(c, 0)
			clear(pv)
			for i := lo; i < hi; i++ {
				x := xs[i]
				row := resp[i*k : i*k+k]
				for j, r := range row {
					d := x - mu[j]
					pv[j] += r * d * d
				}
			}
			return nil
		})
		clear(vr)
		for c := 0; c < nChunks; c++ {
			for j, v := range stripe(c, 0) {
				vr[j] += v
			}
		}
		for j := 0; j < k; j++ {
			if nk[j] < 1e-10 {
				// Dead component: re-center on a random-ish point and reset.
				// Unsigned math: the Knuth constant overflows int on 32-bit
				// targets; the value is identical on 64-bit.
				m.Means[j] = xs[int(uint64(j)*2654435761%uint64(n))]
				m.Variances[j] = math.Max(varFloor, 1)
				m.Weights[j] = 1e-6
				continue
			}
			v := vr[j] / nk[j]
			if v < varFloor {
				v = varFloor
			}
			m.Means[j] = mu[j]
			m.Variances[j] = v
			m.Weights[j] = nk[j] / float64(n)
		}
		normalizeWeights(m.Weights)
		//lint:gemallow detnondet M-step timing feeds emTelemetry only, never the model
		tel.mSeconds += time.Since(mStart).Seconds()
	}
	m.LogLikelihood = prevLL
	m.Iterations = iter
	m.Converged = converged
	m.N = n
	tel.iterations = iter
	return m, tel
}

// softmax turns the log terms row[j] = log(w_j · N(x | mean_j, var_j)),
// whose maximum is maxV (see logTerms), into the responsibilities
// exp(row[j]) / Σ_t exp(row[t]) in place and returns log Σ_t exp(row[t]),
// the value's log-likelihood — the one kernel behind the E-step,
// Responsibilities and LogPDF, so training-time and inference-time
// responsibilities are bit-identical by construction. Shifting by the row
// maximum keeps far-flung values from underflowing, and the shifted
// exponentials serve both the sum and the quotient: one mathx.ExpRow per
// row, one portable exp per (value, component) pair that is not more than
// 746 nats below the maximum.
//
// A NaN entry makes the returned log-likelihood NaN (emLoop abandons the
// restart on it). A row with no finite entry — a value infinitely unlikely
// under every component — yields NaN responsibilities and −Inf.
func softmax(row []float64, maxV float64) float64 {
	if math.IsInf(maxV, -1) {
		// Every entry is −Inf or NaN: nothing to shift by.
		lse := maxV
		for j, v := range row {
			lse += v
			row[j] = math.NaN()
		}
		return lse
	}
	sum := mathx.ExpRow(row, maxV)
	inv := 1 / sum
	for j, e := range row {
		// The conversion forbids fusing this product into a caller's
		// accumulation (FMA targets), which would break the bit-for-bit
		// agreement between the row and its running mean.
		row[j] = float64(e * inv)
	}
	return maxV + math.Log(sum)
}

func normalizeWeights(w []float64) {
	var s float64
	for _, v := range w {
		s += v
	}
	if s <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= s
	}
}

// sortByMean orders components ascending by mean, keeping weights and
// variances aligned.
func (m *Model) sortByMean() {
	idx := make([]int, len(m.Means))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return m.Means[idx[a]] < m.Means[idx[b]] })
	w := make([]float64, len(idx))
	mu := make([]float64, len(idx))
	v := make([]float64, len(idx))
	for i, j := range idx {
		w[i] = m.Weights[j]
		mu[i] = m.Means[j]
		v[i] = m.Variances[j]
	}
	m.Weights, m.Means, m.Variances = w, mu, v
}

// foldedConstants fills the per-component constants of the folded density
// log(w_j · N(x | mean_j, var_j)) = c1[j] + (x − mean_j)²·c2[j]:
// c1[j] = log w_j − ½(log 2π + log var_j) and c2[j] = −½/var_j. They depend
// on the component alone, so the per-value work is one subtract, two
// multiplies and one add. This is the single source of the mixture's
// density, shared by the EM E-step and every inference path.
func (m *Model) foldedConstants(c1, c2 []float64) {
	for j := range m.Weights {
		c1[j] = math.Log(m.Weights[j]) - 0.5*(log2Pi+math.Log(m.Variances[j]))
		c2[j] = -0.5 / m.Variances[j]
	}
}

// constants returns the folded constants of m: the ones Fit or Load
// derived, or fresh ones for a model assembled field by field.
func (m *Model) constants() (c1, c2 []float64) {
	if m.c1 != nil {
		return m.c1, m.c2
	}
	c1, c2 = make([]float64, len(m.Weights)), make([]float64, len(m.Weights))
	m.foldedConstants(c1, c2)
	return c1, c2
}

// logTerms fills buf[j] = log(w_j · N(x | mean_j, var_j)) against the
// folded per-component constants of foldedConstants and returns the largest
// entry (−Inf when no entry exceeds −Inf; a NaN entry is never the
// maximum). This is the E-step and embedding inner loop, unrolled four
// components wide: each lane is an independent write, so the unroll cannot
// change a single bit while the four multiply-add chains overlap instead of
// serializing, and taking the maximum in the same loop saves a second pass
// over the row.
func logTerms(x float64, means, c1, c2, buf []float64) float64 {
	means = means[:len(buf)]
	c1 = c1[:len(buf)]
	c2 = c2[:len(buf)]
	maxV := math.Inf(-1)
	j := 0
	for ; j+3 < len(buf); j += 4 {
		d0 := x - means[j]
		d1 := x - means[j+1]
		d2 := x - means[j+2]
		d3 := x - means[j+3]
		v0 := c1[j] + d0*d0*c2[j]
		v1 := c1[j+1] + d1*d1*c2[j+1]
		v2 := c1[j+2] + d2*d2*c2[j+2]
		v3 := c1[j+3] + d3*d3*c2[j+3]
		buf[j], buf[j+1], buf[j+2], buf[j+3] = v0, v1, v2, v3
		if v0 > maxV {
			maxV = v0
		}
		if v1 > maxV {
			maxV = v1
		}
		if v2 > maxV {
			maxV = v2
		}
		if v3 > maxV {
			maxV = v3
		}
	}
	for ; j < len(buf); j++ {
		d := x - means[j]
		v := c1[j] + d*d*c2[j]
		buf[j] = v
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// PDF returns the mixture density at x (Equation 1), as the exponential
// of LogPDF.
func (m *Model) PDF(x float64) float64 {
	return mathx.Exp(m.LogPDF(x))
}

// LogPDF returns the log mixture density at x, computed stably by the
// E-step's kernel, so the mixture likelihood agrees bit-for-bit with
// training.
func (m *Model) LogPDF(x float64) float64 {
	c1, c2 := m.constants()
	buf := make([]float64, len(m.Weights))
	return softmax(buf, logTerms(x, m.Means, c1, c2, buf))
}

// ComponentLogPDF returns log N(x | mu_j, sigma_j^2) for component j
// (Equation 6 in log space).
func (m *Model) ComponentLogPDF(x float64, j int) float64 {
	d := x - m.Means[j]
	return -0.5*(log2Pi+math.Log(m.Variances[j])) + d*d*(-0.5/m.Variances[j])
}

// Responsibilities returns gamma(z_j) for a single value x (Equation 2):
// the posterior probability that x was generated by each component.
// The returned slice sums to 1.
func (m *Model) Responsibilities(x float64) []float64 {
	c1, c2 := m.constants()
	out := make([]float64, len(m.Weights))
	softmax(out, logTerms(x, m.Means, c1, c2, out))
	return out
}

// MeanResponsibilities averages the per-value responsibilities over a column
// of values: mu_{C_j} = (1/N) * sum_i gamma(z_ij). This is the distributional
// part of Gem's signature (Figure 2). The result sums to 1 for a non-empty
// column.
//
// This is the embedding hot path, and a responsibility depends on the value
// alone, so each DISTINCT value is evaluated once: the column is walked in
// ascending order (values already ascending are used as they are, anything
// else is sorted into a copy — the argument is never modified), and every
// run of equal values pays one fused pass against the model's folded
// constants — logTerms fills the row and takes its maximum, mathx.ExpRow
// exponentiates and sums it, and the normalised row, weighted by the run
// length, goes straight into the result without being written back. A
// column costs one sort plus K portable exponentials per distinct value,
// and the result does not depend on the order of the values inside the
// column. Each row is term-for-term Responsibilities(x); +0 and −0 compare
// equal and form one run (the squared deviation is the same for both), a
// NaN equals nothing, is its own run and makes every entry of the result
// NaN.
func (m *Model) MeanResponsibilities(values []float64) ([]float64, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: empty column", ErrInput)
	}
	sorted := values
	if !slices.IsSorted(sorted) {
		sorted = slices.Clone(values)
		slices.Sort(sorted)
	}
	c1, c2 := m.constants()
	out := make([]float64, len(m.Weights))
	buf := make([]float64, len(m.Weights))
	for i := 0; i < len(sorted); {
		x := sorted[i]
		run := i + 1
		for run < len(sorted) && sorted[run] == x {
			run++
		}
		// A row without a finite log term shifts by −Inf, which ExpRow
		// turns into NaN everywhere, as softmax does.
		inv := 1 / mathx.ExpRow(buf, logTerms(x, m.Means, c1, c2, buf))
		count := float64(run - i)
		for j, e := range buf {
			// Both conversions round, as softmax does (no FMA): the inner
			// one is softmax's normalised entry r, and a run of one adds r
			// unchanged, 1·r being exact.
			out[j] += float64(count * float64(e*inv))
		}
		i = run
	}
	inv := 1 / float64(len(values))
	for j := range out {
		out[j] *= inv
	}
	return out, nil
}

// Sample draws n values from the mixture using rng.
func (m *Model) Sample(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		j := sampleCategorical(m.Weights, rng)
		out[i] = m.Means[j] + math.Sqrt(m.Variances[j])*rng.NormFloat64()
	}
	return out
}

func sampleCategorical(w []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var cum float64
	for j, v := range w {
		cum += v
		if u <= cum {
			return j
		}
	}
	return len(w) - 1
}

// ScoreSamples returns the total log-likelihood of xs under the model.
func (m *Model) ScoreSamples(xs []float64) float64 {
	var ll float64
	for _, x := range xs {
		ll += m.LogPDF(x)
	}
	return ll
}

// NumParams returns the number of free parameters: (K-1) weights + K means +
// K variances.
func (m *Model) NumParams() int { return 3*len(m.Weights) - 1 }

// BIC returns the Bayesian Information Criterion on the training sample
// (lower is better).
func (m *Model) BIC() float64 {
	return float64(m.NumParams())*math.Log(float64(m.N)) - 2*m.LogLikelihood
}

// AIC returns the Akaike Information Criterion on the training sample
// (lower is better).
func (m *Model) AIC() float64 {
	return 2*float64(m.NumParams()) - 2*m.LogLikelihood
}

// SelectK fits models for every K in ks and returns the one with the lowest
// BIC, along with the BIC value per K. This mirrors the paper's model
// selection discussion (§4.1.4).
//
// Candidates are evaluated concurrently on base.Pool (each Fit's own
// restart/chunk parallelism shares the same pool, so total concurrency
// stays bounded). Errors are recorded per slot and scanned in candidate
// order, and a failure at index f lets every candidate AFTER f skip its
// fit — so the serial path still stops paying at the first error, like
// the old loop. The skip condition is "a strictly lower index already
// failed", tracked as an atomic minimum: a candidate below the lowest
// recorded failure is never skipped, so the lowest recorded failure is
// the true lowest failing candidate and the reported error is exactly
// the serial loop's, independent of scheduling.
func SelectK(xs []float64, ks []int, base Config) (*Model, map[int]float64, error) {
	if len(ks) == 0 {
		return nil, nil, fmt.Errorf("%w: no candidate K values", ErrInput)
	}
	models := make([]*Model, len(ks))
	errs := make([]error, len(ks))
	var firstFailed atomic.Int64
	firstFailed.Store(int64(len(ks)))
	_ = base.Pool.For(len(ks), func(i int) error {
		if firstFailed.Load() < int64(i) {
			return nil
		}
		cfg := base
		cfg.K = ks[i]
		models[i], errs[i] = Fit(xs, cfg)
		if errs[i] != nil {
			for {
				cur := firstFailed.Load()
				if cur <= int64(i) || firstFailed.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("gmm: SelectK at K=%d: %w", ks[i], err)
		}
	}
	bics := make(map[int]float64, len(ks))
	var best *Model
	for i, m := range models {
		bics[ks[i]] = m.BIC()
		if best == nil || m.BIC() < best.BIC() {
			best = m
		}
	}
	return best, bics, nil
}
