package gmm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gem-embeddings/gem/internal/pool"
)

func telemetrySample() []float64 {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 600)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = rng.NormFloat64()
		} else {
			xs[i] = 10 + 2*rng.NormFloat64()
		}
	}
	return xs
}

// TestFitWithStatsTelemetry pins the observational contract: one entry
// per restart, a winner whose recorded likelihood is the model's, a
// trajectory that ends at that likelihood and never decreases, and
// stage wall-clocks that actually accumulated.
func TestFitWithStatsTelemetry(t *testing.T) {
	xs := telemetrySample()
	cfg := Config{K: 4, Seed: 3, Restarts: 3, MaxIter: 100}
	m, st, err := FitWithStats(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Restarts) != cfg.Restarts {
		t.Fatalf("restart stats = %d entries, want %d", len(st.Restarts), cfg.Restarts)
	}
	if st.Winner < 0 || st.Winner >= cfg.Restarts {
		t.Fatalf("winner = %d out of range", st.Winner)
	}
	w := st.Restarts[st.Winner]
	if w.LogLikelihood != m.LogLikelihood {
		t.Errorf("winner logL %v != model logL %v", w.LogLikelihood, m.LogLikelihood)
	}
	if w.Iterations != m.Iterations {
		t.Errorf("winner iterations %d != model iterations %d", w.Iterations, m.Iterations)
	}
	for r, rs := range st.Restarts {
		if rs.LogLikelihood > w.LogLikelihood {
			t.Errorf("restart %d logL %v beats recorded winner %v", r, rs.LogLikelihood, w.LogLikelihood)
		}
		if rs.Iterations <= 0 {
			t.Errorf("restart %d ran %d iterations", r, rs.Iterations)
		}
	}
	if len(st.Trajectory) == 0 {
		t.Fatal("empty trajectory")
	}
	if got := st.Trajectory[len(st.Trajectory)-1]; got != m.LogLikelihood {
		t.Errorf("trajectory ends at %v, model logL %v", got, m.LogLikelihood)
	}
	for i := 1; i < len(st.Trajectory); i++ {
		if st.Trajectory[i] < st.Trajectory[i-1]-1e-9 {
			t.Errorf("trajectory decreased at %d: %v -> %v", i, st.Trajectory[i-1], st.Trajectory[i])
		}
	}
	if st.EStepSeconds <= 0 {
		t.Errorf("E-step seconds = %v, want > 0", st.EStepSeconds)
	}
	if st.Iterations() < m.Iterations {
		t.Errorf("total iterations %d < winner's %d", st.Iterations(), m.Iterations)
	}
}

// TestFitWithStatsNeutral pins that recording telemetry changes no bit of
// the fitted model, at several pool widths.
func TestFitWithStatsNeutral(t *testing.T) {
	xs := telemetrySample()
	cfg := Config{K: 4, Seed: 3, Restarts: 2, MaxIter: 60}
	ref, err := Fit(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		c := cfg
		c.Pool = pool.New(workers)
		m, st, err := FitWithStats(xs, c)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || len(st.Restarts) != c.Restarts {
			t.Fatalf("workers %d: missing telemetry", workers)
		}
		for j := range ref.Weights {
			if math.Float64bits(ref.Weights[j]) != math.Float64bits(m.Weights[j]) ||
				math.Float64bits(ref.Means[j]) != math.Float64bits(m.Means[j]) ||
				math.Float64bits(ref.Variances[j]) != math.Float64bits(m.Variances[j]) {
				t.Fatalf("workers %d: component %d differs from Fit reference", workers, j)
			}
		}
	}
}

// TestStoppingRuleIsPerValue pins the rule itself: EM stops at the first
// iteration whose log-likelihood gain is below Tol·n, so every restart of
// a default-config fit converges short of MaxIter and carries no warning —
// and the same fit cut off by a too-small MaxIter still reports
// Converged == false and warns.
func TestStoppingRuleIsPerValue(t *testing.T) {
	xs := telemetrySample()
	cfg := Config{K: 4, Seed: 3, Restarts: 3}
	m, st, err := FitWithStats(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.fillDefaults()
	for r, rs := range st.Restarts {
		if !rs.Converged || rs.Iterations >= cfg.MaxIter {
			t.Errorf("restart %d: converged=%v after %d iterations, want converged before MaxIter=%d",
				r, rs.Converged, rs.Iterations, cfg.MaxIter)
		}
	}
	if msg := st.Warning(); msg != "" {
		t.Errorf("converged fit warns: %q", msg)
	}
	tr, bound := st.Trajectory, cfg.Tol*float64(len(xs))
	if len(tr) != m.Iterations+1 {
		t.Fatalf("trajectory has %d entries for %d iterations", len(tr), m.Iterations)
	}
	for i := 1; i < len(tr); i++ {
		if last := i == len(tr)-1; (math.Abs(tr[i]-tr[i-1]) < bound) != last {
			t.Errorf("iteration %d of %d: |ΔlogL| = %g against Tol·n = %g", i, len(tr)-1, math.Abs(tr[i]-tr[i-1]), bound)
		}
	}

	cfg.MaxIter = 3
	m, st, err = FitWithStats(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Converged || m.Iterations != 3 {
		t.Errorf("MaxIter=3: converged=%v after %d iterations, want unconverged after 3", m.Converged, m.Iterations)
	}
	if st.Warning() == "" {
		t.Error("unconverged fit carries no warning")
	}
}
