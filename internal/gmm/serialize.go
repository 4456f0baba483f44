package gmm

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// modelJSON is the stable on-disk representation of a fitted model.
type modelJSON struct {
	Weights       []float64 `json:"weights"`
	Means         []float64 `json:"means"`
	Variances     []float64 `json:"variances"`
	LogLikelihood float64   `json:"log_likelihood"`
	Iterations    int       `json:"iterations"`
	Converged     bool      `json:"converged"`
	N             int       `json:"n"`
}

// Save writes the model as JSON. A saved model can be reloaded with Load and
// used to embed new columns without refitting — the paper's deployment mode
// where one corpus-level mixture serves many incoming tables.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(modelJSON{
		Weights:       m.Weights,
		Means:         m.Means,
		Variances:     m.Variances,
		LogLikelihood: m.LogLikelihood,
		Iterations:    m.Iterations,
		Converged:     m.Converged,
		N:             m.N,
	}); err != nil {
		return fmt.Errorf("gmm: saving model: %w", err)
	}
	return nil
}

// Load reads a model saved by Save and validates it.
func Load(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("gmm: loading model: %w", err)
	}
	m := &Model{
		Weights:       mj.Weights,
		Means:         mj.Means,
		Variances:     mj.Variances,
		LogLikelihood: mj.LogLikelihood,
		Iterations:    mj.Iterations,
		Converged:     mj.Converged,
		N:             mj.N,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.c1, m.c2 = m.constants()
	return m, nil
}

// Validate checks structural invariants: equal-length parameter slices, at
// least one component, weights forming a probability vector, positive finite
// variances.
func (m *Model) Validate() error {
	k := len(m.Weights)
	if k == 0 {
		return fmt.Errorf("%w: no components", ErrInput)
	}
	if len(m.Means) != k || len(m.Variances) != k {
		return fmt.Errorf("%w: %d weights, %d means, %d variances",
			ErrInput, k, len(m.Means), len(m.Variances))
	}
	var sum float64
	for j := 0; j < k; j++ {
		w := m.Weights[j]
		if math.IsNaN(w) || w < 0 || w > 1 {
			return fmt.Errorf("%w: weight[%d] = %v", ErrInput, j, w)
		}
		sum += w
		if math.IsNaN(m.Means[j]) || math.IsInf(m.Means[j], 0) {
			return fmt.Errorf("%w: mean[%d] = %v", ErrInput, j, m.Means[j])
		}
		if v := m.Variances[j]; math.IsNaN(v) || v <= 0 || math.IsInf(v, 0) {
			return fmt.Errorf("%w: variance[%d] = %v", ErrInput, j, v)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: weights sum to %v", ErrInput, sum)
	}
	return nil
}
