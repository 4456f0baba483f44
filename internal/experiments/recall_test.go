package experiments

import (
	"testing"

	"github.com/gem-embeddings/gem/internal/ann"
)

// TestRecallAtK exercises the recall arithmetic directly, including
// self-exclusion.
func TestRecallAtK(t *testing.T) {
	r := func(ids ...int) []ann.Result {
		out := make([]ann.Result, len(ids))
		for i, id := range ids {
			out[i] = ann.Result{ID: id}
		}
		return out
	}
	if got := RecallAtK(r(7, 1, 2, 3), r(7, 1, 2, 3), 7, 3); got != 1 {
		t.Errorf("identical lists recall = %v, want 1", got)
	}
	if got := RecallAtK(r(7, 1, 2, 3), r(7, 1, 9, 8), 7, 3); got != 1.0/3 {
		t.Errorf("one-of-three recall = %v, want 1/3", got)
	}
	if got := RecallAtK(nil, nil, 0, 10); got != 1 {
		t.Errorf("empty recall = %v, want 1", got)
	}
}
