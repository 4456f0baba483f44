package serve

import (
	"encoding/hex"
	"math"
	"testing"

	"github.com/gem-embeddings/gem/internal/table"
)

func k(b byte) cacheKey {
	var key cacheKey
	key[0] = b
	return key
}

// TestCacheEvictionOrderLRU pins the eviction policy byte for byte: the
// least recently *used* entry goes first, where both get and put-of-an-
// existing-key refresh recency.
func TestCacheEvictionOrderLRU(t *testing.T) {
	c := newCache(3)
	vec := func(v float64) []float64 { return []float64{v} }
	c.put(k(1), vec(1))
	c.put(k(2), vec(2))
	c.put(k(3), vec(3)) // recency: 3, 2, 1
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	} // recency: 1, 3, 2
	c.put(k(4), vec(4)) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Fatal("key 2 survived; eviction is not least-recently-used")
	}
	for _, b := range []byte{1, 3, 4} {
		if _, ok := c.get(k(b)); !ok {
			t.Fatalf("key %d evicted out of order", b)
		}
	}
	// The loop got 1, 3, 4 in order → recency: 4, 3, 1.
	c.put(k(1), vec(1)) // existing key: refresh only → recency: 1, 4, 3
	c.put(k(5), vec(5)) // evicts 3
	if _, ok := c.get(k(3)); ok {
		t.Fatal("key 3 survived; put of an existing key must refresh recency")
	}
	for _, b := range []byte{1, 4, 5} {
		if _, ok := c.get(k(b)); !ok {
			t.Fatalf("key %d evicted out of order after refresh", b)
		}
	}
	if c.len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.len())
	}
	// The idempotent put keeps the original row bytes.
	c.put(k(5), vec(99))
	if v, _ := c.get(k(5)); v[0] != 5 {
		t.Fatalf("idempotent put replaced the stored row: %v", v)
	}
}

// TestCacheDisabled: a nil cache (CacheSize < 0) never stores and never
// hits.
func TestCacheDisabled(t *testing.T) {
	c := newCache(-1)
	if c != nil {
		t.Fatal("negative size must disable the cache")
	}
	c.put(k(1), []float64{1})
	if _, ok := c.get(k(1)); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

// TestKeyForPinned pins content keys computed before keyFor hashed through a
// block buffer: the keys are persisted in catalog stores, so the bytes fed
// to SHA-256 — and their order — must never move. The 63- and 65-value
// columns sit either side of the 64-value block boundary.
func TestKeyForPinned(t *testing.T) {
	ramp := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i)*0.25 - 3
		}
		return vs
	}
	for _, tc := range []struct {
		label, name string
		values      []float64
		want        string
	}{
		{"empty name", "", []float64{1.5, math.Copysign(0, -1), 2e300}, "b954efd811a60f92fe3e5047ddf1f40f1c1e4a792faa5ce24b6c7826a2388db8"},
		{"63 values", "price", ramp(63), "2f29b3b6b54b4111ba58c932b8cbf31bd88ba8da242a67c92a5a3d265547b628"},
		{"65 values", "price", ramp(65), "219f0c97f522ce7c28eec738da1fda728381dcd2555cd46c4b82ff97a23ba93c"},
	} {
		got := keyFor("fp-pinned", tc.name, table.Column{Name: "ignored", Values: tc.values})
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("%s: key %x, want %s", tc.label, got, tc.want)
		}
	}
}
