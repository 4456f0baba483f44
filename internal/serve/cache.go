package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"github.com/gem-embeddings/gem/internal/table"
)

// cacheKey content-addresses one column embedding: SHA-256 over the
// embedder fingerprint, the inputs the embedding depends on — the raw
// float64 bits of the values (length-prefixed, so distinct splits cannot
// collide) and, only when the embedder composes header embeddings, the
// column name. Everything that does NOT enter the embedding (Type, Table,
// and the name on value-only configs) is excluded, so renamed copies of a
// column hit the same entry whenever the embedder would answer them
// identically.
type cacheKey [32]byte

func keyFor(fingerprint, name string, col table.Column) cacheKey {
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	// The length prefix and the value bits reach the hash through a block
	// buffer — the same bytes in the same order as one 8-byte Write per
	// value, at a fraction of the calls.
	var buf [512]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(col.Values)))
	n := 8
	for _, v := range col.Values {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
		n += 8
	}
	h.Write(buf[:n])
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// cache is a bounded LRU map from content key to embedding row. Stored rows
// are shared with callers and must be treated as immutable. A nil *cache
// never hits and never stores, which is the "caching disabled" mode.
type cache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element
}

type centry struct {
	key cacheKey
	vec []float64
}

func newCache(max int) *cache {
	if max <= 0 {
		return nil
	}
	return &cache{max: max, ll: list.New(), m: make(map[cacheKey]*list.Element, max)}
}

func (c *cache) get(k cacheKey) ([]float64, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*centry).vec, true
}

func (c *cache) put(k cacheKey, vec []float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		// Idempotent: the same key always maps to the same bytes, so keep
		// the existing row and just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&centry{key: k, vec: vec})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*centry).key)
	}
}

func (c *cache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
