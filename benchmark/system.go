package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/shard"
)

// system is the server under test, assembled the way cmd/gemserve does for
// `-catalog DIR -shards N`: one HNSW index (cosine, float64) and one
// on-disk catalog.Store per shard behind a shard.Catalog, served by
// serve.New with the obs registry on, the default 4096-entry cache and
// 200 µs batch window — all in this process, behind a loopback listener.
type system struct {
	emb    *core.Embedder
	idxs   []ann.Index
	stores []*catalog.Store
	cat    *shard.Catalog
	srv    *serve.Server
	ts     *httptest.Server
	// openSeconds is the time catalog.Open took over all shards (reading
	// snapshot and journal) and serveSeconds the time shard.New and
	// serve.New took (replaying them into the indexes and the cache).
	openSeconds, serveSeconds float64
}

// openSystem opens (or creates) the shard stores under dir and starts a
// server over them; a non-empty store is replayed into the indexes.
func openSystem(emb *core.Embedder, dir string, shards, compactEvery int, metrics bool) (*system, error) {
	fp, err := emb.Fingerprint()
	if err != nil {
		return nil, err
	}
	s := &system{emb: emb, idxs: make([]ann.Index, shards), stores: make([]*catalog.Store, shards)}
	p := pool.New(workers)
	for i := range s.idxs {
		if s.idxs[i], err = ann.NewHNSW(ann.HNSWConfig{Metric: ann.Cosine}, p); err != nil {
			s.close()
			return nil, err
		}
		t0 := time.Now()
		s.stores[i], err = catalog.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)),
			serve.StoreIdentityShard(fp, s.idxs[i], i, shards))
		s.openSeconds += time.Since(t0).Seconds()
		if err != nil {
			s.close()
			return nil, err
		}
	}
	t0 := time.Now()
	if s.cat, err = shard.New(shard.Config{Indexes: s.idxs, Stores: s.stores, Pool: p}); err != nil {
		s.close()
		return nil, err
	}
	cfg := serve.Config{Catalog: s.cat, CompactEvery: compactEvery}
	if metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	if s.srv, err = serve.New(emb, cfg); err != nil {
		s.close()
		return nil, err
	}
	s.serveSeconds = time.Since(t0).Seconds()
	s.ts = httptest.NewServer(s.srv.Handler())
	return s, nil
}

// close stops the listener and the server, then closes the stores. It
// tolerates a partly assembled system.
func (s *system) close() error {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	var first error
	for _, st := range s.stores {
		if st != nil {
			if err := st.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// client is one load generator's connection: a single keep-alive
// connection, a reused response buffer, and latency taken around the
// request only (the request object is built before the clock starts and
// the clock stops once the body has been read).
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		base: base,
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and returns the response body (valid until the next
// call) and the time spent inside the request. Any status but 200 is an
// error.
func (c *client) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("%s %s: %s: %.200s", method, path, resp.Status, c.buf.Bytes())
	}
	return c.buf.Bytes(), d, nil
}

// serverStats is the part of GET /stats the benchmark's gates read.
type serverStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Batches     int64 `json:"batches"`
	IndexSize   int   `json:"index_size"`
	Compactions int64 `json:"compactions"`
	StoreErrors int64 `json:"store_errors"`
	Errors      int64 `json:"errors"`
	IndexErrors int64 `json:"index_errors"`
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	body, _, err := c.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
