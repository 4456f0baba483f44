package gem

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/baselines"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/deepcluster"
	"github.com/gem-embeddings/gem/internal/eval"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// TestPipelineCSVRoundTrip exercises the full user journey: generate a
// corpus, serialize it to CSV (gemgen's format), parse it back (gemembed's
// format), embed, and evaluate — everything a downstream user would chain.
func TestPipelineCSVRoundTrip(t *testing.T) {
	orig := data.GitTables(data.Config{Seed: 5, Scale: 0.08})

	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := table.ReadCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Columns) != len(orig.Columns) {
		t.Fatalf("round trip lost columns: %d vs %d", len(ds.Columns), len(orig.Columns))
	}

	e, err := core.NewEmbedder(core.Config{
		Components:     16,
		Restarts:       2,
		Seed:           5,
		SubsampleStack: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := e.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := eval.AveragePrecisionByType(emb, ds.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if ap < 0.2 {
		t.Errorf("pipeline average precision = %v, want >= 0.2", ap)
	}
}

// TestPipelineSaveLoadServesNewTables exercises the deployment pattern end
// to end: fit + save on one corpus, load elsewhere, embed incoming columns,
// and verify the embeddings cluster sensibly.
func TestPipelineSaveLoadServesNewTables(t *testing.T) {
	train := data.GitTables(data.Config{Seed: 6, Scale: 0.1})
	e, err := core.NewEmbedder(core.Config{
		Components:     16,
		Restarts:       2,
		Seed:           6,
		SubsampleStack: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(train); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := e.Save(&saved); err != nil {
		t.Fatal(err)
	}
	served, err := core.LoadEmbedder(&saved)
	if err != nil {
		t.Fatal(err)
	}

	incoming := data.GitTables(data.Config{Seed: 777, Scale: 0.06})
	emb, err := served.Embed(incoming)
	if err != nil {
		t.Fatal(err)
	}
	// Embeddings of a *new* corpus under the saved model must still carry
	// type signal (the mixture was fitted on the same domain).
	ap, err := eval.AveragePrecisionByType(emb, incoming.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if ap < 0.2 {
		t.Errorf("served-model average precision = %v, want >= 0.2", ap)
	}
}

// TestPipelineEmbedThenCluster chains embedding into deep clustering and
// checks the metrics agree with each other (ACC high implies ARI and NMI
// clearly positive).
func TestPipelineEmbedThenCluster(t *testing.T) {
	ds := data.GitTables(data.Config{Seed: 7, Scale: 0.1})
	e, err := core.NewEmbedder(core.Config{
		Components:     16,
		Restarts:       2,
		Seed:           7,
		SubsampleStack: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := e.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := deepcluster.TableDC(emb, deepcluster.Config{
		K:              ds.NumTypes(),
		LatentDim:      16,
		PretrainEpochs: 20,
		RefineIters:    10,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Labels()
	acc, err := eval.ClusterACC(labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := eval.AdjustedRandIndex(labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := eval.NormalizedMutualInformation(labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.3 {
		t.Errorf("clustering ACC = %v, want >= 0.3", acc)
	}
	if ari <= 0 || nmi <= 0 {
		t.Errorf("ARI (%v) and NMI (%v) should be clearly positive", ari, nmi)
	}
	if math.IsNaN(acc + ari + nmi) {
		t.Error("metrics produced NaN")
	}
}

// TestPipelineBaselineComparison verifies the harness-level claim end to
// end on a mid-sized corpus: Gem (D+S) is at least competitive with every
// numeric-only baseline on Git Tables.
func TestPipelineBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison suite skipped in -short mode")
	}
	ds := data.GitTables(data.Config{Seed: 8, Scale: 0.15})
	e, err := core.NewEmbedder(core.Config{
		Components:     50,
		Restarts:       3,
		Seed:           8,
		SubsampleStack: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	gemEmb, err := e.FitEmbed(ds)
	if err != nil {
		t.Fatal(err)
	}
	gemAP, err := eval.AveragePrecisionByType(gemEmb, ds.Labels())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []baselines.Method{
		&baselines.PLE{Bins: 50},
		&baselines.PAF{Frequencies: 50},
		&baselines.KSStatistic{},
	} {
		emb, err := m.Embed(ds)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		ap, err := eval.AveragePrecisionByType(emb, ds.Labels())
		if err != nil {
			t.Fatal(err)
		}
		if ap > gemAP {
			t.Errorf("%s (%v) beat Gem (%v) on GitTables", m.Name(), ap, gemAP)
		}
	}
}

// gemVectors returns what a gemserve catalog holds: a model fitted on 2048
// ScalabilityDataset columns embeds n further columns and 256 held-out query
// columns one by one against its frozen moments, each brought to unit norm.
// The model is fitted once per test binary and shared by every caller.
func gemVectors(tb testing.TB, n int) (vecs, queries [][]float64) {
	tb.Helper()
	e, err := gemModel()
	if err != nil {
		tb.Fatal(err)
	}
	embed := func(ds *table.Dataset) [][]float64 {
		sigs, err := e.Signatures(ds)
		if err != nil {
			tb.Fatal(err)
		}
		out := make([][]float64, len(sigs))
		for i, sig := range sigs {
			row, err := e.EmbedSignature(sig)
			if err != nil {
				tb.Fatal(err)
			}
			out[i] = stats.L2Normalize(row)
		}
		return out
	}
	queries = embed(data.ScalabilityDataset(256, 2))
	// 8192 columns per generated dataset bounds the raw values held at once.
	for seed := int64(3); len(vecs) < n; seed++ {
		vecs = append(vecs, embed(data.ScalabilityDataset(min(n-len(vecs), 8192), seed))...)
	}
	return vecs, queries
}

var gemModel = sync.OnceValues(func() (*core.Embedder, error) {
	e, err := core.NewEmbedder(core.Config{Components: 50, Restarts: 1, Seed: 1, SubsampleStack: 8000})
	if err != nil {
		return nil, err
	}
	return e, e.Fit(data.ScalabilityDataset(2048, 1))
})

// clumpCorpus returns vecs with 600 evenly spread entries replaced by exact
// copies of the first — one column ingested 600 times — and 256 queries
// halfway between that clump and other columns, where an answer has to hold
// both some of the copies and the columns beyond them.
func clumpCorpus(vecs [][]float64) (clumped, queries [][]float64) {
	const copies, nq = 600, 256
	clumped = slices.Clone(vecs)
	dup := vecs[0]
	isDup := make([]bool, len(vecs))
	for i := 0; i < copies; i++ {
		at := i * len(vecs) / copies
		clumped[at], isDup[at] = dup, true
	}
	for j := 0; j < nq; j++ {
		at := j * len(vecs) / nq
		for isDup[at] {
			at++
		}
		mid := make([]float64, len(dup))
		for d := range mid {
			mid[d] = (dup[d] + vecs[at][d]) / 2
		}
		queries = append(queries, stats.L2Normalize(mid))
	}
	return clumped, queries
}

// exactTop10 is the brute-force answer the recall numbers are taken against.
func exactTop10(tb testing.TB, vecs, queries [][]float64) [][]ann.Result {
	tb.Helper()
	flat := ann.NewFlat(ann.Cosine)
	if err := flat.Add(vecs...); err != nil {
		tb.Fatal(err)
	}
	exact, err := flat.SearchBatch(queries, 10)
	if err != nil {
		tb.Fatal(err)
	}
	return exact
}

// buildBeam builds an HNSW over vecs at construction beam efc (0 = default)
// and times the build.
func buildBeam(tb testing.TB, vecs [][]float64, efc int) (*ann.HNSW, time.Duration) {
	tb.Helper()
	h, err := ann.NewHNSW(ann.HNSWConfig{Metric: ann.Cosine, Seed: 1, EfConstruction: efc}, pool.New(0))
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	if err := h.Add(vecs...); err != nil {
		tb.Fatal(err)
	}
	return h, time.Since(start)
}

// recallAt10 is h's recall@10 at search beam efSearch by distance multiset:
// the share of the exact top-10 distances the graph also returned, each
// counted once. Ids would punish a tie (any of 600 equal copies is as right
// as another); counting every returned distance that occurs in the exact
// answer would forgive a result that repeats one copy's distance.
func recallAt10(tb testing.TB, h *ann.HNSW, queries [][]float64, exact [][]ann.Result, efSearch int) float64 {
	tb.Helper()
	h.SetEfSearch(efSearch)
	got, err := h.SearchBatch(queries, 10)
	if err != nil {
		tb.Fatal(err)
	}
	hit, total := 0, 0
	for q := range exact {
		total += len(exact[q])
		for i, j := 0, 0; i < len(exact[q]) && j < len(got[q]); {
			switch a, b := exact[q][i].Dist, got[q][j].Dist; {
			case a == b:
				hit++
				i++
				j++
			case a < b:
				i++
			default:
				j++
			}
		}
	}
	return float64(hit) / float64(total)
}

// tombstone removes count ids spread evenly over h, which holds vecs under
// ids 0..len(vecs)-1, without a Rebuild — the state a catalog's index is in
// between compactions — and returns the vectors still live, the set an
// exact answer is taken over.
func tombstone(tb testing.TB, h *ann.HNSW, vecs [][]float64, count int) (live [][]float64) {
	tb.Helper()
	gone := make([]bool, len(vecs))
	for i := 0; i < count; i++ {
		gone[i*len(vecs)/count] = true
	}
	for id, v := range vecs {
		if !gone[id] {
			live = append(live, v)
		} else if err := h.Remove(id); err != nil {
			tb.Fatal(err)
		}
	}
	return live
}

// TestDefaultConstructionBeamRecall holds HNSWConfig.EfConstruction's default
// (0 below) to the rule it was chosen by — HNSW paper §4: take the narrowest
// beam that builds as good a graph as a wide one. On 8192 Gem embeddings its
// graph must answer within 0.001 of the better of the 100- and 200-wide
// graphs at search beam 100 and within 0.01 at 32 (the default search beam).
//
// The duplicate-clump corpus is not held to the rule: recall beside 600 exact
// copies is 0.42–0.85 depending on the level seed at every beam, so a bound
// there would pin one seed's noise (BenchmarkConstructionBeam prints it).
func TestDefaultConstructionBeamRecall(t *testing.T) {
	vecs, queries := gemVectors(t, 8192)
	exact := exactTop10(t, vecs, queries)
	recall := map[int][2]float64{}
	for _, efc := range []int{0, 100, 200} {
		h, _ := buildBeam(t, vecs, efc)
		recall[efc] = [2]float64{
			recallAt10(t, h, queries, exact, 100),
			recallAt10(t, h, queries, exact, 32),
		}
		t.Logf("construction beam %d: recall@10 %.4f at EfSearch 100, %.4f at 32",
			h.Config().EfConstruction, recall[efc][0], recall[efc][1])
	}
	for i, rule := range []struct {
		efSearch int
		tol      float64
	}{{100, 0.001}, {32, 0.01}} {
		wide := max(recall[100][i], recall[200][i])
		if got := recall[0][i]; got < wide-rule.tol {
			t.Errorf("EfSearch %d: recall@10 %.4f at the default construction beam, %.4f at the better of 100 and 200 (tolerance %g)",
				rule.efSearch, got, wide, rule.tol)
		}
	}
}

// TestDefaultSearchBeamRecall holds HNSWConfig.EfSearch's default to the rule
// EfConstruction's follows: the narrowest beam that answers like a wide one,
// plus one step of margin. On 8192 Gem embeddings, at the default
// construction beam, the default search beam must give recall@10 within
// 0.001 of EfSearch 100's — on the clean index and with 256 and 2048
// tombstones. The duplicate-clump corpus is not held to the rule, for the
// reason TestDefaultConstructionBeamRecall gives (BenchmarkSearchBeam prints
// it).
func TestDefaultSearchBeamRecall(t *testing.T) {
	vecs, queries := gemVectors(t, 8192)
	for _, tombstones := range []int{0, 256, 2048} {
		h, _ := buildBeam(t, vecs, 0)
		beam := h.Config().EfSearch
		exact := exactTop10(t, tombstone(t, h, vecs, tombstones), queries)
		def := recallAt10(t, h, queries, exact, beam)
		wide := recallAt10(t, h, queries, exact, 100)
		t.Logf("%d tombstones: recall@10 %.4f at the default search beam %d, %.4f at 100", tombstones, def, beam, wide)
		if def < wide-0.001 {
			t.Errorf("%d tombstones: recall@10 %.4f at the default search beam %d, %.4f at 100 (tolerance 0.001)",
				tombstones, def, beam, wide)
		}
	}
}

// TestSearchIndexDeterministicAcrossWorkers pins HNSW construction on real
// Gem vectors: the graph built over a 1000-column catalog embedding is
// byte-identical for worker counts 1, 2 and 8.
func TestSearchIndexDeterministicAcrossWorkers(t *testing.T) {
	vecs, _ := gemVectors(t, 1000)
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		h, err := ann.NewHNSW(ann.HNSWConfig{Metric: ann.Cosine, Seed: 1}, pool.New(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(vecs...); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("workers=%d built a different index over the catalog embedding", workers)
		}
	}
}
