package experiments

// Benchmark regression gating: CI diffs a fresh gembench report against the
// checked-in baseline (BENCH_10.json). Quality metrics (recall, hit rate)
// are reproducible and get tight tolerances; throughput gets a deliberately
// loose ratio floor, because CI runners share cores and jitter by integer
// factors — the gate exists to catch an order-of-magnitude cliff (an
// accidentally quadratic path, a disabled index), not a noisy ±20%.

import (
	"encoding/json"
	"fmt"
	"io"
)

const (
	// maxRecallDrop is the tolerated decrease in any recall@k metric.
	maxRecallDrop = 0.05
	// maxHitRateDelta is the tolerated fall of a serve cache hit rate
	// below the baseline, and its tolerated excess over the stream's
	// duplicate fraction. The baseline is the floor of the workload (every
	// duplicate in flight beside its first copy misses with it) and a run
	// reads above it by however many duplicates arrived after their first
	// copy was cached, which is timing; but only a duplicate can hit, so a
	// rate above the duplicate fraction is a false hit whatever the timing.
	maxHitRateDelta = 0.1
	// minQPSRatio is the floor on fresh/baseline throughput.
	minQPSRatio = 1.0 / 8
	// minProxySpeedup is the floor on the batched-vs-single proxy QPS
	// ratio. Batching's advantage is structural — one round trip and one
	// coalesced embed pass amortized over the whole batch — so unlike raw
	// QPS it is stable across runner speeds and gated as an absolute.
	minProxySpeedup = 2.0
	// maxAllocGrowth and allocSlack bound fresh allocations per query at
	// baseline·growth + slack. MemStats counts whole-process mallocs, so
	// the gate is loose: it exists to catch a reintroduced per-candidate
	// allocation, not to audit single allocs.
	maxAllocGrowth = 4.0
	allocSlack     = 32.0
)

// ReadBenchReport decodes a BenchReport from JSON.
func ReadBenchReport(r io.Reader) (*BenchReport, error) {
	var b BenchReport
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("%w: decoding bench report: %v", ErrRun, err)
	}
	return &b, nil
}

// CompareBenchReports diffs a fresh report against a baseline and returns
// one human-readable violation per regression (empty means the gate
// passes). Sections present in the baseline must be present in the fresh
// report; new sections and tiers in the fresh report are fine.
func CompareBenchReports(baseline, fresh *BenchReport) []string {
	var v []string
	if fresh.Schema < baseline.Schema {
		v = append(v, fmt.Sprintf("schema regressed: %d -> %d", baseline.Schema, fresh.Schema))
	}
	if baseline.Search != nil {
		if fresh.Search == nil {
			v = append(v, "search section missing from fresh report")
		} else {
			v = append(v, compareSearch(baseline.Search, fresh.Search)...)
		}
	}
	if baseline.Serve != nil {
		if fresh.Serve == nil {
			v = append(v, "serve section missing from fresh report")
		} else {
			v = append(v, compareServe(baseline.Serve, fresh.Serve)...)
		}
	}
	if baseline.Load != nil {
		if fresh.Load == nil {
			v = append(v, "load section missing from fresh report")
		} else {
			v = append(v, compareLoad(baseline.Load, fresh.Load)...)
		}
	}
	return v
}

func checkRecall(what string, base, got float64) []string {
	if got < base-maxRecallDrop {
		return []string{fmt.Sprintf("%s dropped %.4f -> %.4f (tolerance %.2f)", what, base, got, maxRecallDrop)}
	}
	return nil
}

func checkQPS(what string, base, got float64) []string {
	if base > 0 && got < base*minQPSRatio {
		return []string{fmt.Sprintf("%s collapsed %.0f -> %.0f qps (floor %.2fx baseline)", what, base, got, minQPSRatio)}
	}
	return nil
}

func compareSearch(base, got *SearchReport) []string {
	var v []string
	v = append(v, checkRecall("search recall@k", base.RecallAtK, got.RecallAtK)...)
	v = append(v, checkQPS("flat search", base.FlatQPS, got.FlatQPS)...)
	v = append(v, checkQPS("hnsw search", base.HNSWQPS, got.HNSWQPS)...)
	for _, bt := range base.Tiers {
		var gt *TierReport
		for i := range got.Tiers {
			if got.Tiers[i].Precision == bt.Precision {
				gt = &got.Tiers[i]
				break
			}
		}
		if gt == nil {
			v = append(v, fmt.Sprintf("precision tier %q missing from fresh report", bt.Precision))
			continue
		}
		v = append(v, checkRecall(fmt.Sprintf("tier %s flat recall@k", bt.Precision), bt.FlatRecallAtK, gt.FlatRecallAtK)...)
		v = append(v, checkRecall(fmt.Sprintf("tier %s hnsw recall@k", bt.Precision), bt.RecallAtK, gt.RecallAtK)...)
		v = append(v, checkQPS(fmt.Sprintf("tier %s flat search", bt.Precision), bt.FlatQPS, gt.FlatQPS)...)
		v = append(v, checkQPS(fmt.Sprintf("tier %s hnsw search", bt.Precision), bt.HNSWQPS, gt.HNSWQPS)...)
	}
	if base.Batch != nil {
		if got.Batch == nil {
			v = append(v, "batched-search section missing from fresh report")
		} else {
			v = append(v, compareBatch(base.Batch, got.Batch)...)
		}
	}
	return v
}

// compareBatch gates the batched-search section: the loose shared QPS
// floor per sweep point, an allocation ceiling relative to the baseline,
// and — whenever the baseline carried a proxy comparison — the absolute
// ≥2x batched-vs-single speedup contract.
func compareBatch(base, got *BatchReport) []string {
	var v []string
	for _, bp := range base.Points {
		var gp *BatchPointReport
		for i := range got.Points {
			if got.Points[i].BatchSize == bp.BatchSize && got.Points[i].Workers == bp.Workers {
				gp = &got.Points[i]
				break
			}
		}
		if gp == nil {
			v = append(v, fmt.Sprintf("batch point size=%d workers=%d missing from fresh report", bp.BatchSize, bp.Workers))
			continue
		}
		what := fmt.Sprintf("batch size=%d workers=%d", bp.BatchSize, bp.Workers)
		v = append(v, checkQPS(what+" flat", bp.FlatQPS, gp.FlatQPS)...)
		v = append(v, checkQPS(what+" hnsw", bp.HNSWQPS, gp.HNSWQPS)...)
		for _, c := range []struct {
			name      string
			base, got float64
		}{
			{"flat", bp.FlatAllocs, gp.FlatAllocs},
			{"hnsw", bp.HNSWAllocs, gp.HNSWAllocs},
		} {
			if limit := c.base*maxAllocGrowth + allocSlack; c.got > limit {
				v = append(v, fmt.Sprintf("%s %s allocations grew %.1f -> %.1f per query (limit %.1f)",
					what, c.name, c.base, c.got, limit))
			}
		}
	}
	if base.ProxySpeedup > 0 {
		v = append(v, checkQPS("proxy single-query search", base.ProxySingleQPS, got.ProxySingleQPS)...)
		v = append(v, checkQPS("proxy batched search", base.ProxyBatchQPS, got.ProxyBatchQPS)...)
		if got.ProxySpeedup < minProxySpeedup {
			v = append(v, fmt.Sprintf("proxy batch speedup %.2fx below the %.1fx floor (single %.0f qps, batched %.0f qps at batch %d)",
				got.ProxySpeedup, minProxySpeedup, got.ProxySingleQPS, got.ProxyBatchQPS, got.ProxyBatchSize))
		}
	}
	return v
}

func compareServe(base, got *ServeReport) []string {
	var v []string
	for _, bp := range base.Points {
		var gp *ServePointReport
		for i := range got.Points {
			if got.Points[i].DupFraction == bp.DupFraction {
				gp = &got.Points[i]
				break
			}
		}
		if gp == nil {
			v = append(v, fmt.Sprintf("serve point dup=%.2f missing from fresh report", bp.DupFraction))
			continue
		}
		if gp.HitRate < bp.HitRate-maxHitRateDelta {
			v = append(v, fmt.Sprintf("serve dup=%.2f hit rate fell %.3f -> %.3f (tolerance %.2f)", bp.DupFraction, bp.HitRate, gp.HitRate, maxHitRateDelta))
		}
		if gp.HitRate > bp.DupFraction+maxHitRateDelta {
			v = append(v, fmt.Sprintf("serve dup=%.2f hit rate %.3f exceeds the stream's duplicate fraction (tolerance %.2f)", bp.DupFraction, gp.HitRate, maxHitRateDelta))
		}
		v = append(v, checkQPS(fmt.Sprintf("serve dup=%.2f", bp.DupFraction), bp.QPS, gp.QPS)...)
	}
	return v
}

// compareLoad gates the load section. Op counts are deterministic in
// (options, seed), so a shifted traffic mix is an exact-match failure;
// throughput gets the shared loose floor; and the BASELINE's SLO ceilings
// — the checked-in contract — are enforced against the FRESH run's
// measured search percentiles, alongside any violations the fresh run
// already recorded against its own configuration.
func compareLoad(base, got *LoadReport) []string {
	var v []string
	if got.Searches != base.Searches || got.Adds != base.Adds || got.Removes != base.Removes {
		v = append(v, fmt.Sprintf("load op mix changed: %d/%d/%d searches/adds/removes, baseline %d/%d/%d",
			got.Searches, got.Adds, got.Removes, base.Searches, base.Adds, base.Removes))
	}
	if base.LiveColumns != 0 && got.LiveColumns != base.LiveColumns {
		v = append(v, fmt.Sprintf("load live columns after replay changed: %d, baseline %d", got.LiveColumns, base.LiveColumns))
	}
	v = append(v, checkQPS("load closed-loop", base.QPS, got.QPS)...)
	for _, c := range []struct {
		name       string
		limit, got float64
	}{
		{"search p50", base.SLOP50Ms, got.SearchP50Ms},
		{"search p95", base.SLOP95Ms, got.SearchP95Ms},
		{"search p99", base.SLOP99Ms, got.SearchP99Ms},
	} {
		if c.limit > 0 && c.got > c.limit {
			v = append(v, fmt.Sprintf("load %s %.3f ms exceeds baseline SLO %.3f ms", c.name, c.got, c.limit))
		}
	}
	for _, s := range got.SLOViolations {
		v = append(v, "load run-recorded SLO violation: "+s)
	}
	return v
}
