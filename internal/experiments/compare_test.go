package experiments

import (
	"strings"
	"testing"
)

func benchFixture() *BenchReport {
	return &BenchReport{
		Schema: BenchSchemaVersion,
		Search: &SearchReport{
			RecallAtK: 0.99, FlatQPS: 1000, HNSWQPS: 8000,
			Tiers: []TierReport{
				{Precision: "float64", FlatRecallAtK: 1, RecallAtK: 0.99, FlatQPS: 1000, HNSWQPS: 8000},
				{Precision: "float32", FlatRecallAtK: 0.999, RecallAtK: 0.99, FlatQPS: 1800, HNSWQPS: 9000},
			},
		},
		Serve: &ServeReport{Points: []ServePointReport{
			{DupFraction: 0, QPS: 500, HitRate: 0},
			{DupFraction: 0.5, QPS: 900, HitRate: 0.45},
		}},
	}
}

// TestCompareBenchReports drives the regression gate over a table of
// mutations: identical reports pass, tolerated jitter passes, and each
// class of real regression produces a violation naming the metric.
func TestCompareBenchReports(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*BenchReport)
		want   string // substring of an expected violation; "" = pass
	}{
		{"identical", func(b *BenchReport) {}, ""},
		{"tolerated-jitter", func(b *BenchReport) {
			b.Search.RecallAtK -= 0.03
			b.Search.FlatQPS /= 2
			b.Serve.Points[1].HitRate -= 0.05
		}, ""},
		{"extra-tier-ok", func(b *BenchReport) {
			b.Search.Tiers = append(b.Search.Tiers, TierReport{Precision: "int8"})
		}, ""},
		{"schema-regress", func(b *BenchReport) { b.Schema = 1 }, "schema regressed"},
		{"recall-drop", func(b *BenchReport) { b.Search.RecallAtK = 0.8 }, "search recall@k dropped"},
		{"tier-recall-drop", func(b *BenchReport) { b.Search.Tiers[1].RecallAtK = 0.5 }, "tier float32 hnsw recall@k"},
		{"qps-collapse", func(b *BenchReport) { b.Search.HNSWQPS = 100 }, "hnsw search collapsed"},
		{"tier-qps-collapse", func(b *BenchReport) { b.Search.Tiers[1].FlatQPS = 10 }, "tier float32 flat search collapsed"},
		{"tier-missing", func(b *BenchReport) { b.Search.Tiers = b.Search.Tiers[:1] }, `tier "float32" missing`},
		{"search-missing", func(b *BenchReport) { b.Search = nil }, "search section missing"},
		{"serve-missing", func(b *BenchReport) { b.Serve = nil }, "serve section missing"},
		{"hit-rate-moved", func(b *BenchReport) { b.Serve.Points[1].HitRate = 0.1 }, "hit rate fell"},
		{"hit-rate-rose-within-dup", func(b *BenchReport) { b.Serve.Points[1].HitRate = 0.58 }, ""},
		{"hit-rate-above-dup", func(b *BenchReport) { b.Serve.Points[1].HitRate = 0.9 }, "exceeds the stream's duplicate fraction"},
		{"hit-rate-above-dup-zero", func(b *BenchReport) { b.Serve.Points[0].HitRate = 0.5 }, "serve dup=0.00 hit rate 0.500 exceeds"},
		{"serve-point-missing", func(b *BenchReport) { b.Serve.Points = b.Serve.Points[:1] }, "serve point dup=0.50 missing"},
		{"serve-qps-collapse", func(b *BenchReport) { b.Serve.Points[0].QPS = 10 }, "serve dup=0.00 collapsed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := benchFixture()
			tc.mutate(fresh)
			got := CompareBenchReports(benchFixture(), fresh)
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("want pass, got violations: %v", got)
				}
				return
			}
			for _, v := range got {
				if strings.Contains(v, tc.want) {
					return
				}
			}
			t.Fatalf("no violation containing %q in %v", tc.want, got)
		})
	}
}

// TestReadBenchReportRoundTrip: a written report decodes back.
func TestReadBenchReportRoundTrip(t *testing.T) {
	var buf strings.Builder
	if err := benchFixture().Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchemaVersion || got.Search == nil || len(got.Search.Tiers) != 2 || got.Serve == nil {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if _, err := ReadBenchReport(strings.NewReader("{broken")); err == nil {
		t.Fatal("corrupt JSON: want error")
	}
}
