package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func tinyRun(t *testing.T, workload string, trace bool, dir string) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: 7, trace: trace, tiny: true,
		workDir: filepath.Join(dir, "tmp"), traceDir: filepath.Join(dir, "trace"),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(left) != 0 {
		t.Errorf("%s: %d entries left in the work directory (%v)", workload, len(left), err)
	}
	return res
}

// checkMetrics asserts that a run printed exactly the declared metrics
// with the declared units.
func checkMetrics(t *testing.T, what string, got map[string]metricValue, want []declaredMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", what, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s printed in %q, declared in %q", what, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", what, m.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload at the tiny scale, untraced and traced,
// and holds what they print against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, list := range [][]declaredMetric{decl.EndToEnd, decl.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q in %q breaks the naming rules", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("metric %s: bound %v", m.Name, m.Bound)
			}
		}
	}
	dir := t.TempDir()
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		plain := tinyRun(t, w.Name, false, dir)
		checkMetrics(t, w.Name, plain.Metrics, decl.EndToEnd)
		for _, m := range decl.EndToEnd {
			if plain.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
		// The deterministic metrics repeat to the last digit for one seed.
		again := tinyRun(t, w.Name, false, dir)
		for _, name := range []string{"type_precision", "recall_at_10", "disk_bytes_per_col"} {
			if a, b := plain.Metrics[name].Value, again.Metrics[name].Value; math.Abs(a-b) > 1e-9 {
				t.Errorf("%s: %s = %v, then %v", w.Name, name, a, b)
			}
		}
		traced := tinyRun(t, w.Name, true, dir)
		checkMetrics(t, w.Name+" traced", traced.Metrics, decl.PerLayer)
		checkTrace(t, filepath.Join(dir, "trace", w.Name+"-seed7.jsonl"), decl)
	}
}

// checkTrace parses a span file: every line is a span, a slice record or a
// metric; every span names an existing parent; and the file repeats every
// per-layer metric.
func checkTrace(t *testing.T, path string, decl *declaration) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int]bool{0: true}
	var spans []span
	metrics := map[string]bool{}
	slices := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var line traceLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		switch {
		case line.Span != nil:
			ids[line.Span.ID] = true
			spans = append(spans, *line.Span)
		case line.Slices != nil:
			slices++
		case line.Metric != nil:
			metrics[line.Metric.Name] = true
		default:
			t.Fatalf("%s: empty line %q", path, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || slices == 0 {
		t.Fatalf("%s: %d spans, %d slice records", path, len(spans), slices)
	}
	for _, s := range spans {
		if !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
	}
	for _, m := range decl.PerLayer {
		if !metrics[m.Name] {
			t.Errorf("%s: per-layer metric %s missing", path, m.Name)
		}
	}
}

func TestBestQuarter(t *testing.T) {
	times := []float64{5, 1, 9, 2, 3, 8, 7, 4} // best quarter of 8 = best 2
	if got := bestQuarter(times, true); got != 1.5 {
		t.Errorf("lowest two of %v: got %v, want 1.5", times, got)
	}
	if got := bestQuarter(times, false); got != 8.5 {
		t.Errorf("highest two of %v: got %v, want 8.5", times, got)
	}
	if got := bestQuarter([]float64{3, 2, 4}, true); got != 2 {
		t.Errorf("best of three: got %v, want 2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("got %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
