// Command benchmark is the repository's benchmark: four workloads, each a
// full fit → load → serve → write → restart life of the system at one
// operating point, measured from outside through the layers' public
// functions and the HTTP API. See README.md in this directory.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds 20 --trace <0|1>
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1 (which also writes the span file).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json repeats both and
// adds the direction and the bound.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fit_s", "s"},
	{"embed_cols_per_s", "1/s"},
	{"type_precision", "fraction"},
	{"search_p50_ms", "ms"},
	{"search_batch_qps", "1/s"},
	{"recall_at_10", "fraction"},
	{"heap_mb", "MiB"},
	{"cold_search_p50_ms", "ms"},
	{"embed_http_cols_per_s", "1/s"},
	{"mixed_ops_per_s", "1/s"},
	{"add_p50_ms", "ms"},
	{"read_slo_ok_frac", "fraction"},
	{"restart_s", "s"},
	{"disk_bytes_per_col", "B"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	trace    bool
	tiny     bool
	// workDir holds the temporary store directories and traceDir the span
	// files; both default to places under the checkout's .bench_build.
	workDir  string
	traceDir string
}

func main() {
	var o options
	var trace, seconds int
	flag.StringVar(&o.workload, "workload", "", "workload to run: offline_fit, serve_hot_large, serve_cold_small or serve_mixed_durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed the traffic is generated from (the data set is fixed)")
	flag.IntVar(&seconds, "seconds", runSeconds, "how long the run measures; only BENCHMARK.json's run_seconds is accepted")
	flag.IntVar(&trace, "trace", 0, "1 records spans, writes the span file and prints the per-layer metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "test only: run at the smoke test's scale")
	aa := flag.Int("aa", 0, "run every workload N times in two interleaved sets and compare them (A/A check)")
	flag.Parse()
	if seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "benchmark: --seconds %d: the workloads are defined for %d s and no other length\n", seconds, runSeconds)
		os.Exit(2)
	}
	o.trace = trace != 0
	o.workDir = filepath.Join(".bench_build", "tmp")
	o.traceDir = filepath.Join(".bench_build", "trace")

	// One processor for generator and program together: on a shared 2-core
	// host the second core comes and goes, and every handoff between two
	// processors waits for it. See README.md, "Noise rules".
	runtime.GOMAXPROCS(1)

	if *aa > 0 {
		os.Exit(runAA(*aa, o.seed))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result. An error means the run
// could not be completed; a completed run whose gates failed comes back
// with Correct false.
func run(o options) (res *result, err error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	b := &bench{
		w: w, sz: fullSizes, seed: o.seed,
		acc: map[string][]float64{}, lat: map[string][]float64{}, values: map[string]float64{},
	}
	if o.tiny {
		b.w, b.sz = w.tiny(), tinySizes
	}
	if o.trace {
		b.w, b.tr = b.w.traced(), newTracer()
	}
	// Everything the run puts on disk lives in one directory of its own,
	// removed on every way out: on return, on a failed phase, and on an
	// interrupt.
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	b.workDir = runDir
	defer func() {
		tdErr := b.tearDown()
		if rmErr := os.RemoveAll(runDir); tdErr == nil {
			tdErr = rmErr
		}
		if err == nil && tdErr != nil {
			res, err = nil, tdErr
		}
	}()
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			os.RemoveAll(runDir)
			os.Exit(130)
		case <-done:
		}
	}()

	start := time.Now()
	b.generate()
	type phase struct {
		name string
		run  func() error
	}
	phases := []phase{{"set-up", func() error { return b.setUp(time.Since(start).Seconds()) }}}
	for r := 1; r <= b.w.rounds; r++ {
		phases = append(phases, phase{fmt.Sprintf("round %d", r), b.round})
	}
	phases = append(phases, phase{"recall and type precision", b.finish})
	for _, p := range phases {
		t0 := time.Now()
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s %s took %.1f s\n", w.name, p.name, time.Since(t0).Seconds())
	}
	defs := endToEnd
	if o.trace {
		if err := b.ladder(); err != nil {
			return nil, err
		}
		defs = perLayer
	}

	res = &result{
		Correct:   b.failed == 0 && len(b.violations) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var lines []metricLine
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		lines = append(lines, metricLine{Name: d.name, Value: v, Unit: d.unit})
	}
	if o.trace {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := writeTrace(path, b.tr, b.slices, lines); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "benchmark: trace written to", path)
	}
	return res, nil
}
