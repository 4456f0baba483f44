// Command gembench regenerates the paper's tables and figures on the
// synthetic benchmark corpora.
//
// Usage:
//
//	gembench -exp all                 # every table and figure
//	gembench -exp table2 -scale 1.0   # paper-sized numeric-only comparison
//	gembench -exp fig4 -seed 7
//	gembench -exp search,serve -json BENCH_10.json
//	gembench -exp search,serve -json fresh.json -baseline BENCH_10.json
//
// Experiments: table1, table2, table3, table4, fig3, fig4, fig5, search,
// serve, all — or a comma-separated list. -json additionally writes the
// machine-readable results (QPS, recall@k, latency percentiles) of the
// search and serve experiments; CI uploads that file as the BENCH_10
// perf-trajectory artifact. -baseline diffs the fresh results against a
// previously written report and fails on regressions (recall drops beyond
// tolerance, order-of-magnitude throughput collapses, missing sections).
// The search experiment sweeps the index precision tiers listed in
// -precision against one exact float64 ground truth.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gembench: ")

	var (
		exp        = flag.String("exp", "all", "experiment(s) to run, comma separated: table1|table2|table3|table4|fig3|fig4|fig5|search|serve|all")
		seed       = flag.Int64("seed", 1, "random seed for corpora and models")
		scale      = flag.Float64("scale", 0.25, "corpus scale (1.0 = paper-sized)")
		components = flag.Int("components", 50, "Gem GMM components (m)")
		restarts   = flag.Int("restarts", 3, "EM restarts")
		reps       = flag.Int("reps", 3, "timed repetitions per point (fig5)")
		workers    = flag.Int("workers", 0, "worker-pool width shared by column fan-out and EM (0 = GOMAXPROCS; results are identical for every value)")
		out        = flag.String("out", "", "optional output file (default stdout)")
		jsonOut    = flag.String("json", "", "write machine-readable search/serve/load results to this file")
		baseline   = flag.String("baseline", "", "diff the fresh search/serve/load results against this bench report and fail on regressions")
		precList   = flag.String("precision", "", "comma-separated index scan precisions the search experiment sweeps (default float64,float32,int8)")
		loadShards = flag.Int("load-shards", 0, "catalog shard count for the load experiment (0 = default 2)")
		loadOps    = flag.Int("load-ops", 0, "closed-loop op count for the load experiment (0 = scale-derived)")
		sloP50     = flag.Float64("slo-p50-ms", 0, "load experiment search p50 ceiling in ms (0 = unchecked)")
		sloP95     = flag.Float64("slo-p95-ms", 0, "load experiment search p95 ceiling in ms (0 = unchecked)")
		sloP99     = flag.Float64("slo-p99-ms", 0, "load experiment search p99 ceiling in ms (0 = unchecked)")
	)
	flag.Parse()

	opts := experiments.Options{
		Seed:       *seed,
		Scale:      *scale,
		Components: *components,
		Restarts:   *restarts,
		Workers:    *workers,
	}
	precisions, err := parsePrecisions(*precList)
	if err != nil {
		log.Fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("creating %s: %v", *out, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatalf("closing %s: %v", *out, err)
			}
		}()
		w = f
	}

	// Validate -json/-baseline against the selection BEFORE running
	// anything: a paper-sized experiment can take hours, and failing
	// afterwards would throw that work away. The baseline file is read up
	// front for the same reason.
	if (*jsonOut != "" || *baseline != "") && !selectsReporting(strings.ToLower(*exp)) {
		log.Fatalf("-json and -baseline need a reporting experiment: add search and/or serve to -exp %s", *exp)
	}
	var base *experiments.BenchReport
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			log.Fatalf("opening baseline: %v", err)
		}
		base, err = experiments.ReadBenchReport(f)
		f.Close()
		if err != nil {
			log.Fatalf("reading baseline %s: %v", *baseline, err)
		}
	}
	loadOpts := experiments.LoadOptions{
		Options: opts,
		Shards:  *loadShards,
		Ops:     *loadOps,
		SLO:     experiments.LoadSLO{P50Ms: *sloP50, P95Ms: *sloP95, P99Ms: *sloP99},
	}
	report, err := run(w, strings.ToLower(*exp), opts, *reps, precisions, loadOpts)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatalf("creating %s: %v", *jsonOut, err)
		}
		err = report.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("writing %s: %v", *jsonOut, err)
		}
	}
	if base != nil {
		if violations := experiments.CompareBenchReports(base, report); len(violations) > 0 {
			for _, v := range violations {
				log.Printf("regression vs %s: %s", *baseline, v)
			}
			log.Fatalf("%d regression(s) against baseline %s", len(violations), *baseline)
		}
		fmt.Fprintf(w, "no regressions against baseline %s\n", *baseline)
	}
}

// parsePrecisions parses the -precision sweep list; empty means the
// SearchOptions default (all tiers).
func parsePrecisions(spec string) ([]ann.Precision, error) {
	if spec == "" {
		return nil, nil
	}
	var out []ann.Precision
	for _, part := range strings.Split(spec, ",") {
		p, err := ann.ParsePrecision(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// experimentNames is the single authoritative list of experiments; the
// selection map, the error messages and the -json compatibility check all
// derive from it so a new experiment is added in exactly one place (plus
// its run branch).
var experimentNames = []string{
	"table1", "table2", "table3", "table4",
	"fig3", "fig4", "fig5", "search", "serve", "load",
}

// reportingExperiments fill the machine-readable -json report.
var reportingExperiments = map[string]bool{"search": true, "serve": true, "load": true}

func wantExperiments() string {
	return strings.Join(experimentNames, "|") + "|all"
}

// selectsReporting reports whether the -exp selection includes an
// experiment that fills the machine-readable report.
func selectsReporting(exp string) bool {
	for _, part := range strings.Split(exp, ",") {
		name := strings.TrimSpace(part)
		if name == "all" || reportingExperiments[name] {
			return true
		}
	}
	return false
}

// run executes the selected experiments (a comma-separated list, or
// "all") and returns the machine-readable report of those that have one.
func run(w io.Writer, exp string, opts experiments.Options, reps int, precisions []ann.Precision, loadOpts experiments.LoadOptions) (*experiments.BenchReport, error) {
	report := &experiments.BenchReport{
		Schema:  experiments.BenchSchemaVersion,
		Seed:    opts.Seed,
		Scale:   opts.Scale,
		Workers: opts.Workers,
	}
	selected := make(map[string]bool)
	for _, part := range strings.Split(exp, ",") {
		if part = strings.TrimSpace(part); part != "" {
			selected[part] = true
		}
	}
	all := selected["all"]
	ran := false

	known := map[string]bool{"all": true}
	for _, name := range experimentNames {
		known[name] = true
	}
	for name := range selected {
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q (want %s, comma separated)", name, wantExperiments())
		}
	}

	if all || selected["table1"] {
		rows, err := experiments.Table1(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, experiments.RenderTable1(rows))
		ran = true
	}
	if all || selected["table2"] {
		res, err := experiments.Table2(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["table3"] {
		res, err := experiments.Table3(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["table4"] {
		res, err := experiments.Table4(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["fig3"] {
		res, err := experiments.Figure3(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["fig4"] {
		res, err := experiments.Figure4(opts, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["fig5"] {
		res, err := experiments.Figure5(opts, nil, reps)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["search"] {
		res, err := experiments.SearchEval(experiments.SearchOptions{Options: opts, Precisions: precisions})
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		if msg := res.FitStats.Warning(); msg != "" {
			fmt.Fprintln(os.Stderr, msg)
		}
		report.Search = experiments.NewSearchReport(res)
		ran = true
	}
	if all || selected["serve"] {
		res, err := experiments.ServeEval(experiments.ServeOptions{Options: opts})
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		report.Serve = experiments.NewServeReport(res)
		ran = true
	}
	if all || selected["load"] {
		loadOpts.Options = opts
		res, err := experiments.LoadEval(loadOpts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, res)
		report.Load = experiments.NewLoadReport(res)
		ran = true
	}
	if !ran {
		return nil, fmt.Errorf("no experiment selected (want %s, comma separated)", wantExperiments())
	}
	return report, nil
}
