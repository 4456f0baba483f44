// Command gembench regenerates the paper's tables and figures on the
// synthetic benchmark corpora.
//
// Usage:
//
//	gembench -exp all                 # every table and figure
//	gembench -exp table2 -scale 1.0   # paper-sized numeric-only comparison
//	gembench -exp fig4 -seed 7
//	gembench -exp table1,fig3         # a comma-separated list
//
// Experiments: table1, table2, table3, table4, fig3, fig4, fig5, all — or a
// comma-separated list.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/gem-embeddings/gem/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gembench: ")

	var (
		exp        = flag.String("exp", "all", "experiment(s) to run, comma separated: "+wantExperiments())
		seed       = flag.Int64("seed", 1, "random seed for corpora and models")
		scale      = flag.Float64("scale", 0.25, "corpus scale (1.0 = paper-sized)")
		components = flag.Int("components", 50, "Gem GMM components (m)")
		restarts   = flag.Int("restarts", 3, "EM restarts")
		reps       = flag.Int("reps", 3, "timed repetitions per point (fig5)")
		workers    = flag.Int("workers", 0, "worker-pool width shared by column fan-out and EM (0 = GOMAXPROCS; results are identical for every value)")
		out        = flag.String("out", "", "optional output file (default stdout)")
	)
	flag.Parse()

	opts := experiments.Options{
		Seed:       *seed,
		Scale:      *scale,
		Components: *components,
		Restarts:   *restarts,
		Workers:    *workers,
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

	if err := run(w, strings.ToLower(*exp), opts, *reps); err != nil {
		log.Fatal(err)
	}
}

// experimentNames is the single authoritative list of experiments; the
// selection check and the error messages derive from it so a new experiment
// is added in exactly one place (plus its run branch).
var experimentNames = []string{
	"table1", "table2", "table3", "table4",
	"fig3", "fig4", "fig5",
}

func wantExperiments() string {
	return strings.Join(experimentNames, "|") + "|all"
}

// run executes the selected experiments (a comma-separated list, or "all")
// and writes each rendered table or figure to w.
func run(w io.Writer, exp string, opts experiments.Options, reps int) error {
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
			return fmt.Errorf("unknown experiment %q (want %s, comma separated)", name, wantExperiments())
		}
	}

	if all || selected["table1"] {
		rows, err := experiments.Table1(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderTable1(rows))
		ran = true
	}
	if all || selected["table2"] {
		res, err := experiments.Table2(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["table3"] {
		res, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["table4"] {
		res, err := experiments.Table4(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["fig3"] {
		res, err := experiments.Figure3(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["fig4"] {
		res, err := experiments.Figure4(opts, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if all || selected["fig5"] {
		res, err := experiments.Figure5(opts, nil, reps)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		ran = true
	}
	if !ran {
		return fmt.Errorf("no experiment selected (want %s, comma separated)", wantExperiments())
	}
	return nil
}
