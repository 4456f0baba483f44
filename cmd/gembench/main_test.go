package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/gem-embeddings/gem/internal/experiments"
)

func tinyOpts() experiments.Options {
	return experiments.Options{
		Seed:           1,
		Scale:          0.04,
		Components:     8,
		Restarts:       2,
		SubsampleStack: 2000,
		HeaderDim:      48,
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "bogus", tinyOpts(), 1)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("want unknown-experiment error, got %v", err)
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", tinyOpts(), 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "GDS", "WDC", "Sato Tables", "Git Tables"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table2", tinyOpts(), 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "Gem (D+S)", "Squashing_GMM", "KS statistic"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig3(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig3", tinyOpts(), 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "D+C+S") {
		t.Errorf("output missing Figure 3 content:\n%s", out)
	}
}

// TestRunCommaList: a comma-separated experiment list runs each entry, and a
// list with an unknown entry fails loudly instead of half-running.
func TestRunCommaList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1,fig3", tinyOpts(), 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Figure 3") {
		t.Errorf("list run missing an experiment:\n%s", out)
	}
	buf.Reset()
	if err := run(&buf, "table1,bogus", tinyOpts(), 1); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown entry in list: got %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("rejected list still ran an experiment:\n%s", buf.String())
	}
}
