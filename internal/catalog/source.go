package catalog

// The ingest layer: one Source interface behind every way a catalog of
// columns enters the system. cmd/gemembed, cmd/gemsearch and cmd/gemserve
// resolve their flags through Spec instead of carrying private copies of the
// CSV/synthetic dispatch.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/table"
)

// Source yields a catalog of numeric columns.
type Source interface {
	// Name describes the source (used in errors and as the Dataset name).
	Name() string
	// Load materializes the catalog. Implementations validate shape: a
	// successful load has at least one numeric column.
	Load() (*table.Dataset, error)
}

// File reads one CSV file in the gemembed format (header row, optional
// "#type:" ground-truth row, data rows).
func File(path string) Source { return fileSource(path) }

type fileSource string

func (f fileSource) Name() string { return string(f) }

func (f fileSource) Load() (*table.Dataset, error) {
	fh, err := os.Open(string(f))
	if err != nil {
		return nil, fmt.Errorf("catalog: opening %s: %w", f, err)
	}
	defer fh.Close()
	return table.ReadCSV(fh, string(f))
}

// Glob reads every CSV matched by a glob pattern (or every *.csv file of a
// directory) and merges their numeric columns into one dataset, in sorted
// path order so the catalog is independent of directory enumeration order.
func Glob(pattern string) Source { return globSource(pattern) }

type globSource string

func (g globSource) Name() string { return string(g) }

func (g globSource) Load() (*table.Dataset, error) {
	pattern := string(g)
	if st, err := os.Stat(pattern); err == nil && st.IsDir() {
		pattern = filepath.Join(pattern, "*.csv")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("%w: bad glob %q: %v", ErrInput, pattern, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: glob %q matches no files", ErrInput, pattern)
	}
	sort.Strings(paths)
	merged := &table.Dataset{Name: string(g)}
	for _, p := range paths {
		ds, err := File(p).Load()
		if err != nil {
			return nil, err
		}
		merged.Columns = append(merged.Columns, ds.Columns...)
	}
	return merged, nil
}

// Reader parses one CSV stream (e.g. stdin) in the gemembed format.
func Reader(r io.Reader, name string) Source { return readerSource{r: r, name: name} }

type readerSource struct {
	r    io.Reader
	name string
}

func (s readerSource) Name() string { return s.name }

func (s readerSource) Load() (*table.Dataset, error) { return table.ReadCSV(s.r, s.name) }

// Synthetic generates an n-column synthetic catalog, deterministic in
// (n, seed) — the corpus every CLI's -synthetic flag produces.
func Synthetic(n int, seed int64) Source { return syntheticSource{n: n, seed: seed} }

type syntheticSource struct {
	n    int
	seed int64
}

func (s syntheticSource) Name() string { return fmt.Sprintf("synthetic-%d", s.n) }

func (s syntheticSource) Load() (*table.Dataset, error) {
	if s.n <= 0 {
		return nil, fmt.Errorf("%w: synthetic catalog needs n > 0, got %d", ErrInput, s.n)
	}
	return data.ScalabilityDataset(s.n, s.seed), nil
}

// Memory wraps an already-materialized dataset.
func Memory(ds *table.Dataset) Source { return memorySource{ds} }

type memorySource struct{ ds *table.Dataset }

func (s memorySource) Name() string {
	if s.ds == nil {
		return "memory"
	}
	return s.ds.Name
}

func (s memorySource) Load() (*table.Dataset, error) {
	if s.ds == nil {
		return nil, fmt.Errorf("%w: nil in-memory dataset", ErrInput)
	}
	return s.ds, nil
}

// Spec is the shared CLI flag convention: a path flag (file, directory or
// glob), a -synthetic count, and optionally a fallback stream for commands
// that read stdin when no path is given.
type Spec struct {
	// Path is the -in/-fit value: a CSV file, a directory (its *.csv
	// files), or a glob pattern.
	Path string
	// Synthetic is the -synthetic/-fit-synthetic column count.
	Synthetic int
	// Seed drives synthetic generation.
	Seed int64
	// Stdin, when non-nil, is used if neither Path nor Synthetic is set.
	Stdin io.Reader
	// StdinName names the Stdin source (default "stdin").
	StdinName string
}

// Source resolves the spec to exactly one source, enforcing the mutual
// exclusions the CLIs used to hand-roll.
func (s Spec) Source() (Source, error) {
	switch {
	case s.Path != "" && s.Synthetic > 0:
		return nil, fmt.Errorf("%w: a file/glob path and a synthetic catalog are mutually exclusive", ErrInput)
	case s.Path != "":
		// An existing literal path wins over glob interpretation, so a
		// file literally named "data[1].csv" keeps opening directly the
		// way it always did; only paths that do NOT exist as-is are
		// treated as patterns.
		if st, err := os.Stat(s.Path); err == nil {
			if st.IsDir() {
				return Glob(s.Path), nil
			}
			return File(s.Path), nil
		}
		if strings.ContainsAny(s.Path, "*?[") {
			return Glob(s.Path), nil
		}
		return File(s.Path), nil
	case s.Synthetic > 0:
		return Synthetic(s.Synthetic, s.Seed), nil
	case s.Stdin != nil:
		name := s.StdinName
		if name == "" {
			name = "stdin"
		}
		return Reader(s.Stdin, name), nil
	default:
		return nil, fmt.Errorf("%w: need a catalog: a CSV path/glob or a synthetic column count", ErrInput)
	}
}
