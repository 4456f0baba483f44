package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"github.com/gem-embeddings/gem/internal/table"
)

// Input generation. The data set — labelled corpus, catalog, model seed — is
// a function of the constant dataSeed; the traffic a run sends — hot pool,
// never-seen columns, the write stream's adds and removes — is a function of
// --seed. The program only ever sees the generated inputs.

// stream derives an independent generator seed for one named input stream
// (splitmix64 over the run seed and the stream number), so adding a stream
// never shifts the inputs of another.
func stream(seed int64, n uint64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*(n+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}

const (
	streamCatalog = iota
	streamLabelled
	streamHotPool
	streamFresh
	streamAdds
	streamRemoves
	streamLadder
)

// freshColumns draws never-seen columns: a two-component normal mixture
// with per-column location and scale, rounded to two decimals like the
// catalog generators. The values are continuous, so two columns never share
// a content key and every add really adds. nValues <= 0 draws 40–150 values
// per column, the catalog's shape; the cost of embedding depends on the
// value count, not on the shape.
type freshColumns struct {
	rng    *rand.Rand
	prefix string
	n      int
}

func newFreshColumns(seed int64, prefix string) *freshColumns {
	return &freshColumns{rng: rand.New(rand.NewSource(seed)), prefix: prefix}
}

func (g *freshColumns) next(nValues int) table.Column {
	if nValues <= 0 {
		nValues = 40 + g.rng.Intn(111)
	}
	loc := g.rng.NormFloat64() * 100
	scale := math.Exp(g.rng.NormFloat64())
	gap := (1 + 4*g.rng.Float64()) * scale
	mix := 0.2 + 0.6*g.rng.Float64()
	vals := make([]float64, nValues)
	for i := range vals {
		v := loc + scale*g.rng.NormFloat64()
		if g.rng.Float64() < mix {
			v += gap
		}
		vals[i] = math.Round(v*100) / 100
	}
	g.n++
	return table.Column{Name: fmt.Sprintf("%s-%06d", g.prefix, g.n), Values: vals}
}

func (g *freshColumns) batch(n, nValues int) []table.Column {
	cols := make([]table.Column, n)
	for i := range cols {
		cols[i] = g.next(nValues)
	}
	return cols
}

// Request bodies, marshalled before any timer starts.

type columnJSON struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

func wireColumns(cols []table.Column) []columnJSON {
	out := make([]columnJSON, len(cols))
	for i, c := range cols {
		out[i] = columnJSON{Name: c.Name, Values: c.Values}
	}
	return out
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return b
}

func searchBody(col table.Column) []byte {
	return mustMarshal(struct {
		Column columnJSON `json:"column"`
		K      int        `json:"k"`
	}{columnJSON{col.Name, col.Values}, k})
}

func searchBatchBody(cols []table.Column) []byte {
	return mustMarshal(struct {
		Columns []columnJSON `json:"columns"`
		K       int          `json:"k"`
	}{wireColumns(cols), k})
}

// columnsBody is the payload of both POST /columns and POST /embed.
func columnsBody(cols []table.Column) []byte {
	return mustMarshal(struct {
		Columns []columnJSON `json:"columns"`
	}{wireColumns(cols)})
}
