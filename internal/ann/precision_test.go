package ann

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/gem-embeddings/gem/internal/pool"
)

func TestParsePrecision(t *testing.T) {
	cases := map[string]Precision{
		"float64": Float64, "f64": Float64,
		"float32": Float32, "f32": Float32,
		"int8": Int8, "i8": Int8,
	}
	for s, want := range cases {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, p := range allPrecisions {
		if got, err := ParsePrecision(p.String()); err != nil || got != p {
			t.Errorf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParsePrecision("fp16"); !errors.Is(err, ErrInput) {
		t.Errorf("ParsePrecision(fp16) err = %v, want ErrInput", err)
	}
	if err := checkPrecision(Precision(7)); !errors.Is(err, ErrInput) {
		t.Errorf("checkPrecision(7) err = %v, want ErrInput", err)
	}
	if _, err := NewFlatAt(Cosine, Precision(7)); !errors.Is(err, ErrInput) {
		t.Errorf("NewFlatAt(7) err = %v, want ErrInput", err)
	}
	if _, err := NewHNSW(HNSWConfig{Precision: Precision(7)}, nil); !errors.Is(err, ErrInput) {
		t.Errorf("NewHNSW precision 7 err = %v, want ErrInput", err)
	}
}

// TestQuantization pins the symmetric int8 scheme: round-trip error is at
// most half a quantization step, and the all-zero vector is representable.
func TestQuantization(t *testing.T) {
	for _, v := range randomVectors(20, 32, 7) {
		scale := quantizeScale(v)
		codes := make([]int8, len(v))
		quantizeInto(codes, v, scale)
		for i, x := range v {
			deq := float64(scale) * float64(codes[i])
			if eps := float64(scale)/2 + 1e-12; math.Abs(deq-x) > eps {
				t.Fatalf("component %d: dequant %g vs %g exceeds half-step %g", i, deq, x, eps)
			}
		}
	}
	zero := make([]float64, 8)
	if s := quantizeScale(zero); s != 0 {
		t.Fatalf("zero-vector scale = %g, want 0", s)
	}
	codes := []int8{5, -3}
	quantizeInto(codes, zero[:2], 0)
	if codes[0] != 0 || codes[1] != 0 {
		t.Fatalf("zero-scale codes = %v, want zeros", codes)
	}
}

// TestFlatReducedPrecisionExactWhenCovered: when the candidate set covers
// the whole index (n <= rerankDepth(k)), the reduced-precision Flat must
// return results bit-identical to the float64 Flat — the re-rank restores
// the exact distances and the exact order.
func TestFlatReducedPrecisionExactWhenCovered(t *testing.T) {
	vecs := randomVectors(50, 12, 31) // rerankDepth(10) = 56 >= 50
	qs := randomVectors(20, 12, 32)
	for _, metric := range []Metric{Cosine, Euclidean} {
		ref := NewFlat(metric)
		if err := ref.Add(vecs...); err != nil {
			t.Fatal(err)
		}
		for _, prec := range []Precision{Float32, Int8} {
			t.Run(metric.String()+"/"+prec.String(), func(t *testing.T) {
				f, err := NewFlatAt(metric, prec)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Add(vecs...); err != nil {
					t.Fatal(err)
				}
				if f.Precision() != prec {
					t.Fatalf("Precision() = %v, want %v", f.Precision(), prec)
				}
				for qi, q := range qs {
					want, err := ref.Search(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					got, err := f.Search(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("query %d rank %d: %+v, want %+v", qi, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// recallVs returns the fraction of ids in want that also appear in got.
func recallVs(got, want []Result) float64 {
	if len(want) == 0 {
		return 1
	}
	ids := make(map[int]bool, len(got))
	for _, r := range got {
		ids[r.ID] = true
	}
	hit := 0
	for _, r := range want {
		if ids[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// TestReducedPrecisionRecall: on a larger catalog the quantized tiers must
// keep high recall against the exact float64 scan, and every distance they
// report must be the exact float64 metric distance (the re-rank contract).
func TestReducedPrecisionRecall(t *testing.T) {
	vecs := randomVectors(2000, 16, 41)
	qs := randomVectors(50, 16, 42)
	ref := NewFlat(Cosine)
	if err := ref.Add(vecs...); err != nil {
		t.Fatal(err)
	}
	build := func(prec Precision, hnsw bool) Index {
		if hnsw {
			// The floors measure the precision tiers on random 16-dim
			// vectors, not the search beam, so the beam they were set at
			// is pinned.
			h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 9, EfSearch: 100, Precision: prec}, pool.New(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Add(vecs...); err != nil {
				t.Fatal(err)
			}
			return h
		}
		f, err := NewFlatAt(Cosine, prec)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(vecs...); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		name      string
		idx       Index
		minRecall float64
	}{
		{"flat/float32", build(Float32, false), 0.999},
		{"flat/int8", build(Int8, false), 0.95},
		{"hnsw/float32", build(Float32, true), 0.99},
		{"hnsw/int8", build(Int8, true), 0.90},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var recall float64
			for _, q := range qs {
				want, err := ref.Search(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tc.idx.Search(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range got {
					if exact := Cosine.Distance(q, vecs[r.ID]); r.Dist != exact {
						t.Fatalf("rank %d id %d: Dist %v, exact %v — re-rank must report exact distances", i, r.ID, r.Dist, exact)
					}
				}
				recall += recallVs(got, want)
			}
			recall /= float64(len(qs))
			if recall < tc.minRecall {
				t.Fatalf("mean recall@10 = %.4f, want >= %.4f", recall, tc.minRecall)
			}
		})
	}
}

// TestPersistPrecisionRoundTrip: every precision tier survives a save/load
// round trip with bit-identical re-saved bytes and bit-identical search
// results, for both index kinds.
func TestPersistPrecisionRoundTrip(t *testing.T) {
	vecs := randomVectors(120, 10, 51)
	qs := randomVectors(10, 10, 52)
	for _, prec := range allPrecisions {
		h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 4, Precision: prec}, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFlatAt(Cosine, prec)
		if err != nil {
			t.Fatal(err)
		}
		for name, idx := range map[string]Index{"flat": f, "hnsw": h} {
			t.Run(name+"/"+prec.String(), func(t *testing.T) {
				if err := idx.Add(vecs...); err != nil {
					t.Fatal(err)
				}
				if err := idx.Remove(7); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := idx.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(bytes.NewReader(buf.Bytes()), nil)
				if err != nil {
					t.Fatal(err)
				}
				if loaded.Precision() != prec {
					t.Fatalf("loaded precision %v, want %v", loaded.Precision(), prec)
				}
				var again bytes.Buffer
				if err := loaded.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), again.Bytes()) {
					t.Fatal("re-saved bytes differ from the original save")
				}
				for qi, q := range qs {
					want, err := idx.Search(q, 8)
					if err != nil {
						t.Fatal(err)
					}
					got, err := loaded.Search(q, 8)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("query %d rank %d: %+v, want %+v", qi, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestPersistCorruptScales: the int8 scale section is validated bit-exactly
// against the vectors on load — truncation, count mismatches and flipped or
// non-finite values must all fail with ErrFormat, never panic.
func TestPersistCorruptScales(t *testing.T) {
	const n, dim = 12, 4
	f, err := NewFlatAt(Cosine, Int8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(randomVectors(n, dim, 61)...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Flat v3 layout: magic(8)+kind(1)+metric(1)+prec(1)=11, dim/n uint32s,
	// then the vector payload; the scale section count sits right after it.
	countOff := 11 + 8 + n*dim*8
	scalesOff := countOff + 4
	if got := binary.LittleEndian.Uint32(good[countOff:]); got != n {
		t.Fatalf("scale count at offset %d = %d, want %d (layout drifted?)", countOff, got, n)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			raw := mutate(append([]byte(nil), good...))
			if _, err := Load(bytes.NewReader(raw), nil); !errors.Is(err, ErrFormat) {
				t.Errorf("Load err = %v, want ErrFormat", err)
			}
		})
	}
	corrupt("count-mismatch", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[countOff:], n-1)
		return b
	})
	corrupt("truncated-scales", func(b []byte) []byte {
		return b[:scalesOff+2]
	})
	corrupt("flipped-scale", func(b []byte) []byte {
		b[scalesOff+1] ^= 0x40 // perturb vector 0's scale mantissa/exponent
		return b
	})
	corrupt("nan-scale", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[scalesOff:], math.Float32bits(float32(math.NaN())))
		return b
	})
	corrupt("inf-scale", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[scalesOff+4:], math.Float32bits(float32(math.Inf(1))))
		return b
	})
}

// TestWidenEfClamp pins the deleted-aware ef widening: proportional for
// light churn, clamped at 2x the base once tombstones dominate, so a
// mass-removal cannot widen the beam without bound.
func TestWidenEfClamp(t *testing.T) {
	for _, tc := range []struct{ base, nDeleted, want int }{
		{100, 0, 100},
		{100, 50, 150},
		{100, 200, 300},
		{100, 4500, 300}, // clamp: was base+4500 before the fix
		{64, 64, 128},
		{10, 1 << 20, 30},
	} {
		if got := widenEf(tc.base, tc.nDeleted); got != tc.want {
			t.Errorf("widenEf(%d, %d) = %d, want %d", tc.base, tc.nDeleted, got, tc.want)
		}
	}
}

// TestHNSWMassRemoval is the regression test for the unbounded ef widening:
// after removing 90% of a 5k-vector index, Search must still return k live
// results with solid recall against an exact scan of the same survivors —
// and the clamped beam keeps the query cost bounded.
func TestHNSWMassRemoval(t *testing.T) {
	const n, dim, k = 5000, 16, 10
	vecs := randomVectors(n, dim, 71)
	h, err := NewHNSW(HNSWConfig{Metric: Cosine, Seed: 8, M: 8, EfConstruction: 80, EfSearch: 64}, pool.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Add(vecs...); err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(Cosine)
	if err := flat.Add(vecs...); err != nil {
		t.Fatal(err)
	}
	// Remove 90%: every id not divisible by 10.
	for id := 0; id < n; id++ {
		if id%10 == 0 {
			continue
		}
		if err := h.Remove(id); err != nil {
			t.Fatal(err)
		}
		if err := flat.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if h.Live() != n/10 {
		t.Fatalf("Live = %d, want %d", h.Live(), n/10)
	}
	qs := randomVectors(30, dim, 72)
	var recall float64
	for _, q := range qs {
		want, err := flat.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("Search returned %d results, want %d", len(got), k)
		}
		for _, r := range got {
			if r.ID%10 != 0 {
				t.Fatalf("result id %d is tombstoned", r.ID)
			}
		}
		recall += recallVs(got, want)
	}
	recall /= float64(len(qs))
	if recall < 0.8 {
		t.Fatalf("recall@%d after 90%% removal = %.3f, want >= 0.8", k, recall)
	}
}
