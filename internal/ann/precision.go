package ann

// Precision-tiered distance kernels. An index stores its vectors in the
// authoritative float64 form and, when a reduced precision is selected,
// keeps a contiguous scan copy (float32, or int8 codes with a per-vector
// scale) that the hot distance kernels run on. Scanning touches half (or a
// quarter) of the bytes per comparison; the candidates that survive the
// scan are then re-scored exactly in float64, so the reduced precision can
// only cost recall inside the candidate set, never reorder the final
// ranking against the exact distances (the quantize-then-rerank shape).
//
// Every kernel accumulates in fixed-width blocks with independent
// accumulator chains, so results are bit-identical at every worker-pool
// width and on every run — the same determinism contract as the float64
// path, per precision tier.

import (
	"fmt"
	"math"
)

// Precision selects the storage and scan precision of an index's distance
// kernels. The float64 vectors remain authoritative in every mode: they
// back persistence and the exact re-rank of scan candidates.
type Precision uint8

const (
	// Float64 scans the authoritative vectors directly; no re-rank needed.
	Float64 Precision = iota
	// Float32 scans a contiguous float32 copy and re-ranks in float64.
	Float32
	// Int8 scans symmetric int8 codes (per-vector scale maxAbs/127) and
	// re-ranks in float64.
	Int8
)

// String names the precision the way the CLIs spell it.
func (p Precision) String() string {
	switch p {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	default:
		return "float64"
	}
}

// ParsePrecision parses the CLI spelling of a precision tier.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "float64", "f64":
		return Float64, nil
	case "float32", "f32":
		return Float32, nil
	case "int8", "i8":
		return Int8, nil
	default:
		return 0, fmt.Errorf("%w: unknown precision %q (want float64|float32|int8)", ErrInput, s)
	}
}

// checkPrecision validates a configured precision value.
func checkPrecision(p Precision) error {
	if p > Int8 {
		return fmt.Errorf("%w: unknown precision %d", ErrInput, p)
	}
	return nil
}

// rerankDepth is how many scan-order candidates the reduced-precision
// tiers re-score in float64 before cutting to k. Wide enough that a
// neighbour displaced by quantization noise still makes the candidate set,
// narrow enough that the re-rank cost stays a small constant per query.
func rerankDepth(k int) int { return 4*k + 16 }

// dotF32 is the float32 inner product, blocked into four independent
// accumulator chains. Accumulation is in float32 (the scan precision);
// the fixed chain assignment makes the sum order deterministic.
func dotF32(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return float64((s0 + s1) + (s2 + s3))
}

// sqSumF32 is the blocked float32 sum of squares.
func sqSumF32(v []float32) float64 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+3 < len(v); i += 4 {
		s0 += v[i] * v[i]
		s1 += v[i+1] * v[i+1]
		s2 += v[i+2] * v[i+2]
		s3 += v[i+3] * v[i+3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] * v[i]
	}
	return float64((s0 + s1) + (s2 + s3))
}

// l2SqF32 is the blocked float32 squared Euclidean distance.
func l2SqF32(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+3 < len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return float64((s0 + s1) + (s2 + s3))
}

// dotI8 is the blocked int8 inner product: terms are exact in int32
// (magnitude at most 127·127) and accumulate in four independent int64
// chains, which cannot overflow below 2^49 dimensions — far beyond the
// persistence cap.
func dotI8(a, b []int8) int64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += int64(int32(a[i]) * int32(b[i]))
		s1 += int64(int32(a[i+1]) * int32(b[i+1]))
		s2 += int64(int32(a[i+2]) * int32(b[i+2]))
		s3 += int64(int32(a[i+3]) * int32(b[i+3]))
	}
	for ; i < len(a); i++ {
		s0 += int64(int32(a[i]) * int32(b[i]))
	}
	return (s0 + s1) + (s2 + s3)
}

// quantizeScale returns the symmetric int8 quantization scale of v:
// maxAbs/127, or 0 for the all-zero vector. Deterministic in v alone, so
// the scales persisted alongside an int8 index can be validated exactly
// against the vectors on load.
func quantizeScale(v []float64) float32 {
	var maxAbs float64
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	return float32(maxAbs / 127)
}

// quantizeInto fills codes with round(x/scale) clamped to [-127, 127].
func quantizeInto(codes []int8, v []float64, scale float32) {
	if scale == 0 {
		for i := range codes {
			codes[i] = 0
		}
		return
	}
	inv := 1 / float64(scale)
	for i, x := range v {
		q := math.Round(x * inv)
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		codes[i] = int8(q)
	}
}

// vecStore holds an index's vectors: the authoritative float64 form
// (persistence, Rebuild, exact re-rank) plus the contiguous scan copy of
// the configured precision. All appends go through add, so the scan copy
// never drifts from the vectors.
type vecStore struct {
	metric Metric
	prec   Precision
	dim    int
	vecs   [][]float64
	norms  []float64 // exact float64 L2 norms (float64 scan + re-rank)

	f32 []float32 // Float32: contiguous n×dim scan copy
	n32 []float64 // Float32: L2 norms of the float32 copy

	codes  []int8    // Int8: contiguous n×dim symmetric codes
	scales []float32 // Int8: per-vector quantization scale
	ni8    []float64 // Int8: L2 norms of the dequantized codes
}

func newVecStore(metric Metric, prec Precision) vecStore {
	return vecStore{metric: metric, prec: prec}
}

func (s *vecStore) len() int { return len(s.vecs) }

// add appends validated vectors (see checkAdd) and their scan copies. The
// float64 copies of one call share a single backing array.
func (s *vecStore) add(dim int, vecs [][]float64) {
	s.dim = dim
	slab := make([]float64, 0, len(vecs)*dim)
	for _, v := range vecs {
		at := len(slab)
		slab = append(slab, v...)
		cp := slab[at:len(slab):len(slab)]
		s.vecs = append(s.vecs, cp)
		s.norms = append(s.norms, Norm(cp))
		switch s.prec {
		case Float32:
			at := len(s.f32)
			s.f32 = append(s.f32, make([]float32, len(cp))...)
			row := s.f32[at:]
			for i, x := range cp {
				row[i] = float32(x)
			}
			s.n32 = append(s.n32, math.Sqrt(sqSumF32(row)))
		case Int8:
			scale := quantizeScale(cp)
			at := len(s.codes)
			s.codes = append(s.codes, make([]int8, len(cp))...)
			row := s.codes[at:]
			quantizeInto(row, cp, scale)
			s.scales = append(s.scales, scale)
			s.ni8 = append(s.ni8, float64(scale)*math.Sqrt(float64(dotI8(row, row))))
		}
	}
}

// row32 returns stored vector id's float32 scan row.
func (s *vecStore) row32(id int) []float32 { return s.f32[id*s.dim : (id+1)*s.dim] }

// rowI8 returns stored vector id's int8 code row.
func (s *vecStore) rowI8(id int) []int8 { return s.codes[id*s.dim : (id+1)*s.dim] }

// scanQuery is one query prepared for the store's scan precision: the
// float64 form plus the reduced representation, each quantized exactly
// once per search.
type scanQuery struct {
	f64 []float64
	n64 float64 // exact float64 norm (re-rank)

	f32 []float32
	i8  []int8
	qs  float32 // int8 quantization scale of the query
	nq  float64 // scan-space query norm (cosine denominator)
}

// query prepares q for scanning. The float64 fields are always filled —
// they drive the exact re-rank.
func (s *vecStore) query(q []float64) scanQuery {
	var sc scratch
	return *s.queryInto(&sc, q)
}

// queryInto prepares q for scanning into sc's reusable buffers and returns
// sc.sq. Steady state this allocates nothing: the reduced-precision copies
// live in sc and are overwritten per query.
func (s *vecStore) queryInto(sc *scratch, q []float64) *scanQuery {
	sq := &sc.sq
	*sq = scanQuery{f64: q, n64: Norm(q)}
	switch s.prec {
	case Float64:
		sq.nq = sq.n64
	case Float32:
		sc.f32 = grow(sc.f32, len(q))
		for i, x := range q {
			sc.f32[i] = float32(x)
		}
		sq.f32 = sc.f32
		sq.nq = math.Sqrt(sqSumF32(sq.f32))
	case Int8:
		sc.i8 = grow(sc.i8, len(q))
		sq.qs = quantizeScale(q)
		quantizeInto(sc.i8, q, sq.qs)
		sq.i8 = sc.i8
		sq.nq = float64(sq.qs) * math.Sqrt(float64(dotI8(sq.i8, sq.i8)))
	}
	return sq
}

// queryOf views stored vector id as a scanQuery without copying — the
// insertion path scores stored vectors against each other with the same
// kernels a search uses.
func (s *vecStore) queryOf(id int) scanQuery {
	sq := scanQuery{f64: s.vecs[id], n64: s.norms[id]}
	switch s.prec {
	case Float64:
		sq.nq = sq.n64
	case Float32:
		sq.f32 = s.row32(id)
		sq.nq = s.n32[id]
	case Int8:
		sq.i8 = s.rowI8(id)
		sq.qs = s.scales[id]
		sq.nq = s.ni8[id]
	}
	return sq
}

// scanDist returns the scan-precision distance from a prepared query to
// stored vector id. In Float64 mode this IS the exact metric distance.
func (s *vecStore) scanDist(q *scanQuery, id int) float64 {
	switch s.prec {
	case Float32:
		if s.metric == Euclidean {
			return math.Sqrt(l2SqF32(q.f32, s.row32(id)))
		}
		nb := s.n32[id]
		if q.nq == 0 || nb == 0 {
			return 1
		}
		return 1 - dotF32(q.f32, s.row32(id))/(q.nq*nb)
	case Int8:
		dot := float64(q.qs) * float64(s.scales[id]) * float64(dotI8(q.i8, s.rowI8(id)))
		if s.metric == Euclidean {
			d2 := q.nq*q.nq + s.ni8[id]*s.ni8[id] - 2*dot
			if d2 < 0 {
				d2 = 0
			}
			return math.Sqrt(d2)
		}
		nb := s.ni8[id]
		if q.nq == 0 || nb == 0 {
			return 1
		}
		return 1 - dot/(q.nq*nb)
	default:
		return s.metric.distNormed(q.f64, q.n64, s.vecs[id], s.norms[id])
	}
}

// exactDist returns the exact float64 metric distance from a prepared
// query to stored vector id — the re-rank scorer.
func (s *vecStore) exactDist(q *scanQuery, id int) float64 {
	return s.metric.distNormed(q.f64, q.n64, s.vecs[id], s.norms[id])
}

// rerank re-scores scan-order candidates exactly in float64 and returns
// them sorted by (exact distance, id), using the caller's sorter scratch so
// the sort allocates nothing. In Float64 mode the scan distances already
// are exact, so callers skip this.
func (s *vecStore) rerank(q *scanQuery, cands []Result, so *resultSorter) []Result {
	for i := range cands {
		cands[i].Dist = s.exactDist(q, cands[i].ID)
	}
	so.sort(cands)
	return cands
}
