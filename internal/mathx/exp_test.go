package mathx

import (
	"bufio"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"testing"
)

// ulpDist is the number of float64 values between a and b, both ≥ 0.
func ulpDist(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// TestExpCorrectlyRounded compares Exp with e^x correctly rounded to
// float64, from an independent reference: 4 096 arguments across
// [−746, 0] (of them 256 in [−1, 0] and 256 in [−746, −700], the
// denormal range) and 256 across [0, 709.78], with the exp of each computed
// at 80 digits by Python's decimal module and rounded once to float64.
// testdata/exp.txt was generated once by:
//
//	import decimal, random, struct
//	decimal.getcontext().prec = 80
//	bits = lambda f: struct.unpack('<Q', struct.pack('<d', f))[0]
//	rng = random.Random(2410)
//	xs = [rng.uniform(-746, 0) for _ in range(3584)]
//	xs += [rng.uniform(-1, 0) for _ in range(256)]
//	xs += [rng.uniform(-746, -700) for _ in range(256)]
//	xs += [rng.uniform(0, 709.78) for _ in range(256)]
//	print('# x bits, correctly rounded exp(x) bits; see TestExpCorrectlyRounded')
//	for x in xs:
//	    print('%016x %016x' % (bits(x), bits(float(decimal.Decimal(x).exp()))))
//
// Every result must be the reference or one of its two neighbours.
func TestExpCorrectlyRounded(t *testing.T) {
	f, err := os.Open("testdata/exp.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n, exact := 0, 0
	for sc.Scan() {
		if line := sc.Text(); line == "" || line[0] == '#' {
			continue
		}
		var xb, wb uint64
		if _, err := fmt.Sscanf(sc.Text(), "%x %x", &xb, &wb); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		x, want := math.Float64frombits(xb), math.Float64frombits(wb)
		got := Exp(x)
		switch d := ulpDist(got, want); {
		case d == 0:
			exact++
		case d > 1:
			t.Errorf("Exp(%v) = %v, correctly rounded %v: %d ulp apart", x, got, want, d)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 4352 {
		t.Fatalf("read %d reference values, want 4352", n)
	}
	t.Logf("%d of %d correctly rounded, the rest within 1 ulp", exact, n)
}

// TestExpSpecialValues pins the ends of the domain: exactly 1 at ±0, exactly
// 0 where e^x rounds to zero, +Inf where it overflows, NaN for NaN.
func TestExpSpecialValues(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1)} {
		if got := Exp(x); got != 1 {
			t.Errorf("Exp(%v) = %v, want exactly 1", x, got)
		}
	}
	// e^x < 2^−1075 (half the smallest denormal) below −1075·ln2.
	for _, x := range []float64{-745.1333, -745.14, -745.5, -746, -746.5, -800, -1e300, math.Inf(-1)} {
		if got := Exp(x); got != 0 || math.Signbit(got) {
			t.Errorf("Exp(%v) = %v, want exactly +0", x, got)
		}
	}
	if got := Exp(-745.13); got != math.SmallestNonzeroFloat64 {
		t.Errorf("Exp(-745.13) = %v, want the smallest denormal", got)
	}
	if got := Exp(709.78); math.IsInf(got, 0) || got < 1.7e308 {
		t.Errorf("Exp(709.78) = %v, want finite near 1.79e308", got)
	}
	for _, x := range []float64{709.79, 710, 1e300, math.Inf(1)} {
		if got := Exp(x); !math.IsInf(got, 1) {
			t.Errorf("Exp(%v) = %v, want +Inf", x, got)
		}
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
}

// TestExpMonotone walks consecutive float64 arguments across every place
// the kernel changes path or the result changes range — the two-step
// scaling below expTiny and above expHuge, the normal/denormal boundary of
// the result near −708.40, the last nonzero result near −745.13 — and a
// coarse grid over the whole domain: the results may never decrease.
func TestExpMonotone(t *testing.T) {
	for _, at := range []float64{expTiny, -708.3964185322641, -745.1332191019411, 0, expHuge} {
		x := at
		for i := 0; i < 4096; i++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		prev := Exp(x)
		for i := 0; i < 8192; i++ {
			x = math.Nextafter(x, math.Inf(1))
			got := Exp(x)
			if got < prev {
				t.Fatalf("Exp(%v) = %v < Exp(previous float) = %v", x, got, prev)
			}
			prev = got
		}
	}
	prev := 0.0
	for x := -746.0; x <= 709.78; x += 1.0 / 1024 {
		got := Exp(x)
		if got < prev {
			t.Fatalf("Exp(%v) = %v < %v", x, got, prev)
		}
		prev = got
	}
}

// TestExpTable rebuilds every table entry independently with math/big:
// 2^(1/128) by seven square roots of 2 at 256 bits, 2^(j/128) as its
// powers, the scale as 2^(j/128) rounded to float64 and the tail as
// (2^(j/128) − scale)/scale rounded to float64.
func TestExpTable(t *testing.T) {
	const prec = 256
	root := new(big.Float).SetPrec(prec).SetInt64(2)
	for i := 0; i < expBits; i++ {
		root.Sqrt(root)
	}
	p := new(big.Float).SetPrec(prec).SetInt64(1)
	for j := 0; j < expN; j++ {
		scale, _ := p.Float64()
		s := new(big.Float).SetPrec(prec).SetFloat64(scale)
		tail := new(big.Float).SetPrec(prec).Sub(p, s)
		tailF, _ := tail.Quo(tail, s).Float64()
		wantScale := math.Float64bits(scale) - uint64(j)<<(52-expBits)
		if e := expTable[j]; e.tail != math.Float64bits(tailF) || e.scale != wantScale {
			t.Errorf("entry %d = {%#016x, %#016x}, want {%#016x, %#016x}",
				j, e.tail, e.scale, math.Float64bits(tailF), wantScale)
		}
		p.Mul(p, root)
	}
}

// TestExpRowMatchesExp requires the row kernel to give the scalar's bits
// for every entry, and its sum to be the in-order sum of those bits, on
// random rows shifted by their maximum and by arbitrary shifts.
func TestExpRowMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	for trial := 0; trial < 500; trial++ {
		row := make([]float64, 1+rng.Intn(80))
		scale := math.Pow(10, 3*rng.Float64())
		maxV := math.Inf(-1)
		for j := range row {
			row[j] = -scale * rng.ExpFloat64()
			maxV = math.Max(maxV, row[j])
		}
		if trial%10 == 0 {
			row[rng.Intn(len(row))] = math.NaN()
		}
		shift := maxV
		if trial%3 == 0 {
			shift = 800 * (rng.Float64() - 0.5)
		}
		got := append([]float64(nil), row...)
		sum := ExpRow(got, shift)
		var want float64
		for j, v := range row {
			e := Exp(v - shift)
			if math.Float64bits(got[j]) != math.Float64bits(e) && !(math.IsNaN(e) && math.IsNaN(got[j])) {
				t.Fatalf("trial %d entry %d: ExpRow %v, Exp %v", trial, j, got[j], e)
			}
			want += e
		}
		if math.Float64bits(sum) != math.Float64bits(want) && !(math.IsNaN(sum) && math.IsNaN(want)) {
			t.Fatalf("trial %d: sum %v, in-order sum of Exp %v", trial, sum, want)
		}
	}
}

var expSink float64

// BenchmarkExp reports ns per exponential for the scalar Exp and for
// ExpRow over softmax-shaped rows (50 log terms shifted by their maximum),
// beside math.Exp on the same arguments.
func BenchmarkExp(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	const k, rows = 50, 64
	args := make([]float64, k*rows)
	for i := range args {
		args[i] = -20 * rng.ExpFloat64()
		if i%k == 0 {
			args[i] = 0
		}
	}
	buf := make([]float64, len(args))
	perExp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(args)), "ns/exp")
	}
	b.Run("Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range args {
				expSink += Exp(x)
			}
		}
		perExp(b)
	})
	b.Run("ExpRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, args)
			for r := 0; r < rows; r++ {
				expSink += ExpRow(buf[r*k:r*k+k], 0)
			}
		}
		perExp(b)
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range args {
				expSink += math.Exp(x)
			}
		}
		perExp(b)
	})
}
