package mathx

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumPrecision(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms entirely.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1e-16)
	}
	got := KahanSum(xs)
	want := 1 + 1e-12
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("KahanSum = %.18f, want %.18f", got, want)
	}
}

func TestKahanSumMatchesExact(t *testing.T) {
	f := func(xs []float64) bool {
		// Restrict to moderate values so a long double-free reference is exact.
		var clean []float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, math.Mod(x, 1e6))
		}
		var naive float64
		for _, x := range clean {
			naive += x
		}
		return AlmostEqual(KahanSum(clean), naive, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tc := range tests {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestGammaIncPKnownValues(t *testing.T) {
	// Reference values from the identity P(1, x) = 1 - exp(-x) and
	// P(1/2, x) = erf(sqrt(x)).
	tests := []struct {
		a, x float64
	}{
		{1, 0.5}, {1, 1}, {1, 3}, {0.5, 0.25}, {0.5, 2}, {2.5, 1.3}, {10, 9},
	}
	for _, tc := range tests {
		got, err := GammaIncP(tc.a, tc.x)
		if err != nil {
			t.Fatalf("GammaIncP(%v, %v): %v", tc.a, tc.x, err)
		}
		var want float64
		switch tc.a {
		case 1:
			want = 1 - math.Exp(-tc.x)
		case 0.5:
			want = math.Erf(math.Sqrt(tc.x))
		default:
			// Fall back to consistency with Q.
			q, err := GammaIncQ(tc.a, tc.x)
			if err != nil {
				t.Fatal(err)
			}
			want = 1 - q
		}
		if !AlmostEqual(got, want, 1e-10) {
			t.Errorf("GammaIncP(%v, %v) = %v, want %v", tc.a, tc.x, got, want)
		}
	}
}

func TestGammaIncComplement(t *testing.T) {
	f := func(a, x float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 20))
		x = math.Abs(math.Mod(x, 40))
		p, err1 := GammaIncP(a, x)
		q, err2 := GammaIncQ(a, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return AlmostEqual(p+q, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGammaIncPDomainErrors(t *testing.T) {
	for _, tc := range []struct{ a, x float64 }{{-1, 1}, {0, 1}, {1, -0.5}, {math.NaN(), 1}} {
		if _, err := GammaIncP(tc.a, tc.x); !errors.Is(err, ErrDomain) {
			t.Errorf("GammaIncP(%v, %v): want ErrDomain, got %v", tc.a, tc.x, err)
		}
	}
}

func TestGammaIncPEdge(t *testing.T) {
	if p, err := GammaIncP(3, 0); err != nil || p != 0 {
		t.Errorf("GammaIncP(3, 0) = %v, %v; want 0, nil", p, err)
	}
	if p, err := GammaIncP(3, math.Inf(1)); err != nil || p != 1 {
		t.Errorf("GammaIncP(3, +Inf) = %v, %v; want 1, nil", p, err)
	}
}

func TestGammaIncPMonotone(t *testing.T) {
	a := 2.7
	prev := -1.0
	for x := 0.0; x < 20; x += 0.25 {
		p, err := GammaIncP(a, x)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev-1e-12 {
			t.Fatalf("GammaIncP(%v, %v) = %v decreased from %v", a, x, p, prev)
		}
		prev = p
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// I_x(1, 1) = x;  I_x(2, 1) = x^2;  I_x(1, 2) = 1 - (1-x)^2.
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got, err := BetaInc(1, 1, x)
		if err != nil || !AlmostEqual(got, x, 1e-10) {
			t.Errorf("BetaInc(1, 1, %v) = %v, %v; want %v", x, got, err, x)
		}
		got, err = BetaInc(2, 1, x)
		if err != nil || !AlmostEqual(got, x*x, 1e-10) {
			t.Errorf("BetaInc(2, 1, %v) = %v, %v; want %v", x, got, err, x*x)
		}
		got, err = BetaInc(1, 2, x)
		want := 1 - (1-x)*(1-x)
		if err != nil || !AlmostEqual(got, want, 1e-10) {
			t.Errorf("BetaInc(1, 2, %v) = %v, %v; want %v", x, got, err, want)
		}
	}
}

func TestBetaIncSymmetry(t *testing.T) {
	f := func(a, b, x float64) bool {
		a = 0.2 + math.Abs(math.Mod(a, 10))
		b = 0.2 + math.Abs(math.Mod(b, 10))
		x = math.Abs(math.Mod(x, 1))
		p1, err1 := BetaInc(a, b, x)
		p2, err2 := BetaInc(b, a, 1-x)
		if err1 != nil || err2 != nil {
			return false
		}
		return AlmostEqual(p1, 1-p2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBetaIncEdgesAndDomain(t *testing.T) {
	if v, err := BetaInc(2, 3, 0); err != nil || v != 0 {
		t.Errorf("BetaInc(2,3,0) = %v, %v", v, err)
	}
	if v, err := BetaInc(2, 3, 1); err != nil || v != 1 {
		t.Errorf("BetaInc(2,3,1) = %v, %v", v, err)
	}
	for _, tc := range []struct{ a, b, x float64 }{{-1, 1, 0.5}, {1, 0, 0.5}, {1, 1, -0.1}, {1, 1, 1.1}} {
		if _, err := BetaInc(tc.a, tc.b, tc.x); !errors.Is(err, ErrDomain) {
			t.Errorf("BetaInc(%v, %v, %v): want ErrDomain, got %v", tc.a, tc.b, tc.x, err)
		}
	}
}

func TestLogBeta(t *testing.T) {
	// B(2, 3) = 1/12.
	got, err := LogBeta(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(got, math.Log(1.0/12), 1e-12) {
		t.Errorf("LogBeta(2,3) = %v, want log(1/12)", got)
	}
	if _, err := LogBeta(0, 1); !errors.Is(err, ErrDomain) {
		t.Errorf("LogBeta(0,1): want ErrDomain, got %v", err)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	tests := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, tc := range tests {
		if got := NormalCDF(tc.z); !AlmostEqual(got, tc.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", tc.z, got, tc.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(p float64) bool {
		p = math.Abs(math.Mod(p, 1))
		if p <= 1e-12 || p >= 1-1e-12 {
			return true
		}
		z, err := NormalQuantile(p)
		if err != nil {
			return false
		}
		return AlmostEqual(NormalCDF(z), p, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if z, err := NormalQuantile(0); err != nil || !math.IsInf(z, -1) {
		t.Errorf("NormalQuantile(0) = %v, %v", z, err)
	}
	if z, err := NormalQuantile(1); err != nil || !math.IsInf(z, 1) {
		t.Errorf("NormalQuantile(1) = %v, %v", z, err)
	}
	if _, err := NormalQuantile(-0.1); !errors.Is(err, ErrDomain) {
		t.Errorf("NormalQuantile(-0.1): want ErrDomain, got %v", err)
	}
	if _, err := NormalQuantile(1.5); !errors.Is(err, ErrDomain) {
		t.Errorf("NormalQuantile(1.5): want ErrDomain, got %v", err)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1, 0) {
		t.Error("identical values must compare equal at tol 0")
	}
	if !AlmostEqual(1e16, 1e16+1, 1e-12) {
		t.Error("relative tolerance should absorb 1 ulp at 1e16")
	}
	if AlmostEqual(1, 2, 1e-12) {
		t.Error("1 and 2 are not almost equal")
	}
}
