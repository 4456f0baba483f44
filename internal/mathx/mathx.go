// Package mathx provides numerical special functions and numerically stable
// primitives that the rest of the library builds on: a portable exp and its
// softmax row kernel, Kahan summation, and regularized incomplete gamma and
// beta functions.
//
// Everything here is implemented from scratch on top of the Go standard
// library math package; accuracy targets are ~1e-10 relative error in the
// well-conditioned regions, which is far beyond what the statistical
// machinery above it requires.
package mathx

import (
	"errors"
	"math"
)

// ErrDomain is returned (wrapped) when an argument lies outside a function's
// mathematical domain.
var ErrDomain = errors.New("mathx: argument outside domain")

// KahanSum sums xs using Kahan–Babuška compensated summation, which keeps the
// error independent of the number of terms.
func KahanSum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

const (
	igamEps      = 1e-14
	igamMaxIters = 500
)

// GammaIncP returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x) / Gamma(a), for a > 0, x >= 0.
func GammaIncP(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN(), errDomainf("GammaIncP(a=%v, x=%v)", a, x)
	case x < 0:
		return math.NaN(), errDomainf("GammaIncP(a=%v, x=%v)", a, x)
	case x == 0:
		return 0, nil
	case math.IsInf(x, 1):
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaIncSeries(a, x)
		return p, err
	}
	q, err := gammaIncCF(a, x)
	if err != nil {
		return math.NaN(), err
	}
	return 1 - q, nil
}

// GammaIncQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaIncQ(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN(), errDomainf("GammaIncQ(a=%v, x=%v)", a, x)
	case x < 0:
		return math.NaN(), errDomainf("GammaIncQ(a=%v, x=%v)", a, x)
	case x == 0:
		return 1, nil
	case math.IsInf(x, 1):
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaIncSeries(a, x)
		if err != nil {
			return math.NaN(), err
		}
		return 1 - p, nil
	}
	return gammaIncCF(a, x)
}

// gammaIncSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaIncSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < igamMaxIters; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*igamEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return math.NaN(), errDomainf("GammaIncP series did not converge (a=%v, x=%v)", a, x)
}

// gammaIncCF evaluates Q(a,x) by a modified Lentz continued fraction, valid
// for x >= a+1.
func gammaIncCF(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= igamMaxIters; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < igamEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return math.NaN(), errDomainf("GammaIncQ continued fraction did not converge (a=%v, x=%v)", a, x)
}

// BetaInc returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1].
func BetaInc(a, b, x float64) (float64, error) {
	switch {
	case a <= 0 || b <= 0 || math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN(), errDomainf("BetaInc(a=%v, b=%v, x=%v)", a, b, x)
	case x < 0 || x > 1:
		return math.NaN(), errDomainf("BetaInc(a=%v, b=%v, x=%v)", a, b, x)
	case x == 0:
		return 0, nil
	case x == 1:
		return 1, nil
	}
	lbeta := lbetaFn(a, b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	// Use the continued fraction in the region where it converges fastest and
	// the symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a) elsewhere.
	if x < (a+1)/(a+b+2) {
		cf, err := betaCF(a, b, x)
		if err != nil {
			return math.NaN(), err
		}
		return front * cf / a, nil
	}
	cf, err := betaCF(b, a, 1-x)
	if err != nil {
		return math.NaN(), err
	}
	return 1 - front*cf/b, nil
}

// lbetaFn returns log(Beta(a,b)).
func lbetaFn(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// LogBeta returns the natural log of the Beta function B(a,b) for a,b > 0.
func LogBeta(a, b float64) (float64, error) {
	if a <= 0 || b <= 0 {
		return math.NaN(), errDomainf("LogBeta(a=%v, b=%v)", a, b)
	}
	return lbetaFn(a, b), nil
}

// betaCF evaluates the continued fraction for the incomplete beta function by
// the modified Lentz method.
func betaCF(a, b, x float64) (float64, error) {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= igamMaxIters; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < igamEps {
			return h, nil
		}
	}
	return math.NaN(), errDomainf("BetaInc continued fraction did not converge (a=%v, b=%v, x=%v)", a, b, x)
}

// NormalCDF returns the standard normal CDF at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the standard normal quantile (inverse CDF) at
// p in (0, 1), using the Acklam rational approximation refined by one
// Halley step; absolute error is below 1e-12 across the open interval.
func NormalQuantile(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1), nil
		}
		if p == 1 {
			return math.Inf(1), nil
		}
		return math.NaN(), errDomainf("NormalQuantile(p=%v)", p)
	}
	x := acklam(p)
	// One Halley refinement step using the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x, nil
}

// acklam is Peter Acklam's rational approximation to the normal quantile.
func acklam(p float64) float64 {
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	const phigh = 1 - plow
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// AlmostEqual reports whether a and b agree to within tol either absolutely
// or relative to the larger magnitude.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	larger := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*larger
}
