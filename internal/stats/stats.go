// Package stats provides the statistical machinery used throughout the
// library: online (Welford) moment accumulation, batch summaries,
// normal and Student-t distribution functions with quantile inversion,
// confidence intervals, and the error metrics used in the evaluation
// (RMSE, MAE, geometric mean).
//
// Everything is implemented from scratch on the standard library; the
// special functions (log-gamma, regularized incomplete beta) use
// textbook continued-fraction expansions and are accurate to well
// beyond the tolerances this package is used at.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Welford accumulates count, mean and variance online in a numerically
// stable way. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations added.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 if fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance returns the population (biased) variance.
func (w *Welford) PopVariance() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the unbiased sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// SumSq returns the accumulated sum of squared deviations from the mean.
func (w *Welford) SumSq() float64 { return w.m2 }

// Merge combines another accumulator into this one (Chan et al.
// parallel update).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	mean := w.mean + delta*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}

// Summary holds descriptive statistics of a batch of values.
type Summary struct {
	N        int
	Min      float64
	Max      float64
	Mean     float64
	Variance float64 // unbiased
	Stddev   float64
}

// Summarize computes a Summary over xs. An empty slice yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	var w Welford
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		w.Add(x)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.N = w.N()
	s.Mean = w.Mean()
	s.Variance = w.Variance()
	s.Stddev = w.Stddev()
	return s
}

// FractionAbove returns the share of xs strictly above threshold (0 for
// empty input).
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Variance()
}

// GeometricMean returns the geometric mean of xs. It returns an error
// if any value is non-positive.
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: geometric mean of empty slice")
	}
	sumLog := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean requires positive values")
		}
		sumLog += math.Log(x)
	}
	return math.Exp(sumLog / float64(len(xs))), nil
}

// RMSE returns the root mean squared error between predictions and
// targets (equation (1) in the paper). It panics if lengths differ.
func RMSE(pred, want []float64) float64 {
	if len(pred) != len(want) {
		panic("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - want[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred)))
}

// MAE returns the mean absolute error between predictions and targets.
func MAE(pred, want []float64) float64 {
	if len(pred) != len(want) {
		panic("stats: MAE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - want[i])
	}
	return sum / float64(len(pred))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// --- Special functions ---------------------------------------------------

// LogGamma returns the natural log of the Gamma function (Lanczos
// approximation, |error| < 1e-13 for positive arguments).
func LogGamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	// Lanczos g=7, n=9 coefficients.
	coeffs := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - LogGamma(1-x)
	}
	x--
	a := coeffs[0]
	t := x + 7.5
	for i := 1; i < len(coeffs); i++ {
		a += coeffs[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b) using the continued-fraction expansion (Lentz's method).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta := LogGamma(a) + LogGamma(b) - LogGamma(a+b)
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lbeta) / a
	if x > (a+1)/(a+b+2) {
		// Use symmetry for faster convergence.
		return 1 - RegIncBeta(b, a, 1-x)
	}
	// Lentz's continued fraction.
	const tiny = 1e-30
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 300; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x /
				((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -((a + float64(m)) * (a + b + float64(m)) * x) /
				((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < 1e-14 {
			break
		}
	}
	return front * (f - 1)
}

// NormalCDF returns the standard normal cumulative distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the inverse standard normal CDF using the
// Acklam rational approximation refined by one Halley step
// (|relative error| < 1e-9 over (0,1)).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam coefficients.
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// StudentTCDF returns the CDF of the Student-t distribution with df
// degrees of freedom.
func StudentTCDF(x, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(x, 1) {
		return 1
	}
	if math.IsInf(x, -1) {
		return 0
	}
	t := df / (df + x*x)
	p := 0.5 * RegIncBeta(df/2, 0.5, t)
	if x > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the inverse CDF of the Student-t
// distribution with df degrees of freedom, computed by bisection on
// the CDF (robust for all df > 0).
func StudentTQuantile(p, df float64) float64 {
	if df <= 0 || p <= 0 || p >= 1 {
		if p == 0.5 {
			return 0
		}
		if p <= 0 {
			return math.Inf(-1)
		}
		if p >= 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	// Bracket: start from the normal quantile and expand.
	lo, hi := -1.0, 1.0
	for StudentTCDF(lo, df) > p {
		lo *= 2
		if lo < -1e10 {
			break
		}
	}
	for StudentTCDF(hi, df) < p {
		hi *= 2
		if hi > 1e10 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(lo)) {
			break
		}
	}
	return (lo + hi) / 2
}

// ConfidenceInterval returns the half-width of the two-sided
// confidence interval for the mean of a sample with the given standard
// deviation and size, at the given confidence level (e.g. 0.95), using
// the Student-t distribution. Returns +Inf for n < 2.
func ConfidenceInterval(stddev float64, n int, confidence float64) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	alpha := 1 - confidence
	tcrit := StudentTQuantile(1-alpha/2, float64(n-1))
	return tcrit * stddev / math.Sqrt(float64(n))
}

// CIOverMean returns the ratio of the confidence-interval half-width to
// the mean — the post-hoc sample-adequacy check described in §4.3 of
// the paper. Returns +Inf when the mean is zero or n < 2.
func CIOverMean(mean, stddev float64, n int, confidence float64) float64 {
	if mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(ConfidenceInterval(stddev, n, confidence) / mean)
}

// Normalizer standardises features by scaling and centring (z-score),
// the common practice referenced in §4.5 of the paper.
type Normalizer struct {
	Means   []float64
	Stddevs []float64
}

// FitNormalizer learns per-dimension mean and standard deviation from
// the rows of xs. Dimensions with zero variance get stddev 1 so that
// transformed values are exactly 0.
func FitNormalizer(xs [][]float64) *Normalizer {
	if len(xs) == 0 {
		return &Normalizer{}
	}
	dim := len(xs[0])
	acc := make([]Welford, dim)
	for _, row := range xs {
		for j, v := range row {
			acc[j].Add(v)
		}
	}
	n := &Normalizer{
		Means:   make([]float64, dim),
		Stddevs: make([]float64, dim),
	}
	for j := range acc {
		n.Means[j] = acc[j].Mean()
		sd := acc[j].Stddev()
		if sd == 0 {
			sd = 1
		}
		n.Stddevs[j] = sd
	}
	return n
}

// Transform returns the standardised copy of x.
func (n *Normalizer) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - n.Means[j]) / n.Stddevs[j]
	}
	return out
}

// TransformAll standardises every row.
func (n *Normalizer) TransformAll(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, row := range xs {
		out[i] = n.Transform(row)
	}
	return out
}

// Inverse undoes Transform for a single row.
func (n *Normalizer) Inverse(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = v*n.Stddevs[j] + n.Means[j]
	}
	return out
}
