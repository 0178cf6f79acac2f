package stats

import (
	"math"
	"testing"
	"testing/quick"

	"alic/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordMatchesNaive(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return almostEqual(w.Mean(), mean, 1e-9*math.Max(1, math.Abs(mean))) &&
			almostEqual(w.Variance(), naiveVar, 1e-6*scale)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMerge(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormMS(10, 3)
	}
	var whole, a, b Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 400 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merge N %d want %d", a.N(), whole.N())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Fatalf("merge mean %v want %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merge variance %v want %v", a.Variance(), whole.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty must be a no-op
	if a != before {
		t.Fatal("merging empty accumulator changed state")
	}
	b.Merge(a) // merging into empty must copy
	if b.N() != 2 || !almostEqual(b.Mean(), 2, 1e-12) {
		t.Fatal("merging into empty accumulator failed")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("bad summary %+v", s)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Fatalf("mean %v", s.Mean)
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEqual(s.Variance, 32.0/7.0, 1e-12) {
		t.Fatalf("variance %v", s.Variance)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{0.01, 0.05, 0.06, math.Inf(1)}
	if got := FractionAbove(xs, 0.05); got != 0.5 {
		t.Fatalf("FractionAbove = %v, want 0.5 (the threshold itself is not above)", got)
	}
	if got := FractionAbove(nil, 0.05); got != 0 {
		t.Fatalf("FractionAbove(nil) = %v, want 0", got)
	}
}

func TestGeometricMean(t *testing.T) {
	g, err := GeometricMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(g, 4, 1e-9) {
		t.Fatalf("geomean %v want 4", g)
	}
	if _, err := GeometricMean([]float64{1, -1}); err == nil {
		t.Fatal("expected error for negative input")
	}
	if _, err := GeometricMean(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestRMSEAndMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	want := []float64{1, 4, 3}
	if got := RMSE(pred, want); !almostEqual(got, 2/math.Sqrt(3), 1e-12) {
		t.Fatalf("RMSE %v", got)
	}
	if got := MAE(pred, want); !almostEqual(got, 2.0/3.0, 1e-12) {
		t.Fatalf("MAE %v", got)
	}
	if RMSE(nil, nil) != 0 || MAE(nil, nil) != 0 {
		t.Fatal("empty metrics should be 0")
	}
}

func TestRMSENonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(a, b [8]float64) bool {
		p := make([]float64, 8)
		w := make([]float64, 8)
		for i := 0; i < 8; i++ {
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) ||
				math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
				return true
			}
			p[i], w[i] = a[i], b[i]
		}
		return RMSE(p, w) >= 0 && MAE(p, w) >= 0 && RMSE(p, w) >= MAE(p, w)-1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Fatalf("p0 %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Fatalf("p100 %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Fatalf("p50 %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 15 || xs[4] != 50 {
		t.Fatal("Percentile mutated input")
	}
}

func TestLogGamma(t *testing.T) {
	// Gamma(5) = 24, Gamma(0.5) = sqrt(pi).
	if !almostEqual(LogGamma(5), math.Log(24), 1e-10) {
		t.Fatalf("LogGamma(5) = %v", LogGamma(5))
	}
	if !almostEqual(LogGamma(0.5), 0.5*math.Log(math.Pi), 1e-10) {
		t.Fatalf("LogGamma(0.5) = %v", LogGamma(0.5))
	}
	// Recurrence: Gamma(x+1) = x Gamma(x).
	for _, x := range []float64{0.3, 1.7, 4.2, 9.9} {
		lhs := LogGamma(x + 1)
		rhs := math.Log(x) + LogGamma(x)
		if !almostEqual(lhs, rhs, 1e-9) {
			t.Fatalf("recurrence failed at %v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.33, 0.5, 0.77, 0.99} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-9) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = x^2(3-2x).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := x * x * (3 - 2*x)
		if got := RegIncBeta(2, 2, x); !almostEqual(got, want, 1e-9) {
			t.Fatalf("I_%v(2,2) = %v want %v", x, got, want)
		}
	}
	// Boundaries.
	if RegIncBeta(3, 4, 0) != 0 || RegIncBeta(3, 4, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if err := quick.Check(func(ra, rb, rx uint8) bool {
		a := float64(ra%50)/5 + 0.1
		b := float64(rb%50)/5 + 0.1
		x := float64(rx) / 256
		return almostEqual(RegIncBeta(a, b, x), 1-RegIncBeta(b, a, 1-x), 1e-8)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999} {
		x := NormalQuantile(p)
		if !almostEqual(NormalCDF(x), p, 1e-8) {
			t.Fatalf("round trip at p=%v: CDF(%v) = %v", p, x, NormalCDF(x))
		}
	}
	// Known value: 97.5% quantile is ~1.959964.
	if !almostEqual(NormalQuantile(0.975), 1.959964, 1e-5) {
		t.Fatalf("z_0.975 = %v", NormalQuantile(0.975))
	}
}

func TestStudentTCDF(t *testing.T) {
	// t with df=1 is Cauchy: CDF(1) = 3/4.
	if got := StudentTCDF(1, 1); !almostEqual(got, 0.75, 1e-9) {
		t.Fatalf("Cauchy CDF(1) = %v", got)
	}
	// Symmetry.
	if err := quick.Check(func(rx int8, rdf uint8) bool {
		x := float64(rx) / 16
		df := float64(rdf%60) + 1
		return almostEqual(StudentTCDF(x, df)+StudentTCDF(-x, df), 1, 1e-9)
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Large df approaches normal.
	if !almostEqual(StudentTCDF(1.96, 1e6), NormalCDF(1.96), 1e-4) {
		t.Fatal("t CDF does not approach normal for large df")
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Classic table value: t_{0.975, 10} = 2.2281.
	if got := StudentTQuantile(0.975, 10); !almostEqual(got, 2.2281, 1e-3) {
		t.Fatalf("t_{0.975,10} = %v", got)
	}
	// t_{0.975, 34} = 2.0322 (used by the 35-sample CI).
	if got := StudentTQuantile(0.975, 34); !almostEqual(got, 2.0322, 1e-3) {
		t.Fatalf("t_{0.975,34} = %v", got)
	}
	// Round trip.
	for _, df := range []float64{1, 2, 5, 30, 100} {
		for _, p := range []float64{0.05, 0.3, 0.5, 0.8, 0.99} {
			q := StudentTQuantile(p, df)
			if !almostEqual(StudentTCDF(q, df), p, 1e-8) {
				t.Fatalf("round trip failed: df=%v p=%v", df, p)
			}
		}
	}
	if StudentTQuantile(0.5, 7) != 0 {
		t.Fatal("median of t should be 0")
	}
}

func TestQuantileMonotonic(t *testing.T) {
	prev := math.Inf(-1)
	for p := 0.01; p < 1; p += 0.01 {
		q := StudentTQuantile(p, 4)
		if q < prev {
			t.Fatalf("t quantile not monotonic at p=%v", p)
		}
		prev = q
	}
}

func TestConfidenceInterval(t *testing.T) {
	// 95% CI half-width for sd=1, n=35 is t_{0.975,34}/sqrt(35) ~ 0.3435.
	got := ConfidenceInterval(1, 35, 0.95)
	if !almostEqual(got, 2.0322/math.Sqrt(35), 1e-3) {
		t.Fatalf("CI half-width %v", got)
	}
	if !math.IsInf(ConfidenceInterval(1, 1, 0.95), 1) {
		t.Fatal("CI with n=1 should be infinite")
	}
}

func TestCIOverMean(t *testing.T) {
	if !math.IsInf(CIOverMean(0, 1, 10, 0.95), 1) {
		t.Fatal("zero mean should give +Inf")
	}
	v := CIOverMean(10, 1, 35, 0.95)
	if v <= 0 || v > 0.05 {
		t.Fatalf("CI/mean = %v out of expected band", v)
	}
}

func TestCICoverage(t *testing.T) {
	// Empirical check: the 95% CI should cover the true mean ~95% of the
	// time. Tolerate a generous band since this is a stochastic test.
	r := rng.New(99)
	const trials, n = 2000, 10
	covered := 0
	for i := 0; i < trials; i++ {
		var w Welford
		for j := 0; j < n; j++ {
			w.Add(r.NormMS(5, 2))
		}
		hw := ConfidenceInterval(w.Stddev(), n, 0.95)
		if math.Abs(w.Mean()-5) <= hw {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.92 || frac > 0.98 {
		t.Fatalf("CI coverage %v, want ~0.95", frac)
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	xs := [][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}}
	n := FitNormalizer(xs)
	for _, row := range xs {
		back := n.Inverse(n.Transform(row))
		for j := range row {
			if !almostEqual(back[j], row[j], 1e-9) {
				t.Fatalf("round trip failed: %v -> %v", row, back)
			}
		}
	}
	// Transformed data must have ~zero mean and unit variance.
	tr := n.TransformAll(xs)
	for j := 0; j < 2; j++ {
		var w Welford
		for _, row := range tr {
			w.Add(row[j])
		}
		if !almostEqual(w.Mean(), 0, 1e-9) || !almostEqual(w.Variance(), 1, 1e-9) {
			t.Fatalf("dim %d not standardised: mean %v var %v", j, w.Mean(), w.Variance())
		}
	}
}

func TestNormalizerConstantDim(t *testing.T) {
	xs := [][]float64{{7, 1}, {7, 2}, {7, 3}}
	n := FitNormalizer(xs)
	out := n.Transform([]float64{7, 2})
	if out[0] != 0 {
		t.Fatalf("constant dimension should map to 0, got %v", out[0])
	}
}

func TestNormalizerEmpty(t *testing.T) {
	n := FitNormalizer(nil)
	if len(n.Means) != 0 {
		t.Fatal("empty fit should produce empty normalizer")
	}
}
