package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at step %d", i)
		}
	}
}

// TestResetMatchesNewStream: a used stream, spare normal pending,
// reseeded with Reset draws exactly what a fresh NewStream does.
func TestResetMatchesNewStream(t *testing.T) {
	s := NewStream(1, 2)
	s.Norm() // leaves a spare normal cached
	s.Reset(7, 9)
	fresh := NewStream(7, 9)
	for i := 0; i < 50; i++ {
		if a, b := s.Norm(), fresh.Norm(); a != b {
			t.Fatalf("draw %d: reset stream %v, fresh stream %v", i, a, b)
		}
	}
	if s.State() != fresh.State() {
		t.Fatal("reset stream state differs from a fresh stream's")
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("noise")
	c2 := parent.Split("model")
	c1b := New(7).Split("noise")
	for i := 0; i < 100; i++ {
		v1, v2, v1b := c1.Uint64(), c2.Uint64(), c1b.Uint64()
		if v1 != v1b {
			t.Fatalf("split stream not reproducible at step %d", i)
		}
		if v1 == v2 {
			t.Fatalf("sibling split streams collided at step %d", i)
		}
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split consumed parent randomness")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	if err := quick.Check(func(raw uint16) bool {
		n := int(raw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPerm(t *testing.T) {
	s := New(8)
	for n := 0; n < 50; n++ {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make(map[int]bool)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(10)
	if err := quick.Check(func(rawN, rawK uint8) bool {
		n := int(rawN)%200 + 1
		k := int(rawK) % (n + 1)
		out := s.Sample(n, k)
		if len(out) != k {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCoverage(t *testing.T) {
	// Every element should be selectable: sampling k=n must return all.
	s := New(11)
	out := s.Sample(20, 20)
	seen := make(map[int]bool)
	for _, v := range out {
		seen[v] = true
	}
	if len(seen) != 20 {
		t.Fatalf("Sample(20,20) covered only %d elements", len(seen))
	}
}

func TestNormMoments(t *testing.T) {
	s := New(12)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestNormMS(t *testing.T) {
	s := New(13)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.NormMS(5, 2)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("NormMS mean %v too far from 5", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(14)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(15)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(2)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean %v too far from 0.5", mean)
	}
}

func TestGammaMoments(t *testing.T) {
	s := New(16)
	cases := []struct{ shape, scale float64 }{{0.5, 1}, {1, 2}, {3, 0.5}, {9, 1}}
	for _, c := range cases {
		n := 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := s.Gamma(c.shape, c.scale)
			if v <= 0 {
				t.Fatalf("Gamma(%v,%v) produced non-positive %v", c.shape, c.scale, v)
			}
			sum += v
		}
		mean := sum / float64(n)
		want := c.shape * c.scale
		if math.Abs(mean-want) > 0.1*want+0.02 {
			t.Fatalf("Gamma(%v,%v) mean %v, want ~%v", c.shape, c.scale, mean, want)
		}
	}
}

func TestStudentTSymmetric(t *testing.T) {
	s := New(17)
	n := 100000
	pos := 0
	for i := 0; i < n; i++ {
		if s.StudentT(5) > 0 {
			pos++
		}
	}
	frac := float64(pos) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("StudentT positive fraction %v too far from 0.5", frac)
	}
}

func TestCategorical(t *testing.T) {
	s := New(18)
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10 * float64(n)
		if math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Fatalf("category %d count %d, want ~%v", i, counts[i], want)
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	s := New(19)
	weights := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		if got := s.Categorical(weights); got != 1 {
			t.Fatalf("zero-weight category %d was chosen", got)
		}
	}
}

func TestCategoricalPanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Categorical(all-zero) did not panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestBoolProbability(t *testing.T) {
	s := New(20)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", frac)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(21)
	v := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	s.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	for _, x := range v {
		sum += x
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", v)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Norm()
	}
}
