package dynatree

import (
	"math"
	"testing"
	"testing/quick"

	"alic/internal/rng"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Particles = 60
	c.ScoreParticles = 0
	return c
}

func TestNewValidation(t *testing.T) {
	r := rng.New(1)
	cases := []func(*Config){
		func(c *Config) { c.Particles = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.Beta = -1 },
		func(c *Config) { c.Kappa0 = 0 },
		func(c *Config) { c.B0 = 0 },
		func(c *Config) { c.A0 = 1 },
		func(c *Config) { c.MinLeafForSplit = 1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if _, err := New(c, 2, r); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), 0, r); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := New(DefaultConfig(), 2, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestPredictBeforeData(t *testing.T) {
	f, err := New(smallConfig(), 1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	mean, v := f.Predict([]float64{0.3})
	if mean != 0 {
		t.Fatalf("prior mean %v, want M0=0", mean)
	}
	if v <= 0 || math.IsInf(v, 0) {
		t.Fatalf("prior variance %v not positive finite", v)
	}
}

func TestSinglePointPosterior(t *testing.T) {
	f, _ := New(smallConfig(), 1, rng.New(3))
	f.Update([]float64{0.5}, 7)
	mean, _ := f.Predict([]float64{0.5})
	// Posterior mean shrinks between prior (0) and observation (7);
	// with kappa0=0.1 it should be close to 7.
	if mean < 5 || mean > 7 {
		t.Fatalf("posterior mean after one point: %v", mean)
	}
}

func TestLearnsStepFunction(t *testing.T) {
	// Noise-free step: y = 1 for x < 0.5, y = 3 otherwise. The forest
	// must localise the discontinuity and predict both plateaus.
	f, _ := New(smallConfig(), 1, rng.New(4))
	r := rng.New(99)
	for i := 0; i < 300; i++ {
		x := r.Float64()
		y := 1.0
		if x >= 0.5 {
			y = 3.0
		}
		f.Update([]float64{x}, y)
	}
	lo, _ := f.Predict([]float64{0.2})
	hi, _ := f.Predict([]float64{0.8})
	if math.Abs(lo-1) > 0.3 {
		t.Fatalf("left plateau predicted %v, want ~1", lo)
	}
	if math.Abs(hi-3) > 0.3 {
		t.Fatalf("right plateau predicted %v, want ~3", hi)
	}
}

func TestLearnsSmoothFunction2D(t *testing.T) {
	f, _ := New(smallConfig(), 2, rng.New(5))
	r := rng.New(100)
	fn := func(x []float64) float64 { return 2*x[0] - x[1] }
	for i := 0; i < 600; i++ {
		x := []float64{r.Float64(), r.Float64()}
		f.Update(x, fn(x)+r.NormMS(0, 0.05))
	}
	// Average absolute error over a probe grid.
	sumErr, n := 0.0, 0
	for i := 0.1; i < 1; i += 0.2 {
		for j := 0.1; j < 1; j += 0.2 {
			x := []float64{i, j}
			pred, _ := f.Predict(x)
			sumErr += math.Abs(pred - fn(x))
			n++
		}
	}
	if avg := sumErr / float64(n); avg > 0.35 {
		t.Fatalf("2D regression MAE %v too high", avg)
	}
}

func TestVarianceHigherInNoisyRegion(t *testing.T) {
	// Heteroskedastic data: x < 0.5 is clean, x >= 0.5 is very noisy.
	// Predictive variance must reflect that.
	f, _ := New(smallConfig(), 1, rng.New(6))
	r := rng.New(101)
	for i := 0; i < 500; i++ {
		x := r.Float64()
		var y float64
		if x < 0.5 {
			y = 1 + r.NormMS(0, 0.01)
		} else {
			y = 1 + r.NormMS(0, 1.0)
		}
		f.Update([]float64{x}, y)
	}
	_, vClean := f.Predict([]float64{0.25})
	_, vNoisy := f.Predict([]float64{0.75})
	if vNoisy < 3*vClean {
		t.Fatalf("noisy region variance %v not clearly above clean %v", vNoisy, vClean)
	}
}

func TestUpdateRoundEqualsSequential(t *testing.T) {
	cfg := smallConfig()
	fa, _ := New(cfg, 1, rng.New(7))
	fb, _ := New(cfg, 1, rng.New(7))
	xs := [][]float64{{0.1}, {0.5}, {0.9}, {0.3}}
	ys := []float64{1, 2, 3, 1.5}
	fa.UpdateRound(xs, ys, nil)
	for i := range xs {
		fb.Update(xs[i], ys[i])
	}
	for _, probe := range []float64{0.2, 0.6, 0.95} {
		ma, va := fa.Predict([]float64{probe})
		mb, vb := fb.Predict([]float64{probe})
		if ma != mb || va != vb {
			t.Fatalf("batch and sequential updates diverged at %v", probe)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() float64 {
		f, _ := New(smallConfig(), 1, rng.New(11))
		r := rng.New(22)
		for i := 0; i < 100; i++ {
			x := r.Float64()
			f.Update([]float64{x}, x*2+r.Norm())
		}
		m, _ := f.Predict([]float64{0.5})
		return m
	}
	if run() != run() {
		t.Fatal("same seed produced different forests")
	}
}

func TestUpdatePanicsOnNonFinite(t *testing.T) {
	f, _ := New(smallConfig(), 1, rng.New(12))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on NaN target")
		}
	}()
	f.Update([]float64{0.1}, math.NaN())
}

func TestUpdateCopiesInput(t *testing.T) {
	f, _ := New(smallConfig(), 1, rng.New(13))
	x := []float64{0.4}
	f.Update(x, 1)
	x[0] = 0.9 // mutate caller's slice
	mean, _ := f.Predict([]float64{0.4})
	if mean < 0.5 {
		t.Fatalf("forest was affected by caller mutation: mean %v", mean)
	}
}

func TestALMHigherOffData(t *testing.T) {
	// Variance should be higher in a region with no observations.
	f, _ := New(smallConfig(), 1, rng.New(14))
	r := rng.New(23)
	for i := 0; i < 200; i++ {
		x := r.Float64() * 0.5 // only left half observed
		f.Update([]float64{x}, math.Sin(6*x)+r.NormMS(0, 0.02))
	}
	seen := f.ALM([]float64{0.25})
	unseen := f.ALM([]float64{0.9})
	if unseen <= seen {
		t.Fatalf("ALM off-data %v not above on-data %v", unseen, seen)
	}
}

func TestALCScoresBelowCurrentVariance(t *testing.T) {
	f, _ := New(smallConfig(), 1, rng.New(15))
	r := rng.New(24)
	for i := 0; i < 150; i++ {
		x := r.Float64()
		f.Update([]float64{x}, 3*x+r.NormMS(0, 0.1))
	}
	refs := [][]float64{{0.1}, {0.3}, {0.5}, {0.7}, {0.9}}
	cands := [][]float64{{0.2}, {0.6}, {0.85}}
	base := f.AvgVariance(refs)
	scores := f.ALCScores(cands, refs)
	if len(scores) != len(cands) {
		t.Fatalf("got %d scores for %d candidates", len(scores), len(cands))
	}
	for i, s := range scores {
		if s > base+1e-12 {
			t.Fatalf("candidate %d: expected post variance %v above current %v", i, s, base)
		}
		if s <= 0 {
			t.Fatalf("candidate %d: non-positive score %v", i, s)
		}
	}
}

func TestALCPrefersNoisyRegion(t *testing.T) {
	// With a clean left half and noisy right half, ALC should score a
	// right-half candidate as more valuable (lower post variance).
	f, _ := New(smallConfig(), 1, rng.New(16))
	r := rng.New(25)
	for i := 0; i < 400; i++ {
		x := r.Float64()
		var y float64
		if x < 0.5 {
			y = 2 + r.NormMS(0, 0.01)
		} else {
			y = 2 + r.NormMS(0, 1.5)
		}
		f.Update([]float64{x}, y)
	}
	var refs [][]float64
	for v := 0.05; v < 1; v += 0.1 {
		refs = append(refs, []float64{v})
	}
	scores := f.ALCScores([][]float64{{0.25}, {0.75}}, refs)
	if scores[1] >= scores[0] {
		t.Fatalf("ALC did not prefer noisy region: clean=%v noisy=%v",
			scores[0], scores[1])
	}
}

func TestALCEmptyInputs(t *testing.T) {
	f, _ := New(smallConfig(), 1, rng.New(17))
	f.Update([]float64{0.5}, 1)
	if got := f.ALCScores(nil, [][]float64{{0.1}}); len(got) != 0 {
		t.Fatal("expected empty scores for no candidates")
	}
	got := f.ALCScores([][]float64{{0.1}}, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("expected zero score with no refs, got %v", got)
	}
}

func TestStatsReasonable(t *testing.T) {
	f, _ := New(smallConfig(), 1, rng.New(18))
	r := rng.New(26)
	for i := 0; i < 200; i++ {
		x := r.Float64()
		y := 1.0
		if x > 0.5 {
			y = 5.0
		}
		f.Update([]float64{x}, y)
	}
	st := f.Stats()
	if st.Points != 200 || st.Particles != 60 {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgLeaves < 2 {
		t.Fatalf("step function should induce splits; avg leaves %v", st.AvgLeaves)
	}
	if st.MaxDepth < 1 {
		t.Fatalf("max depth %v", st.MaxDepth)
	}
}

func TestParticleTreesPartitionAllPoints(t *testing.T) {
	// Invariant: in every particle, each point is in exactly one leaf
	// and the leaf sufficient stats agree with the assigned points.
	f, _ := New(smallConfig(), 2, rng.New(19))
	r := rng.New(27)
	for i := 0; i < 150; i++ {
		x := []float64{r.Float64(), r.Float64()}
		f.Update(x, x[0]+2*x[1]+r.NormMS(0, 0.1))
	}
	for pi, root := range f.roots {
		total := 0
		bad := false
		var check func(id int32)
		check = func(id int32) {
			if f.ar.left[id] < 0 {
				total += len(f.ar.pts[id])
				if f.ar.s[id].n != len(f.ar.pts[id]) {
					bad = true
				}
				var s suff
				for _, idx := range f.ar.pts[id] {
					s.add(f.points[idx].y)
					// The point must actually route to this leaf.
					if f.leafOf(root, f.points[idx].x) != id {
						bad = true
					}
				}
				if s.n != f.ar.s[id].n || !almostEq(s.sumY, f.ar.s[id].sumY) || !almostEq(s.sumY2, f.ar.s[id].sumY2) {
					bad = true
				}
				return
			}
			if len(f.ar.pts[id]) != 0 || f.ar.s[id].n != 0 {
				bad = true // internal nodes must not hold data
			}
			check(f.ar.left[id])
			check(f.ar.right[id])
		}
		check(root)
		if bad || total != len(f.points) {
			t.Fatalf("particle %d: invariant violated (total=%d points=%d bad=%v)",
				pi, total, len(f.points), bad)
		}
	}
}

func TestRevisitedPointTightensVariance(t *testing.T) {
	// Re-observing the same x repeatedly must reduce predictive
	// variance there (the sequential-analysis premise).
	f, _ := New(smallConfig(), 1, rng.New(20))
	r := rng.New(28)
	for i := 0; i < 50; i++ {
		f.Update([]float64{r.Float64()}, 1+r.NormMS(0, 0.3))
	}
	_, before := f.Predict([]float64{0.5})
	for i := 0; i < 30; i++ {
		f.Update([]float64{0.5}, 1+r.NormMS(0, 0.3))
	}
	_, after := f.Predict([]float64{0.5})
	if after >= before {
		t.Fatalf("variance did not tighten after revisits: %v -> %v", before, after)
	}
}

func TestCalibratePrior(t *testing.T) {
	c := DefaultConfig()
	ys := []float64{10, 12, 8, 11, 9}
	c.CalibratePrior(ys)
	if math.Abs(c.M0-10) > 1e-9 {
		t.Fatalf("M0 = %v", c.M0)
	}
	if c.B0 <= 0 {
		t.Fatalf("B0 = %v", c.B0)
	}
	// Prior predictive variance should now match the sample variance.
	p := nigPrior{m0: c.M0, kappa0: c.Kappa0, a0: c.A0, b0: c.B0}
	got := p.predVariance(suff{})
	want := 2.5 // sample variance of ys
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("calibrated prior predictive variance %v, want %v", got, want)
	}
	// Degenerate calls must not panic or zero out the prior.
	c2 := DefaultConfig()
	c2.CalibratePrior(nil)
	c2.CalibratePrior([]float64{5})
	if c2.B0 <= 0 {
		t.Fatal("degenerate calibration broke B0")
	}
}

func TestScoreParticleSubsample(t *testing.T) {
	cfg := smallConfig()
	cfg.ScoreParticles = 10
	f, _ := New(cfg, 1, rng.New(21))
	r := rng.New(29)
	for i := 0; i < 100; i++ {
		x := r.Float64()
		f.Update([]float64{x}, x+r.NormMS(0, 0.1))
	}
	if got := len(f.scoringParticles()); got != 10 {
		t.Fatalf("scoring subsample size %d, want 10", got)
	}
	// ALM with a subsample must still be finite and positive.
	if v := f.ALM([]float64{0.5}); v <= 0 || math.IsInf(v, 0) {
		t.Fatalf("subsampled ALM %v", v)
	}
}

func TestSampleLog(t *testing.T) {
	r := rng.New(30)
	// Overwhelming weight on index 2.
	counts := [3]int{}
	for i := 0; i < 1000; i++ {
		counts[sampleLog([]float64{-100, -100, 0}, r)]++
	}
	if counts[2] < 990 {
		t.Fatalf("sampleLog ignored dominant weight: %v", counts)
	}
	// Degenerate weights fall back to index 0 without panicking.
	if got := sampleLog([]float64{math.Inf(-1), math.Inf(-1)}, r); got != 0 {
		t.Fatalf("degenerate sampleLog = %d", got)
	}
}

func TestForestPropertyFiniteAfterRandomData(t *testing.T) {
	if err := quick.Check(func(seed uint32, raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		cfg := smallConfig()
		cfg.Particles = 20
		f, err := New(cfg, 1, rng.New(uint64(seed)))
		if err != nil {
			return false
		}
		for i, v := range raw {
			f.Update([]float64{float64(i % 7)}, float64(v)/16)
		}
		m, vv := f.Predict([]float64{3})
		return !math.IsNaN(m) && !math.IsInf(m, 0) && vv >= 0 && !math.IsNaN(vv)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForestUpdate(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Particles = 200
	f, _ := New(cfg, 4, rng.New(1))
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		f.Update(x, x[0]+x[1]*x[2]+r.NormMS(0, 0.1))
	}
}

// BenchmarkForestUpdateWide is BenchmarkForestUpdate at the CLI's
// 400 particles and the width of the widest benchmarked SPAPT kernel
// (d = 18, dgemv3), where feature bounds are 2*18 floats per leaf.
func BenchmarkForestUpdateWide(b *testing.B) {
	const dim = 18
	cfg := DefaultConfig()
	cfg.Particles = 400
	f, _ := New(cfg, dim, rng.New(1))
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = r.Float64()
		}
		f.Update(x, x[0]+x[1]*x[2]-x[dim-1]+r.NormMS(0, 0.1))
	}
}

func BenchmarkForestALC(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Particles = 200
	cfg.ScoreParticles = 50
	f, _ := New(cfg, 4, rng.New(1))
	r := rng.New(2)
	for i := 0; i < 300; i++ {
		x := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		f.Update(x, x[0]+x[1]*x[2]+r.NormMS(0, 0.1))
	}
	cands := make([][]float64, 100)
	for i := range cands {
		cands[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.ALCScores(cands, cands)
	}
}
