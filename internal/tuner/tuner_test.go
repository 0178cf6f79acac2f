package tuner

import (
	"math"
	"testing"

	"alic/internal/dynatree"
	"alic/internal/measure"
	"alic/internal/rng"
	"alic/internal/space"
	_ "alic/internal/space/spaptspace"
	"alic/internal/stats"
)

// trainModel fits a small forest on random observations of the kernel.
func trainModel(t *testing.T, sess *measure.Session, norm *stats.Normalizer, n int) *dynatree.Forest {
	t.Helper()
	k := sess.Space()
	cfg := dynatree.DefaultConfig()
	cfg.Particles = 80
	cfg.ScoreParticles = 30
	r := rng.New(7)
	var feats [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		c := k.RandomConfig(r)
		y, err := sess.Observe(c)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, norm.Transform(k.Features(c)))
		ys = append(ys, y)
	}
	cfg.CalibratePrior(ys)
	f, err := dynatree.New(cfg, k.Dim(), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	f.UpdateRound(feats, ys, nil)
	return f
}

// identityNorm passes features through unchanged.
type identityNorm struct{}

func (identityNorm) Transform(x []float64) []float64 { return x }

func TestSearchValidation(t *testing.T) {
	k, _ := space.ByName("mvt")
	sess, _ := measure.NewSession(k, 1)
	model, _ := dynatree.New(dynatree.DefaultConfig(), k.Dim(), rng.New(1))
	if _, err := Search(nil, sess, identityNorm{}, DefaultOptions()); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := Search(model, nil, identityNorm{}, DefaultOptions()); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, err := Search(model, sess, nil, DefaultOptions()); err == nil {
		t.Fatal("nil normalizer accepted")
	}
	bad := DefaultOptions()
	bad.Candidates = 0
	if _, err := Search(model, sess, identityNorm{}, bad); err == nil {
		t.Fatal("zero candidates accepted")
	}
}

func TestSearchFindsFasterThanBaseline(t *testing.T) {
	k, _ := space.ByName("mvt")
	sess, err := measure.NewSession(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	norm := &stats.Normalizer{
		Means:   make([]float64, k.Dim()),
		Stddevs: onesVec(k.Dim()),
	}
	model := trainModel(t, sess, norm, 250)

	opts := Options{Candidates: 800, Verify: 8, VerifyObs: 2, Seed: 5}
	res, err := Search(model, sess, norm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Best.Measured) || res.Best.Measured <= 0 {
		t.Fatalf("best not measured: %+v", res.Best)
	}
	if len(res.Top) != 8 {
		t.Fatalf("verified %d candidates, want 8", len(res.Top))
	}
	// The model-guided winner should at least not be slower than the
	// plain -O2 baseline (mvt's space contains much faster points).
	if res.Best.Measured > res.Baseline*1.05 {
		t.Fatalf("winner %v slower than baseline %v", res.Best.Measured, res.Baseline)
	}
	if res.Speedup <= 0 {
		t.Fatalf("speedup %v", res.Speedup)
	}
	if res.VerifyCost <= 0 {
		t.Fatal("verification cost not accounted")
	}
	// Top must be sorted by measured runtime.
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].Measured < res.Top[i-1].Measured {
			t.Fatal("top set not sorted by measured runtime")
		}
	}
}

func TestVerifyClampedToCandidates(t *testing.T) {
	k, _ := space.ByName("mvt")
	sess, _ := measure.NewSession(k, 9)
	norm := &stats.Normalizer{Means: make([]float64, k.Dim()), Stddevs: onesVec(k.Dim())}
	model := trainModel(t, sess, norm, 60)
	opts := Options{Candidates: 5, Verify: 50, VerifyObs: 1, Seed: 2}
	res, err := Search(model, sess, norm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 5 {
		t.Fatalf("verified %d, want clamp to 5", len(res.Top))
	}
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestRandomSearchValidation(t *testing.T) {
	k, _ := space.ByName("mvt")
	sess, _ := measure.NewSession(k, 21)
	if _, err := RandomSearch(nil, 10, 1, 1); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, err := RandomSearch(sess, 0, 1, 1); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := RandomSearch(sess, 10, 0, 1); err == nil {
		t.Fatal("zero obs accepted")
	}
}

func TestRandomSearchRespectsBudget(t *testing.T) {
	k, _ := space.ByName("mvt")
	sess, _ := measure.NewSession(k, 22)
	res, err := RandomSearch(sess, 30, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated < 1 {
		t.Fatal("no configurations evaluated")
	}
	// The search may overshoot by at most one evaluation plus the
	// baseline measurement.
	if res.Cost > 30+20 {
		t.Fatalf("budget overshot: %v", res.Cost)
	}
	if res.Best.Measured <= 0 || math.IsInf(res.Best.Measured, 0) {
		t.Fatalf("bad best %+v", res.Best)
	}
	if res.Speedup <= 0 {
		t.Fatalf("speedup %v", res.Speedup)
	}
}

func TestRandomSearchImprovesWithBudget(t *testing.T) {
	// More budget cannot make the best-found slower (same seed).
	run := func(budget float64) float64 {
		k, _ := space.ByName("gemver")
		sess, _ := measure.NewSession(k, 23)
		res, err := RandomSearch(sess, budget, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Measured
	}
	small := run(50)
	large := run(500)
	if large > small+1e-9 {
		t.Fatalf("larger budget found worse config: %v vs %v", large, small)
	}
}
