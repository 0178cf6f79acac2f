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

// trainModel fits a small forest on n random observations of the
// kernel, drawn through At on a training session of its own — the
// sessions Search verifies on stay cold. A config drawn twice takes
// its next noise ordinal.
func trainModel(t *testing.T, k space.Space, seed uint64, norm *stats.Normalizer, n int) *dynatree.Forest {
	t.Helper()
	sess, err := measure.NewSession(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	ords := make(map[uint64]int)
	cfg := dynatree.DefaultConfig()
	cfg.Particles = 80
	cfg.ScoreParticles = 30
	r := rng.New(7)
	var feats [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		c := k.RandomConfig(r)
		key := k.Key(c)
		y, err := sess.At(c, ords[key])
		ords[key]++
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
	model := trainModel(t, k, 3, norm, 250)

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
	model := trainModel(t, k, 9, norm, 60)
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
