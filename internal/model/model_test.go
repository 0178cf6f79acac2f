package model

import (
	"errors"
	"math"
	"testing"

	"alic/internal/dynatree"
	"alic/internal/rng"
)

func TestRegistryBuiltins(t *testing.T) {
	if names := Names(); len(names) != 1 || names[0] != "dynatree" {
		t.Fatalf("builtin backends %v, want [dynatree]", names)
	}
	if b, err := ByName("dynatree"); err != nil || b.Name() != "dynatree" {
		t.Fatalf("ByName(dynatree) = %v, %v", b, err)
	}
	// "gp" named the exact-GP backend of earlier builds; it is now as
	// unknown as any other name.
	for _, n := range []string{"gp", "bogus"} {
		if _, err := ByName(n); !errors.Is(err, ErrUnknownModel) {
			t.Fatalf("ByName(%q) error = %v, want ErrUnknownModel", n, err)
		}
	}
}

// trainBackend feeds n samples of a noisy linear surface to a fresh
// model from the builder.
func trainBackend(t *testing.T, b Builder, n int) (Model, [][]float64) {
	t.Helper()
	r := rng.New(3)
	seed := []float64{1, 1.2, 0.8, 1.1}
	m, err := b.New(Params{Dim: 2, SeedTargets: seed, RNG: r.Split(b.Name())})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, n)
	for i := range xs {
		x := []float64{r.Float64(), r.Float64()}
		xs[i] = x
		m.Update(x, 1+2*x[0]-x[1]+r.NormMS(0, 0.02))
	}
	return m, xs
}

func TestBackendsLearnLinearSurface(t *testing.T) {
	for _, b := range []Builder{DynatreeBuilder{}} {
		t.Run(b.Name(), func(t *testing.T) {
			m, xs := trainBackend(t, b, 120)
			if m.N() != 120 {
				t.Fatalf("N = %d, want 120", m.N())
			}
			// The batched and single-point means must agree.
			batch := m.PredictMeanFastBatch(xs[:10])
			sse := 0.0
			for i, x := range xs[:10] {
				single := m.PredictMeanFast(x)
				if single != batch[i] {
					t.Fatalf("batch/single mean mismatch at %d: %v vs %v", i, batch[i], single)
				}
				want := 1 + 2*x[0] - x[1]
				sse += (single - want) * (single - want)
			}
			if rmse := math.Sqrt(sse / 10); rmse > 0.4 {
				t.Fatalf("RMSE %v on an easy linear surface", rmse)
			}
			means, variances := m.PredictBatch(xs[:10])
			for i := range means {
				if math.IsNaN(means[i]) || variances[i] < 0 {
					t.Fatalf("bad posterior at %d: mean %v var %v", i, means[i], variances[i])
				}
			}
			// Acquisition hooks return one finite score per candidate.
			alm := m.ALMBatch(xs[:10])
			alc := m.ALCScores(xs[:10], xs[:10])
			if len(alm) != 10 || len(alc) != 10 {
				t.Fatalf("score lengths %d/%d", len(alm), len(alc))
			}
			for i := range alm {
				if math.IsNaN(alm[i]) || math.IsNaN(alc[i]) || alm[i] < 0 || alc[i] < 0 {
					t.Fatalf("bad scores at %d: alm %v alc %v", i, alm[i], alc[i])
				}
			}
		})
	}
}

func TestDynatreeBuilderNeedsRNG(t *testing.T) {
	if _, err := (DynatreeBuilder{}).New(Params{Dim: 1}); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestDynatreePartialConfigFailsLoudly(t *testing.T) {
	// A partially-filled config (Particles left at 0) must surface
	// dynatree's validation error, not be silently replaced by the
	// defaults.
	b := DynatreeBuilder{Config: dynatree.Config{ScoreParticles: 500}}
	if _, err := b.New(Params{Dim: 1, RNG: rng.New(1)}); err == nil {
		t.Fatal("partial config silently accepted")
	}
}
