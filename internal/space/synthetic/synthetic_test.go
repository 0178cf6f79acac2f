package synthetic

import (
	"math"
	"testing"

	"alic/internal/space"
	"alic/internal/stats"
)

// enumerate walks the full 12^4 configuration grid.
func enumerate(fn func(cfg space.Config)) {
	for a := 1; a <= 12; a++ {
		for b := 1; b <= 12; b++ {
			for c := 1; c <= 12; c++ {
				for d := 1; d <= 12; d++ {
					fn(space.Config{a, b, c, d})
				}
			}
		}
	}
}

// argmin returns the configuration minimising the space's analytic
// surface over the full grid.
func argmin(t *testing.T, sp space.Space) (space.Config, float64) {
	t.Helper()
	an, ok := sp.(*analytic)
	if !ok {
		t.Fatalf("space %s is %T, want *analytic", sp.Name(), sp)
	}
	var best space.Config
	bestMu := math.Inf(1)
	enumerate(func(cfg space.Config) {
		if mu := an.TrueMean(cfg); mu < bestMu {
			bestMu = mu
			best = append(space.Config(nil), cfg...)
		}
	})
	return best, bestMu
}

// nearest maps a [0,1] well centre to its grid configuration.
func nearest(c []float64) space.Config {
	cfg := make(space.Config, len(c))
	for i, x := range c {
		cfg[i] = 1 + int(math.Round(x*11))
	}
	return cfg
}

// TestKnownOptima pins the ground truth the robustness suite relies
// on: each space's global minimum sits at the grid point nearest its
// designed well centre, and it is substantially below the 1.0 plain.
func TestKnownOptima(t *testing.T) {
	cases := []struct {
		sp     space.Space
		centre []float64
		depth  float64
	}{
		{Needle(), []float64{0.7, 0.3, 0.9, 0.2}, 0.85},
		{NeedleShifted(), []float64{0.78, 0.38, 0.82, 0.28}, 0.85},
		{Plateau(), []float64{0.85, 0.85, 0.85, 0.85}, 0.75},
	}
	for _, c := range cases {
		best, bestMu := argmin(t, c.sp)
		want := nearest(c.centre)
		for i := range want {
			if best[i] != want[i] {
				t.Fatalf("%s: argmin %v, want %v (nearest the designed well centre)",
					c.sp.Name(), best, want)
			}
		}
		if bestMu > 1.0-c.depth/2 {
			t.Fatalf("%s: optimum %v is not substantially below the plain", c.sp.Name(), bestMu)
		}
	}
}

// TestNeedlePairRelated pins that the two needle spaces are twins:
// their optima lie close together (features within 0.15 per axis).
func TestNeedlePairRelated(t *testing.T) {
	a, _ := argmin(t, Needle())
	b, _ := argmin(t, NeedleShifted())
	fa := Needle().Features(a)
	fb := NeedleShifted().Features(b)
	for i := range fa {
		if math.Abs(fa[i]-fb[i]) > 0.15 {
			t.Fatalf("needle pair optima far apart at dim %d: %v vs %v", i, fa, fb)
		}
	}
}

// TestFlatIsFlat pins the acquisition-pathology guard's premise: the
// flat space's surface is exactly constant.
func TestFlatIsFlat(t *testing.T) {
	an := Flat().(*analytic)
	enumerate(func(cfg space.Config) {
		if mu := an.TrueMean(cfg); mu != 1.0 {
			t.Fatalf("flat surface is %v at %v", mu, cfg)
		}
	})
}

// TestMeasurerContract pins determinism and the observation model:
// equal seeds reproduce identical draws, draws are pure in (cfg, ord),
// and long-run averages converge to the analytic surface.
func TestMeasurerContract(t *testing.T) {
	sp := Needle()
	m1, err := sp.Measurer(11)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sp.Measurer(11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config{9, 4, 11, 3}
	for ord := 0; ord < 10; ord++ {
		a, err := m1.Observe(cfg, ord)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m2.Observe(cfg, ord)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("equal seeds diverged at ord %d", ord)
		}
		again, err := m1.Observe(cfg, ord)
		if err != nil {
			t.Fatal(err)
		}
		if again != a {
			t.Fatalf("observation (cfg, %d) not pure", ord)
		}
	}
	mu, err := m1.TrueMean(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w stats.Welford
	for ord := 0; ord < 400; ord++ {
		y, err := m1.Observe(cfg, ord)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(y)
	}
	if math.Abs(w.Mean()-mu) > 0.05*mu {
		t.Fatalf("observed mean %v too far from analytic %v", w.Mean(), mu)
	}
	ct, err := m1.CompileCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ct <= 0 {
		t.Fatalf("non-positive compile cost %v", ct)
	}
	if _, err := m1.Observe(cfg, -1); err == nil {
		t.Fatal("negative ordinal accepted")
	}
}

// TestRegisteredAndValid pins registration and the space contract for
// all four synthetic spaces.
func TestRegisteredAndValid(t *testing.T) {
	for _, name := range []string{
		"synthetic/needle", "synthetic/needle-shifted",
		"synthetic/plateau", "synthetic/flat",
	} {
		sp, err := space.ByName(name)
		if err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		if space.IsLive(sp) {
			t.Fatalf("%s reported live", name)
		}
		if sp.Size() != 20736 {
			t.Fatalf("%s size %v, want 12^4", name, sp.Size())
		}
		if err := sp.Check(sp.BaselineConfig()); err != nil {
			t.Fatalf("%s baseline invalid: %v", name, err)
		}
	}
}

// TestObserveAllocatesNothing pins the per-observation cost: encoding
// the features, evaluating the surface, hashing the configuration and
// sampling the noise allocate nothing.
func TestObserveAllocatesNothing(t *testing.T) {
	for _, sp := range []space.Space{Needle(), Plateau(), Flat()} {
		m, err := sp.Measurer(5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := space.Config{3, 7, 2, 9}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.Observe(cfg, 4); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: Observe allocates %v times per call", sp.Name(), allocs)
		}
	}
}
