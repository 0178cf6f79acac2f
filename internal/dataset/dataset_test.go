package dataset

import (
	"math"
	"testing"

	"alic/internal/space"
	_ "alic/internal/space/spaptspace"
	"alic/internal/stats"
)

func smallOpts() Options {
	return Options{NConfigs: 300, NObs: 12, TrainFrac: 0.75, Seed: 42}
}

func gen(t *testing.T, kernel string, opts Options) *Dataset {
	t.Helper()
	sp, err := space.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateValidation(t *testing.T) {
	k, _ := space.ByName("mm")
	bad := []Options{
		{NConfigs: 1, NObs: 5, TrainFrac: 0.75},
		{NConfigs: 100, NObs: 0, TrainFrac: 0.75},
		{NConfigs: 100, NObs: 5, TrainFrac: 0},
		{NConfigs: 100, NObs: 5, TrainFrac: 1},
	}
	for i, o := range bad {
		if _, err := Generate(k, o); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	if _, err := Generate(nil, smallOpts()); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := Generate(k, Options{NConfigs: 100, NObs: 5, TrainCount: 100}); err == nil {
		t.Fatal("TrainCount leaving no test set accepted")
	}
}

// TestTrainCountExactSplit is the regression test for the rounding
// bug: deriving the split from TrainFrac = 15/22 truncates
// (int(22 * (15.0/22.0)) == 14) to a pool one configuration short of
// what the caller asked for.
func TestTrainCountExactSplit(t *testing.T) {
	frac := gen(t, "mm", Options{NConfigs: 22, NObs: 3, TrainFrac: 15.0 / 22.0, Seed: 9})
	if got := len(frac.TrainIdx); got != 14 {
		t.Fatalf("truncation premise changed: TrainFrac split gave %d configs", got)
	}
	exact := gen(t, "mm", Options{NConfigs: 22, NObs: 3, TrainCount: 15, Seed: 9})
	if got := len(exact.TrainIdx); got != 15 {
		t.Fatalf("TrainCount split gave %d training configs, want 15", got)
	}
	if got := len(exact.TestIdx); got != 7 {
		t.Fatalf("TrainCount split gave %d test configs, want 7", got)
	}
	// TrainCount must win over a conflicting TrainFrac.
	both := gen(t, "mm", Options{NConfigs: 22, NObs: 3, TrainFrac: 0.2, TrainCount: 15, Seed: 9})
	if got := len(both.TrainIdx); got != 15 {
		t.Fatalf("TrainCount did not override TrainFrac: %d training configs", got)
	}
}

func TestGenerateShapes(t *testing.T) {
	d := gen(t, "mvt", smallOpts())
	n := 300
	if len(d.Configs) != n || len(d.Features) != n || len(d.TrueMean) != n ||
		len(d.Observed) != n || len(d.CompileTime) != n {
		t.Fatal("dataset arrays have inconsistent lengths")
	}
	if len(d.TrainIdx)+len(d.TestIdx) != n {
		t.Fatal("split does not cover the corpus")
	}
	if len(d.TrainIdx) != 225 {
		t.Fatalf("train size %d, want 225", len(d.TrainIdx))
	}
	// Split must be disjoint.
	seen := make(map[int]bool)
	for _, i := range append(append([]int(nil), d.TrainIdx...), d.TestIdx...) {
		if seen[i] {
			t.Fatal("index appears twice in split")
		}
		seen[i] = true
	}
}

func TestConfigsDistinct(t *testing.T) {
	d := gen(t, "hessian", smallOpts())
	keys := make(map[uint64]bool)
	for _, cfg := range d.Configs {
		k := d.Space.Key(cfg)
		if keys[k] {
			t.Fatal("duplicate configuration in dataset")
		}
		keys[k] = true
	}
}

func TestFeaturesStandardised(t *testing.T) {
	d := gen(t, "lu", smallOpts())
	dim := d.Space.Dim()
	for j := 0; j < dim; j++ {
		var w stats.Welford
		for _, f := range d.Features {
			w.Add(f[j])
		}
		if math.Abs(w.Mean()) > 1e-9 {
			t.Fatalf("dim %d mean %v not ~0", j, w.Mean())
		}
		if math.Abs(w.Variance()-1) > 1e-9 {
			t.Fatalf("dim %d variance %v not ~1", j, w.Variance())
		}
	}
}

func TestObservedMeanTracksTrueMean(t *testing.T) {
	d := gen(t, "mm", smallOpts()) // quiet kernel
	for i := range d.Configs {
		rel := math.Abs(d.Observed[i].Mean-d.TrueMean[i]) / d.TrueMean[i]
		if rel > 0.25 {
			t.Fatalf("config %d: observed mean %v vs true %v", i, d.Observed[i].Mean, d.TrueMean[i])
		}
	}
}

func TestObserveReproducesGeneration(t *testing.T) {
	d := gen(t, "atax", smallOpts())
	// Recomputing the observed mean from Observe must give the stored
	// value exactly.
	for _, i := range []int{0, 17, 299} {
		var w stats.Welford
		for j := 0; j < d.Opts.NObs; j++ {
			w.Add(d.Observe(i, j))
		}
		if math.Abs(w.Mean()-d.Observed[i].Mean) > 1e-12 {
			t.Fatalf("config %d: regenerated mean %v != stored %v", i, w.Mean(), d.Observed[i].Mean)
		}
		if math.Abs(w.Variance()-d.Observed[i].Variance) > 1e-12 {
			t.Fatalf("config %d: regenerated variance mismatch", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := gen(t, "jacobi", smallOpts())
	b := gen(t, "jacobi", smallOpts())
	for i := range a.Configs {
		if a.Observed[i] != b.Observed[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
	opts2 := smallOpts()
	opts2.Seed = 43
	c := gen(t, "jacobi", opts2)
	same := 0
	for i := range a.Configs {
		if a.Space.Key(a.Configs[i]) == c.Space.Key(c.Configs[i]) {
			same++
		}
	}
	if same == len(a.Configs) {
		t.Fatal("different seeds produced identical config sets")
	}
}

func TestTestAccessors(t *testing.T) {
	d := gen(t, "bicgkernel", smallOpts())
	tf := d.TestFeatures()
	tt := d.TestTargets()
	if len(tf) != len(d.TestIdx) || len(tt) != len(d.TestIdx) {
		t.Fatal("test accessors have wrong lengths")
	}
	for i, idx := range d.TestIdx {
		if tt[i] != d.Observed[idx].Mean {
			t.Fatal("TestTargets mismatch")
		}
	}
	trf := d.TrainFeatures()
	if len(trf) != len(d.TrainIdx) {
		t.Fatal("TrainFeatures has the wrong length")
	}
	for i, idx := range d.TrainIdx {
		if &trf[i][0] != &d.Features[idx][0] {
			t.Fatal("TrainFeatures row is not the corpus row")
		}
	}
}

func TestVarianceSummary(t *testing.T) {
	d := gen(t, "correlation", smallOpts())
	s := d.VarianceSummary()
	if s.N != 300 || s.Min < 0 || s.Max < s.Min || s.Mean <= 0 {
		t.Fatalf("bad variance summary %+v", s)
	}
	// A loud kernel must show a wide variance spread (Table 2).
	if s.Max/math.Max(s.Min, 1e-12) < 100 {
		t.Fatalf("variance spread too narrow: %+v", s)
	}
}

func TestCIOverMeanSummary(t *testing.T) {
	d := gen(t, "adi", smallOpts())
	s35, err := d.CIOverMeanSummary(12, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := d.CIOverMeanSummary(5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer observations widen the confidence interval on average.
	if s5.Mean <= s35.Mean {
		t.Fatalf("5-sample CI/mean %v not above 12-sample %v", s5.Mean, s35.Mean)
	}
	if _, err := d.CIOverMeanSummary(1, 0.95); err == nil {
		t.Fatal("CI with 1 observation accepted")
	}
}

func TestNoisyKernelHasHigherVariance(t *testing.T) {
	quiet := gen(t, "lu", smallOpts()).VarianceSummary()
	loud := gen(t, "correlation", smallOpts()).VarianceSummary()
	if loud.Mean <= quiet.Mean {
		t.Fatalf("correlation variance %v not above lu %v", loud.Mean, quiet.Mean)
	}
}
