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
	if len(d.Configs) != n || len(d.Raw) != n || len(d.Features) != n ||
		len(d.TestTargets()) != len(d.TestIdx) {
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

// mustStats reads configuration i's statistics, failing the test on a
// measurer error.
func mustStats(t *testing.T, d *Dataset, i int) PointStats {
	t.Helper()
	st, err := d.Stats(i)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestObservedMeanTracksTrueMean(t *testing.T) {
	d := gen(t, "mm", smallOpts()) // quiet kernel
	for i := range d.Configs {
		st := mustStats(t, d, i)
		mu, err := d.TrueMean(i)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(st.Mean-mu) / mu
		if rel > 0.25 {
			t.Fatalf("config %d: observed mean %v vs true %v", i, st.Mean, mu)
		}
	}
}

func TestObserveReproducesGeneration(t *testing.T) {
	d := gen(t, "atax", smallOpts())
	// Recomputing a test configuration's observed mean from Observe
	// must give the stored target exactly.
	targets := d.TestTargets()
	for _, pos := range []int{0, 17, len(d.TestIdx) - 1} {
		var w stats.Welford
		for j := 0; j < d.Opts.NObs; j++ {
			y, err := d.Observe(d.TestIdx[pos], j)
			if err != nil {
				t.Fatal(err)
			}
			w.Add(y)
		}
		if math.Abs(w.Mean()-targets[pos]) > 1e-12 {
			t.Fatalf("test config %d: regenerated mean %v != stored %v", pos, w.Mean(), targets[pos])
		}
	}
	// Pool statistics, computed on demand, are what a fresh measurer on
	// the corpus seed observes.
	meas, err := d.Space.Measurer(d.Opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 17, 299} {
		var w stats.Welford
		for j := 0; j < d.Opts.NObs; j++ {
			y, err := meas.Observe(d.Configs[i], j)
			if err != nil {
				t.Fatal(err)
			}
			w.Add(y)
		}
		st := mustStats(t, d, i)
		if math.Abs(w.Mean()-st.Mean) > 1e-12 {
			t.Fatalf("config %d: regenerated mean %v != on-demand %v", i, w.Mean(), st.Mean)
		}
		if math.Abs(w.Variance()-st.Variance) > 1e-12 {
			t.Fatalf("config %d: regenerated variance mismatch", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := gen(t, "jacobi", smallOpts())
	b := gen(t, "jacobi", smallOpts())
	for i := range a.Configs {
		if mustStats(t, a, i) != mustStats(t, b, i) {
			t.Fatal("same seed produced different datasets")
		}
	}
	at, bt := a.TestTargets(), b.TestTargets()
	for i := range at {
		if at[i] != bt[i] {
			t.Fatal("same seed produced different test targets")
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
		if tt[i] != mustStats(t, d, idx).Mean {
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
	s, err := d.VarianceSummary()
	if err != nil {
		t.Fatal(err)
	}
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
	r12, err := d.CIOverMeans(12, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := d.CIOverMeans(5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(r12) != len(d.Configs) || len(r5) != len(d.Configs) {
		t.Fatalf("%d and %d ratios for %d configurations", len(r12), len(r5), len(d.Configs))
	}
	s12, s5 := stats.Summarize(r12), stats.Summarize(r5)
	// Fewer observations widen the confidence interval on average.
	if s5.Mean <= s12.Mean {
		t.Fatalf("5-sample CI/mean %v not above 12-sample %v", s5.Mean, s12.Mean)
	}
	if _, err := d.CIOverMeans(1, 0.95); err == nil {
		t.Fatal("CI with 1 observation accepted")
	}
}

func TestNoisyKernelHasHigherVariance(t *testing.T) {
	quiet, err := gen(t, "lu", smallOpts()).VarianceSummary()
	if err != nil {
		t.Fatal(err)
	}
	loud, err := gen(t, "correlation", smallOpts()).VarianceSummary()
	if err != nil {
		t.Fatal(err)
	}
	if loud.Mean <= quiet.Mean {
		t.Fatalf("correlation variance %v not above lu %v", loud.Mean, quiet.Mean)
	}
}

// countingSpace wraps a space so that its measurer counts the requests
// Generate makes, per configuration.
type countingSpace struct {
	space.Space
	m *countingMeasurer
}

func (s *countingSpace) Measurer(seed uint64) (space.Measurer, error) {
	inner, err := s.Space.Measurer(seed)
	if err != nil {
		return nil, err
	}
	s.m = &countingMeasurer{Measurer: inner, sp: s.Space,
		trueMean: map[uint64]int{}, compile: map[uint64]int{}}
	return s.m, nil
}

type countingMeasurer struct {
	space.Measurer
	sp                space.Space
	observe           int
	trueMean, compile map[uint64]int
}

func (m *countingMeasurer) TrueMean(cfg space.Config) (float64, error) {
	m.trueMean[m.sp.Key(cfg)]++
	return m.Measurer.TrueMean(cfg)
}

func (m *countingMeasurer) CompileCost(cfg space.Config) (float64, error) {
	m.compile[m.sp.Key(cfg)]++
	return m.Measurer.CompileCost(cfg)
}

func (m *countingMeasurer) Observe(cfg space.Config, ord int) (float64, error) {
	m.observe++
	return m.Measurer.Observe(cfg, ord)
}

// TestGenerateProfilesOnlyTestSet: generation observes each test
// configuration NObs times and asks nothing about the training pool,
// which is measured on demand.
func TestGenerateProfilesOnlyTestSet(t *testing.T) {
	sp, err := space.ByName("gemver")
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSpace{Space: sp}
	d, err := Generate(cs, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(d.TestIdx) * d.Opts.NObs; cs.m.observe != want {
		t.Fatalf("Generate made %d observations, want %d", cs.m.observe, want)
	}
	for _, idx := range d.TrainIdx {
		key := sp.Key(d.Configs[idx])
		if n := cs.m.trueMean[key] + cs.m.compile[key]; n != 0 {
			t.Fatalf("pool config %d: %d true-mean/compile-cost requests during Generate", idx, n)
		}
	}
	// The accessors reach the measurer on demand.
	if _, err := d.CompileCost(d.TrainIdx[0]); err != nil {
		t.Fatal(err)
	}
	if got := cs.m.compile[sp.Key(d.Configs[d.TrainIdx[0]])]; got != 1 {
		t.Fatalf("CompileCost made %d measurer requests, want 1", got)
	}
}

// BenchmarkGenerate builds one corpus per kernel at the CLI's default
// shape: 3,600 configurations, a 3,000-configuration training pool and
// 35 observations per test configuration.
func BenchmarkGenerate(b *testing.B) {
	var sps []space.Space
	for _, name := range []string{"mm", "gemver", "dgemv3"} {
		sp, err := space.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		sps = append(sps, sp)
	}
	opts := Options{NConfigs: 3600, NObs: 35, TrainCount: 3000, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sp := range sps {
			if _, err := Generate(sp, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
