package experiment

import (
	"errors"
	"math"
	"testing"

	"alic/internal/dataset"
	"alic/internal/space"
	_ "alic/internal/space/spaptspace"
	_ "alic/internal/space/synthetic"
	"alic/internal/stats"
)

// tinySettings keeps experiment tests fast.
func tinySettings() Settings {
	return Settings{
		NInit: 3, NObs: 8, NCand: 30, NMax: 60,
		Particles: 50, ScoreParticles: 20,
		Reps:        2,
		PoolConfigs: 250, TestConfigs: 80,
		EvalEvery: 10,
		Seed:      7,
	}
}

// mustSpaces resolves registered space names.
func mustSpaces(t *testing.T, names ...string) []space.Space {
	t.Helper()
	spaces, err := orDefault(nil, names)
	if err != nil {
		t.Fatal(err)
	}
	return spaces
}

func TestSettingsValidate(t *testing.T) {
	if err := FastSettings().validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperSettings().validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinySettings()
	bad.Reps = 0
	if err := bad.validate(); err == nil {
		t.Fatal("zero reps accepted")
	}
	bad2 := tinySettings()
	bad2.NMax = 1
	if err := bad2.validate(); err == nil {
		t.Fatal("NMax < NInit accepted")
	}
}

func TestPaperSettingsMatchSection44(t *testing.T) {
	s := PaperSettings()
	if s.NInit != 5 || s.NObs != 35 || s.NCand != 500 || s.NMax != 2500 {
		t.Fatalf("learner budgets %+v do not match §4.4", s)
	}
	if s.Particles != 5000 {
		t.Fatalf("particles %d, paper uses 5000", s.Particles)
	}
	if s.Reps != 10 || s.PoolConfigs != 7500 || s.TestConfigs != 2500 {
		t.Fatalf("dataset scale %+v does not match §4.5", s)
	}
}

func TestStrategyStrings(t *testing.T) {
	if AllObservations.String() != "all observations" ||
		OneObservation.String() != "one observation" ||
		VariableObservations.String() != "variable observations" {
		t.Fatal("strategy names wrong")
	}
	if len(Strategies()) != 3 {
		t.Fatal("want 3 strategies")
	}
}

func TestRunCurvesShapes(t *testing.T) {
	// correlation's ~4 s runtime dwarfs its compile time, so the cost
	// gap between the plans is driven by observation counts. (For
	// compile-dominated kernels like mvt the gap is legitimately small
	// — that is exactly the paper's low-speed-up case.)
	bc, err := RunCurves(mustSpaces(t, "correlation")[0], tinySettings(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Curves) != 3 {
		t.Fatalf("got %d curves", len(bc.Curves))
	}
	for strat, c := range bc.Curves {
		if len(c.Cost) == 0 || len(c.Cost) != len(c.Error) {
			t.Fatalf("%v: malformed curve", strat)
		}
		prev := 0.0
		for i, cost := range c.Cost {
			if cost <= prev {
				t.Fatalf("%v: cost not increasing at %d", strat, i)
			}
			prev = cost
			if c.Error[i] <= 0 || math.IsNaN(c.Error[i]) {
				t.Fatalf("%v: bad error %v", strat, c.Error[i])
			}
		}
	}
	// The fixed-35 plan must be far more expensive than the variable
	// plan at equal acquisition counts.
	all := bc.Curves[AllObservations]
	variable := bc.Curves[VariableObservations]
	if all.Cost[len(all.Cost)-1] < 3*variable.Cost[len(variable.Cost)-1] {
		t.Fatalf("fixed-35 cost %v not well above variable %v",
			all.Cost[len(all.Cost)-1], variable.Cost[len(variable.Cost)-1])
	}
}

func TestCurveHelpers(t *testing.T) {
	c := Curve{
		Cost:  []float64{1, 2, 3, 4},
		Error: []float64{0.9, 0.5, 0.7, 0.4},
	}
	if got := c.MinError(); got != 0.4 {
		t.Fatalf("MinError %v", got)
	}
	if got := c.CostToReach(0.5); got != 2 {
		t.Fatalf("CostToReach(0.5) = %v", got)
	}
	if got := c.CostToReach(0.1); !math.IsInf(got, 1) {
		t.Fatalf("unreachable level returned %v", got)
	}
}

func TestLowestCommon(t *testing.T) {
	baseline := Curve{Cost: []float64{10, 20, 30}, Error: []float64{0.9, 0.6, 0.3}}
	ours := Curve{Cost: []float64{1, 2, 3}, Error: []float64{0.8, 0.5, 0.45}}
	level, baseCost, ourCost := LowestCommon(baseline, ours)
	if level != 0.45 {
		t.Fatalf("level %v, want 0.45 (max of the two minima)", level)
	}
	if baseCost != 30 {
		t.Fatalf("baseline cost %v", baseCost)
	}
	if ourCost != 3 {
		t.Fatalf("our cost %v", ourCost)
	}
}

func TestTable1SingleKernel(t *testing.T) {
	// synthetic/needle covers a space outside the SPAPT suite.
	for _, name := range []string{"lu", "synthetic/needle"} {
		t.Run(name, func(t *testing.T) {
			res, err := Table1(mustSpaces(t, name), tinySettings(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("rows %d", len(res.Rows))
			}
			row := res.Rows[0]
			if row.Benchmark != name {
				t.Fatalf("benchmark %q", row.Benchmark)
			}
			if row.LowestCommonRMSE <= 0 {
				t.Fatalf("common RMSE %v", row.LowestCommonRMSE)
			}
			if row.BaselineCost <= 0 || row.OurCost <= 0 {
				t.Fatalf("costs %v %v", row.BaselineCost, row.OurCost)
			}
			if row.Speedup <= 0 {
				t.Fatalf("speedup %v", row.Speedup)
			}
			if math.Abs(res.GeoMeanSpeedup-row.Speedup) > 1e-12 {
				t.Fatal("geomean of one row must equal the row")
			}
			if len(res.Curves) != 1 || res.Curves[0].Space.Name() != name {
				t.Fatal("curves not retained")
			}
		})
	}
}

// TestTable1Fidelity gates the paper's headline claim (Table 1: about
// 4x geometric-mean saving) on the whole suite at FastSettings with one
// repetition, at two seeds: the geometric mean must reach 2x and the
// variable plan must beat the fixed-35 baseline on every kernel.
// These bounds are a quality bar and are not to be loosened.
func TestTable1Fidelity(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		s := FastSettings()
		s.Reps = 1
		s.Seed = seed
		res, err := Table1(nil, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 11 {
			t.Fatalf("seed %d: %d rows, want the 11-kernel suite", seed, len(res.Rows))
		}
		for _, row := range res.Rows {
			if !(row.Speedup > 1) {
				t.Errorf("seed %d: %s speed-up %.3fx, want above 1x", seed, row.Benchmark, row.Speedup)
			}
		}
		if !(res.GeoMeanSpeedup >= 2) {
			t.Errorf("seed %d: geometric-mean speed-up %.3fx, want at least 2x", seed, res.GeoMeanSpeedup)
		}
		t.Logf("seed %d: geometric mean %.3fx", seed, res.GeoMeanSpeedup)
	}
}

func TestTable2(t *testing.T) {
	res, err := Table2(mustSpaces(t, "lu", "correlation"), tinySettings(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	lu, corr := res.Rows[0], res.Rows[1]
	// The loud kernel must show higher mean variance (Table 2 ordering).
	if corr.Variance.Mean <= lu.Variance.Mean {
		t.Fatalf("correlation variance %v not above lu %v",
			corr.Variance.Mean, lu.Variance.Mean)
	}
	// 5-sample CIs are wider than the full-plan CIs on average.
	for _, row := range res.Rows {
		if row.CI5.Mean <= row.CI35.Mean {
			t.Fatalf("%s: CI5 mean %v not above CI35 mean %v",
				row.Benchmark, row.CI5.Mean, row.CI35.Mean)
		}
	}
}

func TestFailureRates(t *testing.T) {
	ds, err := buildDataset(mustSpaces(t, "correlation")[0], tinySettings())
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := ds.CIOverMeans(5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	rate := stats.FractionAbove(ratios, 0.05)
	if rate < 0 || rate > 1 {
		t.Fatalf("rate %v", rate)
	}
	// A loud kernel must have some failures at 5 observations.
	if rate == 0 {
		t.Fatal("correlation shows no CI failures at 5 observations")
	}
	if _, err := ds.CIOverMeans(1, 0.95); err == nil {
		t.Fatal("nObs=1 accepted")
	}
}

func TestFigure1(t *testing.T) {
	res, err := Figure1(8, 10, 1e-4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Factors) != 8 || len(res.MAE1) != 8 || len(res.Counts) != 8 {
		t.Fatal("grid shapes wrong")
	}
	if res.FixedRuns != 8*8*10 {
		t.Fatalf("fixed runs %d", res.FixedRuns)
	}
	if res.AdaptiveRuns >= res.FixedRuns {
		t.Fatalf("adaptive plan (%d runs) no cheaper than fixed (%d)",
			res.AdaptiveRuns, res.FixedRuns)
	}
	sawOne, sawMany := false, false
	for a := range res.Counts {
		for b := range res.Counts[a] {
			c := res.Counts[a][b]
			if c < 1 || c > 10 {
				t.Fatalf("count %d out of range", c)
			}
			if c == 1 {
				sawOne = true
			}
			if c > 1 {
				sawMany = true
			}
			if res.MAEOpt[a][b] < 0 || res.MAE1[a][b] < 0 {
				t.Fatal("negative MAE")
			}
		}
	}
	// The paper's key observation: "for most but not all points, a
	// single sample is enough".
	if !sawOne || !sawMany {
		t.Fatalf("counts not heterogeneous (sawOne=%v sawMany=%v)", sawOne, sawMany)
	}
	if _, err := Figure1(1, 10, 1e-4, 3); err == nil {
		t.Fatal("bad grid accepted")
	}
}

func TestFigure2(t *testing.T) {
	res, err := Figure2(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Factors) != 30 || len(res.Observed) != 30 || len(res.TrueMean) != 30 {
		t.Fatal("lengths wrong")
	}
	for i := range res.Observed {
		if res.Observed[i] <= 0 || res.TrueMean[i] <= 0 {
			t.Fatal("non-positive runtime")
		}
	}
	// Figure 2 structure: the curve climbs from the low plateau to a
	// higher one.
	if res.TrueMean[29] <= res.TrueMean[0]*1.05 {
		t.Fatalf("no climb: %v -> %v", res.TrueMean[0], res.TrueMean[29])
	}
	// Late plateau: last five factors roughly flat.
	late := math.Abs(res.TrueMean[29]-res.TrueMean[24]) / res.TrueMean[24]
	if late > 0.1 {
		t.Fatalf("late region not flat: %v", late)
	}
	if _, err := Figure2(1, 5); err == nil {
		t.Fatal("bad factor accepted")
	}
}

func TestFigure6(t *testing.T) {
	if got := Figure6Kernels(); len(got) != 6 {
		t.Fatalf("Figure 6 kernels %v", got)
	}
	out, err := Figure6(mustSpaces(t, "mvt"), tinySettings(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Curves) != 3 {
		t.Fatal("Figure 6 output malformed")
	}
	live := liveSpace{mustSpaces(t, "mvt")[0]}
	if _, err := Figure6([]space.Space{live}, tinySettings(), nil); !errors.Is(err, dataset.ErrLiveSpace) {
		t.Fatalf("live space: err %v, want ErrLiveSpace", err)
	}
}

// liveSpace marks a simulated space as live, so corpus generation must
// refuse it.
type liveSpace struct{ space.Space }

func (liveSpace) Live() bool { return true }

func TestSection43(t *testing.T) {
	res, err := Section43(mustSpaces(t, "lu", "correlation"), tinySettings(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, v := range []float64{row.Fail1At35, row.Fail5At35, row.Fail5At5, row.Fail5At2} {
			if v < 0 || v > 1 {
				t.Fatalf("%s: rate %v out of [0,1]", row.Benchmark, v)
			}
		}
		// Fewer observations can only fail more often at the same
		// threshold (up to sampling noise on tiny corpora; require
		// no gross inversion).
		if row.Fail5At2 < row.Fail5At35-0.05 {
			t.Fatalf("%s: 2-obs failure rate %v below 35-obs %v",
				row.Benchmark, row.Fail5At2, row.Fail5At35)
		}
		// The 1%% threshold is stricter than 5%% at equal obs.
		if row.Fail1At35 < row.Fail5At35 {
			t.Fatalf("%s: stricter threshold fails less often", row.Benchmark)
		}
	}
	// The loud kernel must break thresholds more often than the quiet.
	if res.Rows[1].Fail1At35 <= res.Rows[0].Fail1At35 {
		t.Fatalf("correlation (%v) not failing more than lu (%v)",
			res.Rows[1].Fail1At35, res.Rows[0].Fail1At35)
	}
	// Suite row is a weighted average, so it lies between the rows.
	lo, hi := res.Rows[0].Fail1At35, res.Rows[1].Fail1At35
	if lo > hi {
		lo, hi = hi, lo
	}
	if res.Suite.Fail1At35 < lo-1e-9 || res.Suite.Fail1At35 > hi+1e-9 {
		t.Fatalf("suite rate %v outside [%v, %v]", res.Suite.Fail1At35, lo, hi)
	}
}

func TestRunCurvesParallelDeterminism(t *testing.T) {
	// Concurrency must not change results: 1 worker vs many workers.
	sp := mustSpaces(t, "mvt")[0]
	s1 := tinySettings()
	s1.Workers = 1
	sN := tinySettings()
	sN.Workers = 4
	a, err := RunCurves(sp, s1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCurves(sp, sN, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range Strategies() {
		ca, cb := a.Curves[strat], b.Curves[strat]
		if len(ca.Cost) != len(cb.Cost) {
			t.Fatalf("%v: curve lengths differ", strat)
		}
		for i := range ca.Cost {
			if ca.Cost[i] != cb.Cost[i] || ca.Error[i] != cb.Error[i] {
				t.Fatalf("%v: parallel run diverged at point %d", strat, i)
			}
		}
	}
}
