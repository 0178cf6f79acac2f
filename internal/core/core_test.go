package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"alic/internal/evaluator"
	"alic/internal/model"
	"alic/internal/rng"
	"alic/internal/stats"
)

// funcSource simulates profiling a synthetic response surface with
// configurable noise and compile cost. It is a pure evaluator source:
// observation (i, ord) draws its noise from a stream keyed by the
// seed, the item and the ordinal, and the compile cost rides on
// ordinal zero, so the engine's ledger charges it once per item.
type funcSource struct {
	pool        SlicePool
	fn          func(x []float64) float64
	noiseSigma  func(x []float64) float64
	compileCost float64
	seed        uint64
}

func newFuncSource(pool SlicePool, fn func([]float64) float64,
	sigma func([]float64) float64, compileCost float64, seed uint64) *funcSource {
	return &funcSource{pool: pool, fn: fn, noiseSigma: sigma, compileCost: compileCost, seed: seed}
}

func (s *funcSource) Measure(i, ord int) (evaluator.Sample, error) {
	r := rng.NewStream(s.seed^uint64(i)*0x9e3779b97f4a7c15, uint64(ord)+1)
	x := s.pool[i]
	y := s.fn(x) + r.Norm()*s.noiseSigma(x)
	if y < 0.001 {
		y = 0.001
	}
	out := evaluator.Sample{Value: y}
	if ord == 0 {
		out.Compile = s.compileCost
	}
	return out, nil
}

// constSigma is a homoskedastic noise level for funcSource.
func constSigma(v float64) func([]float64) float64 {
	return func([]float64) float64 { return v }
}

// gridPool builds a 1D pool of n evenly spaced points in [0, 1].
func gridPool(n int) SlicePool {
	p := make(SlicePool, n)
	for i := range p {
		p[i] = []float64{float64(i) / float64(n-1)}
	}
	return p
}

func stepFn(x []float64) float64 {
	if x[0] < 0.5 {
		return 1
	}
	return 3
}

func smallOpts() Options {
	o := DefaultOptions()
	o.NInit = 4
	o.NObs = 8
	o.NCand = 40
	o.NMax = 120
	o.EvalEvery = 20
	o.Tree.Particles = 60
	o.Tree.ScoreParticles = 20
	return o
}

// testEval builds an evaluator measuring RMSE against the true function
// over a probe grid.
func testEval(fn func([]float64) float64) ModelEvaluator {
	probes := gridPool(101)
	want := make([]float64, len(probes))
	for i, x := range probes {
		want[i] = fn(x)
	}
	return func(m model.Model) float64 {
		pred := make([]float64, len(probes))
		for i, x := range probes {
			pred[i] = m.PredictMeanFast(x)
		}
		return stats.RMSE(pred, want)
	}
}

func TestNewValidation(t *testing.T) {
	pool := gridPool(50)
	src := newFuncSource(pool, stepFn, constSigma(0.01), 0.1, 1)
	cases := []func(*Options){
		func(o *Options) { o.NInit = 0 },
		func(o *Options) { o.NObs = 0 },
		func(o *Options) { o.NCand = 0 },
		func(o *Options) { o.NMax = o.NInit - 1 },
		func(o *Options) { o.Batch = 0 },
		func(o *Options) { o.Plan = FixedPlan; o.PlanObs = 0 },
		func(o *Options) { o.NInit = 100 }, // exceeds pool
	}
	for i, mutate := range cases {
		o := smallOpts()
		mutate(&o)
		if _, err := New(o, pool, src, nil); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	if _, err := New(smallOpts(), nil, src, nil); err == nil {
		t.Fatal("nil pool accepted")
	}
	if _, err := New(smallOpts(), pool, nil, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestLearnsStep(t *testing.T) {
	pool := gridPool(400)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 2)
	eval := testEval(stepFn)
	l, err := New(smallOpts(), pool, src, eval)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError > 0.35 {
		t.Fatalf("final RMSE %v too high for a clean step", res.FinalError)
	}
	if res.Acquired != 120 {
		t.Fatalf("acquired %d, want 120", res.Acquired)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no learning curve recorded")
	}
	// Error at the end must improve on the earliest recorded point.
	first, last := res.Curve[0].Error, res.Curve[len(res.Curve)-1].Error
	if last > first {
		t.Fatalf("learning made things worse: %v -> %v", first, last)
	}
}

func TestCurveCostMonotone(t *testing.T) {
	pool := gridPool(300)
	l, _ := New(smallOpts(), pool, newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 3), testEval(stepFn))
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, p := range res.Curve {
		if p.Cost <= prev {
			t.Fatalf("curve cost not increasing: %v after %v", p.Cost, prev)
		}
		prev = p.Cost
	}
	if res.Cost != l.ev.Cost() {
		t.Fatal("result cost disagrees with the engine ledger")
	}
}

func TestVariablePlanRevisitsNoisyRegions(t *testing.T) {
	// Heteroskedastic surface: right half very noisy. The variable plan
	// should spend extra observations there.
	pool := gridPool(500)
	sigma := func(x []float64) float64 {
		if x[0] >= 0.5 {
			return 0.6
		}
		return 0.01
	}
	fn := func(x []float64) float64 { return 2 + x[0] }
	src := newFuncSource(pool, fn, sigma, 0.05, 4)
	opts := smallOpts()
	opts.NMax = 200
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Revisits == 0 {
		t.Fatal("variable plan never revisited under heavy noise")
	}
	// Observation cap: no configuration may exceed NObs observations.
	for idx, n := range l.ObservationCounts() {
		if n > opts.NObs {
			t.Fatalf("pool item %d observed %d times, cap %d", idx, n, opts.NObs)
		}
	}
	// Revisited observations should concentrate in the noisy half.
	noisyObs, quietObs := 0, 0
	for idx, n := range l.ObservationCounts() {
		if n <= 1 {
			continue
		}
		if pool[idx][0] >= 0.5 {
			noisyObs += n
		} else {
			quietObs += n
		}
	}
	if noisyObs <= quietObs {
		t.Fatalf("multi-observation effort not concentrated in noisy half: noisy=%d quiet=%d",
			noisyObs, quietObs)
	}
}

func TestFixedPlanBookkeeping(t *testing.T) {
	pool := gridPool(300)
	src := newFuncSource(pool, stepFn, constSigma(0.02), 0.05, 5)
	opts := smallOpts()
	opts.Plan = FixedPlan
	opts.PlanObs = 7
	opts.NMax = 40
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Revisits != 0 {
		t.Fatalf("fixed plan revisited %d times", res.Revisits)
	}
	// Every acquisition (including seeds) takes exactly PlanObs runs.
	want := res.Acquired * opts.PlanObs
	if res.Observations != want {
		t.Fatalf("observations %d, want %d", res.Observations, want)
	}
	if res.Unique != res.Acquired {
		t.Fatalf("fixed plan unique %d != acquired %d", res.Unique, res.Acquired)
	}
}

func TestVariableCheaperThanFixedAtSameAcquisitions(t *testing.T) {
	fn := func(x []float64) float64 { return 1 + math.Sin(3*x[0]) }
	sigma := func(x []float64) float64 { return 0.02 }
	run := func(plan SamplingPlan, planObs int) float64 {
		pool := gridPool(400)
		src := newFuncSource(pool, fn, sigma, 0.05, 6)
		opts := smallOpts()
		opts.Plan = plan
		opts.PlanObs = planObs
		l, _ := New(opts, pool, src, nil)
		res, err := l.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost
	}
	costVar := run(VariablePlan, 1)
	costFixed := run(FixedPlan, 35)
	if costVar >= costFixed/3 {
		t.Fatalf("variable plan cost %v not well below fixed-35 cost %v", costVar, costFixed)
	}
}

func TestStopCost(t *testing.T) {
	pool := gridPool(300)
	src := newFuncSource(pool, stepFn, constSigma(0.02), 0.5, 7)
	opts := smallOpts()
	opts.NMax = 10000
	opts.StopCost = 50
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired >= 10000 {
		t.Fatal("StopCost did not stop the run")
	}
	// Cost can overshoot by at most one batch of observations.
	if res.Cost > 80 {
		t.Fatalf("cost %v overshot StopCost badly", res.Cost)
	}
}

func TestBatchAcquisition(t *testing.T) {
	pool := gridPool(400)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 8)
	opts := smallOpts()
	opts.Batch = 5
	opts.NMax = 64
	l, _ := New(opts, pool, src, testEval(stepFn))
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired != 64 {
		t.Fatalf("batch run acquired %d, want exactly NMax=64", res.Acquired)
	}
	if res.FinalError > 0.6 {
		t.Fatalf("batch learning failed: RMSE %v", res.FinalError)
	}
}

func TestScorers(t *testing.T) {
	for _, sc := range []Acquisition{ALC, ALM, RandomScore} {
		pool := gridPool(300)
		src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 9)
		opts := smallOpts()
		opts.Scorer = sc
		opts.NMax = 60
		l, _ := New(opts, pool, src, testEval(stepFn))
		res, err := l.Run(nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if res.FinalError > 1.0 {
			t.Fatalf("%s: RMSE %v implausibly high", sc.Name(), res.FinalError)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() float64 {
		pool := gridPool(300)
		src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 10)
		l, _ := New(smallOpts(), pool, src, testEval(stepFn))
		res, err := l.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalError
	}
	if run() != run() {
		t.Fatal("same seed produced different results")
	}
}

func TestCandidateSetDistinct(t *testing.T) {
	// A pool much smaller than NCand forces the rejection sampler to
	// redraw constantly; every candidate must still be distinct, or a
	// batch could acquire the same configuration twice.
	pool := gridPool(12)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 21)
	opts := smallOpts()
	opts.NInit = 3
	opts.NCand = 40
	l, err := New(opts, pool, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil { // seeding
		t.Fatal(err)
	}
	cands := l.candidateSet()
	if feats := l.gatherFeatures(cands); len(cands) != len(feats) {
		t.Fatalf("cands/feats length mismatch: %d vs %d", len(cands), len(feats))
	}
	seen := make(map[int]bool, len(cands))
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("candidate %d appears twice in %v", c, cands)
		}
		seen[c] = true
	}
}

func TestSmallPoolExhaustion(t *testing.T) {
	// Pool smaller than NMax: the learner must stop gracefully once
	// every configuration is fully observed.
	pool := gridPool(12)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 11)
	opts := smallOpts()
	opts.NInit = 3
	opts.NObs = 2
	opts.NCand = 10
	opts.NMax = 1000
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired >= 1000 {
		t.Fatal("learner did not stop on pool exhaustion")
	}
	// Cap must hold for every item.
	for idx, n := range l.ObservationCounts() {
		if n > opts.NObs {
			t.Fatalf("item %d observed %d > cap %d", idx, n, opts.NObs)
		}
	}
}

func TestPickBest(t *testing.T) {
	scores := []float64{3, 1, 4, 2}
	got := PickBest(scores, 2, true)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("minimise pick = %v", got)
	}
	got = PickBest(scores, 2, false)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("maximise pick = %v", got)
	}
	if got := PickBest(scores, 9, true); len(got) != 4 {
		t.Fatalf("over-long pick length %d", len(got))
	}
}

// pickBestReference is PickBest as it was before it stopped
// allocating a whole index permutation: a partial selection sort over
// every position. Its swaps decide which tied index comes next, so it
// stays as the reference PickBest must reproduce exactly.
func pickBestReference(scores []float64, batch int, minimise bool) []int {
	if batch <= 0 {
		return nil
	}
	if batch > len(scores) {
		batch = len(scores)
	}
	pos := make([]int, len(scores))
	for i := range pos {
		pos[i] = i
	}
	for i := 0; i < batch; i++ {
		best := i
		for j := i + 1; j < len(pos); j++ {
			better := scores[pos[j]] < scores[pos[best]]
			if !minimise {
				better = scores[pos[j]] > scores[pos[best]]
			}
			if better {
				best = j
			}
		}
		pos[i], pos[best] = pos[best], pos[i]
	}
	return pos[:batch]
}

// TestPickBestMatchesReference compares PickBest with the old
// selection sort on tie-heavy random score vectors (a handful of
// distinct values, some NaN), for batches 1 to 12 in both directions.
func TestPickBestMatchesReference(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(40)
		distinct := 1 + r.Intn(5)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(r.Intn(distinct))
			if r.Intn(25) == 0 {
				scores[i] = math.NaN()
			}
		}
		batch := 1 + r.Intn(12)
		if trial%2 == 0 {
			batch = 1 + r.Intn(5)
		}
		for _, minimise := range []bool{true, false} {
			want := pickBestReference(scores, batch, minimise)
			got := PickBest(scores, batch, minimise)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scores %v batch %d minimise %v: got %v, want %v",
					scores, batch, minimise, got, want)
			}
		}
	}
}

// TestPickBestAllocatesOnlyResult pins PickBest to one allocation, the
// batch-long result, for the usual single-pick round: no index slice
// as long as the candidate set.
func TestPickBestAllocatesOnlyResult(t *testing.T) {
	scores := make([]float64, 150)
	for i := range scores {
		scores[i] = float64(i % 7)
	}
	for _, minimise := range []bool{true, false} {
		if n := testing.AllocsPerRun(100, func() { PickBest(scores, 1, minimise) }); n != 1 {
			t.Fatalf("minimise=%v: %v allocations per batch-1 call, want 1", minimise, n)
		}
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		PickBest(scores, 1, true)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 64 {
		t.Fatalf("%d bytes per batch-1 call over %d scores, want one int's worth", per, len(scores))
	}
}

func TestNamesAndRegistries(t *testing.T) {
	if VariablePlan.Name() != "variable" || FixedPlan.Name() != "fixed" {
		t.Fatal("plan names wrong")
	}
	if ALC.Name() != "alc" || ALM.Name() != "alm" || RandomScore.Name() != "random" {
		t.Fatal("acquisition names wrong")
	}
	for _, name := range []string{"alc", "alm", "random"} {
		a, err := AcquisitionByName(name)
		if err != nil || a.Name() != name {
			t.Fatalf("AcquisitionByName(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := AcquisitionByName("bogus"); !errors.Is(err, ErrUnknownAcquisition) {
		t.Fatalf("bogus acquisition error = %v", err)
	}
	for _, name := range []string{"variable", "fixed"} {
		p, err := PlanByName(name)
		if err != nil || p.Name() != name {
			t.Fatalf("PlanByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PlanByName("bogus"); !errors.Is(err, ErrUnknownPlan) {
		t.Fatalf("bogus plan error = %v", err)
	}
	if got := AcquisitionNames(); len(got) < 3 {
		t.Fatalf("acquisition names = %v", got)
	}
	if got := PlanNames(); len(got) < 2 {
		t.Fatalf("plan names = %v", got)
	}
	if StopNone.String() != "running" || StopCancelled.String() != "cancelled" ||
		StopBudget.String() != "budget" || StopReason(99).String() == "" {
		t.Fatal("stop reason strings wrong")
	}
}

// greedyMean is a custom acquisition exercising the plug-in path: it
// picks the candidates with the lowest predicted mean runtime (pure
// exploitation), something the built-ins deliberately do not offer.
type greedyMean struct{}

func (greedyMean) Name() string { return "greedy-mean" }

func (greedyMean) Select(m model.Model, feats [][]float64, batch int, _ Rand) ([]int, error) {
	return PickBest(m.PredictMeanFastBatch(feats), batch, true), nil
}

func TestStepWithCustomAcquisition(t *testing.T) {
	RegisterAcquisition(greedyMean{})
	acq, err := AcquisitionByName("greedy-mean")
	if err != nil {
		t.Fatal(err)
	}
	pool := gridPool(300)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 13)
	opts := smallOpts()
	opts.Scorer = acq
	opts.NMax = 40
	l, err := New(opts, pool, src, testEval(stepFn))
	if err != nil {
		t.Fatal(err)
	}
	if l.Model() != nil || l.Done() {
		t.Fatal("learner started pre-seeded or done")
	}
	steps := 0
	for {
		more, err := l.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if steps == 1 && l.Acquired() != opts.NInit {
			t.Fatalf("first step acquired %d, want the %d seeds", l.Acquired(), opts.NInit)
		}
		if !more {
			break
		}
	}
	res := l.Result()
	if res.Acquired != 40 {
		t.Fatalf("acquired %d, want 40", res.Acquired)
	}
	if res.StoppedBy != StopBudget {
		t.Fatalf("stopped by %v, want budget", res.StoppedBy)
	}
	// Each post-seed step acquires one batch; further steps are no-ops.
	if more, err := l.Step(); more || err != nil {
		t.Fatalf("Step after completion = %v, %v", more, err)
	}
	// Exploitation-only selection still yields a usable model here.
	if res.FinalError > 1.0 {
		t.Fatalf("custom acquisition RMSE %v implausibly high", res.FinalError)
	}
}

// dupAcq misbehaves on purpose: it returns the same position twice.
type dupAcq struct{}

func (dupAcq) Name() string { return "dup" }

func (dupAcq) Select(_ model.Model, feats [][]float64, batch int, _ Rand) ([]int, error) {
	out := make([]int, batch)
	return out, nil // every entry is position 0
}

// nilBuilder misbehaves by returning neither a model nor an error.
type nilBuilder struct{}

func (nilBuilder) Name() string                          { return "nil-builder" }
func (nilBuilder) New(model.Params) (model.Model, error) { return nil, nil }

func TestSeedRejectsNilModel(t *testing.T) {
	pool := gridPool(100)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 22)
	opts := smallOpts()
	opts.Model = nilBuilder{}
	l, err := New(opts, pool, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err == nil {
		t.Fatal("nil model from builder accepted")
	}
}

// flakySource fails its failAt-th measurement, then recovers.
type flakySource struct {
	*funcSource
	failAt int64
	calls  atomic.Int64
}

func (s *flakySource) Measure(i, ord int) (evaluator.Sample, error) {
	if s.calls.Add(1) == s.failAt {
		return evaluator.Sample{}, errTransient
	}
	return s.funcSource.Measure(i, ord)
}

var errTransient = errors.New("transient profiling failure")

func TestSeedFailureIsRetryable(t *testing.T) {
	pool := gridPool(200)
	src := &flakySource{
		funcSource: newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 20),
		failAt:     3, // mid-seed
	}
	opts := smallOpts()
	opts.NMax = 20
	l, err := New(opts, pool, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); !errors.Is(err, errTransient) {
		t.Fatalf("first step error = %v, want the source failure", err)
	}
	// The failed attempt must not have committed any bookkeeping.
	if got := len(l.ObservationCounts()); got != 0 {
		t.Fatalf("failed seed committed %d observation counts", got)
	}
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired != 20 {
		t.Fatalf("retried run acquired %d, want 20", res.Acquired)
	}
	// Each seen configuration observed at most the cap: no
	// double-seeded duplicates inflating the counts.
	for idx, n := range l.ObservationCounts() {
		if n > opts.NObs {
			t.Fatalf("item %d observed %d > cap %d after retry", idx, n, opts.NObs)
		}
	}
	// NInit seeds take NObs observations each; every later acquisition
	// takes one. A leak from the failed attempt would inflate this.
	want := opts.NInit*opts.NObs + (res.Acquired - opts.NInit)
	if res.Observations != want {
		t.Fatalf("observations %d, want %d (failed attempt leaked into the count)", res.Observations, want)
	}
}

// emptyAcq misbehaves by declining every non-empty candidate set.
type emptyAcq struct{}

func (emptyAcq) Name() string { return "empty" }

func (emptyAcq) Select(model.Model, [][]float64, int, Rand) ([]int, error) {
	return nil, nil
}

func TestSelectBatchRejectsEmptyPicks(t *testing.T) {
	pool := gridPool(100)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 19)
	opts := smallOpts()
	opts.Scorer = emptyAcq{}
	l, err := New(opts, pool, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil { // seeding
		t.Fatal(err)
	}
	if _, err := l.Step(); err == nil {
		t.Fatal("empty pick from a non-empty candidate set accepted")
	}
	if l.Result().StoppedBy == StopExhausted {
		t.Fatal("contract violation mislabelled as pool exhaustion")
	}
}

func TestSelectBatchRejectsDuplicatePositions(t *testing.T) {
	pool := gridPool(100)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 16)
	opts := smallOpts()
	opts.Scorer = dupAcq{}
	opts.Batch = 3
	l, err := New(opts, pool, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil { // seeding
		t.Fatal(err)
	}
	if _, err := l.Step(); err == nil {
		t.Fatal("duplicate positions accepted")
	}
}

func TestRunCancellation(t *testing.T) {
	pool := gridPool(300)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 14)
	opts := smallOpts()
	opts.NMax = 5000
	opts.NObs = 2
	var calls int
	ctx, cancel := context.WithCancel(context.Background())
	opts.Progress = func(p Progress) {
		calls++
		if p.Acquired >= 30 {
			cancel()
		}
	}
	l, err := New(opts, pool, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedBy != StopCancelled {
		t.Fatalf("stopped by %v, want cancelled", res.StoppedBy)
	}
	if res.Acquired >= 5000 || res.Acquired < 30 {
		t.Fatalf("cancelled run acquired %d", res.Acquired)
	}
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	// Cancellation pauses, it does not destroy: the learner resumes.
	if l.Done() {
		t.Fatal("cancelled learner marked done")
	}
	before := l.Acquired()
	if more, err := l.Step(); err != nil || !more {
		t.Fatalf("resume step = %v, %v", more, err)
	}
	if l.Acquired() <= before {
		t.Fatal("resumed step did not advance")
	}
}

func TestRunAfterDoneKeepsStopReason(t *testing.T) {
	pool := gridPool(200)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 17)
	opts := smallOpts()
	opts.NMax = 20
	l, err := New(opts, pool, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Run(nil); err != nil {
		t.Fatal(err)
	}
	// Finalising a completed run with an expired context must not
	// rewrite the true stop reason.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := l.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedBy != StopBudget {
		t.Fatalf("completed run reported %v after cancelled finalise, want budget", res.StoppedBy)
	}
}

// TestRegistryDynatreeMatchesDefault pins the backend-resolution rule:
// a config-less dynatree builder (what the registry hands out) must
// adopt Options.Tree and behave bit-identically to the nil default.
func TestRegistryDynatreeMatchesDefault(t *testing.T) {
	run := func(b model.Builder) float64 {
		pool := gridPool(300)
		src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 18)
		opts := smallOpts()
		opts.NMax = 40
		opts.Model = b
		l, err := New(opts, pool, src, testEval(stepFn))
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalError
	}
	if def, reg := run(nil), run(model.DynatreeBuilder{}); def != reg {
		t.Fatalf("registry dynatree diverged from default: %v vs %v", reg, def)
	}
}

func TestALCOutperformsRandomOnHeteroskedastic(t *testing.T) {
	// With equal budgets, ALC-guided variable learning should reach
	// equal or better error than passive random selection on a surface
	// with localised complexity. (Seeds fixed; this is a smoke-level
	// comparison, not a statistical claim.)
	fn := func(x []float64) float64 {
		if x[0] > 0.7 {
			return 2 + 3*math.Sin(20*x[0])
		}
		return 2
	}
	sigma := func(x []float64) float64 { return 0.03 }
	run := func(sc Acquisition) float64 {
		pool := gridPool(600)
		src := newFuncSource(pool, fn, sigma, 0.02, 12)
		opts := smallOpts()
		opts.Scorer = sc
		opts.NMax = 150
		l, _ := New(opts, pool, src, testEval(fn))
		res, err := l.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalError
	}
	alc := run(ALC)
	random := run(RandomScore)
	if alc > random*1.5 {
		t.Fatalf("ALC (%v) much worse than random (%v)", alc, random)
	}
}

// runFingerprint renders a finished run at full float precision: the
// summary, every curve point, and an FNV-1a digest of the per-item
// observation counts in item order.
func runFingerprint(res *Result, counts map[int]int) []string {
	out := []string{fmt.Sprintf("cost=%.17g final=%.17g acq=%d obs=%d uniq=%d rev=%d preq=%.17g stop=%v",
		res.Cost, res.FinalError, res.Acquired, res.Observations,
		res.Unique, res.Revisits, res.PrequentialError, res.StoppedBy)}
	for _, p := range res.Curve {
		out = append(out, fmt.Sprintf("curve acq=%d cost=%.17g err=%.17g", p.Acquired, p.Cost, p.Error))
	}
	items := make([]int, 0, len(counts))
	for k := range counts {
		items = append(items, k)
	}
	sort.Ints(items)
	h := fnv.New64a()
	for _, k := range items {
		fmt.Fprintf(h, "%d:%d;", k, counts[k])
	}
	return append(out, fmt.Sprintf("selections=%016x", h.Sum64()))
}

// scorerRun runs the small step-function learner under one scoring
// heuristic and returns its fingerprint.
func scorerRun(t *testing.T, sc Acquisition) []string {
	pool := gridPool(300)
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 10)
	opts := smallOpts()
	opts.Scorer = sc
	l, err := New(opts, pool, src, testEval(stepFn))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return runFingerprint(res, l.ObservationCounts())
}

// scorerTrajectoryGolden holds scorerRun's fingerprints, recorded at
// one scoring worker before the forest became serial.
var scorerTrajectoryGolden = map[string][]string{
	"alc": {
		"cost=278.20071722755642 final=0.0094494092312526548 acq=120 obs=148 uniq=105 rev=15 preq=0.047062515575722837 stop=budget",
		"curve acq=20 cost=96.617222885069168 err=0.34215097487758228",
		"curve acq=40 cost=129.4026913109135 err=0.014270006672652838",
		"curve acq=60 cost=166.252577191424 err=0.012919881703279018",
		"curve acq=80 cost=203.00370814490219 err=0.010742681206399459",
		"curve acq=100 cost=239.38787714670127 err=0.011434702578089519",
		"curve acq=120 cost=278.20071722755642 err=0.0094494092312526548",
		"selections=1e3eb876f94cc219",
	},
	"alm": {
		"cost=318.85012802998477 final=0.0067045001788100401 acq=120 obs=148 uniq=70 rev=50 preq=0.051766616008737512 stop=budget",
		"curve acq=20 cost=96.872534458494755 err=0.1950802282878564",
		"curve acq=40 cost=144.90754348607194 err=0.023041460176377069",
		"curve acq=60 cost=187.13000133858318 err=0.017600792110409887",
		"curve acq=80 cost=233.83270666802659 err=0.0067168586777296407",
		"curve acq=100 cost=276.38988519543994 err=0.0056057180227373866",
		"curve acq=120 cost=318.85012802998477 err=0.0067045001788100401",
		"selections=1eeb12b8e54b6146",
	},
}

// TestScorerTrajectoryGolden pins whole learning runs under both
// built-in scoring heuristics (curve, summary and the selected
// configurations) against fingerprints recorded from the sharded
// scoring path at one worker before the serial forest replaced it.
func TestScorerTrajectoryGolden(t *testing.T) {
	for _, sc := range []Acquisition{ALC, ALM} {
		want, ok := scorerTrajectoryGolden[sc.Name()]
		if !ok {
			t.Fatalf("no golden for %s", sc.Name())
		}
		if got := scorerRun(t, sc); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged from the golden:\ngot  %q\nwant %q", sc.Name(), got, want)
		}
	}
}

// rowOnlyModel hides the backend's PoolBinder extension, forcing the
// learner onto the historical row-gathering path.
type rowOnlyModel struct{ model.Model }

type rowOnlyBuilder struct{ inner model.Builder }

func (b rowOnlyBuilder) Name() string { return b.inner.Name() }
func (b rowOnlyBuilder) New(p model.Params) (model.Model, error) {
	m, err := b.inner.New(p)
	if err != nil {
		return nil, err
	}
	return rowOnlyModel{m}, nil
}

// TestIndexedPathMatchesRowPath is the cross-layer contract of the
// indexed scoring path: a learner whose backend binds the
// pool (dynatree's PoolBinder) must reproduce, bit for bit, the run
// of an identical learner forced onto the row-gathering path — same
// curve, same selections, same costs — for both built-in scoring
// heuristics.
func TestIndexedPathMatchesRowPath(t *testing.T) {
	for _, sc := range []Acquisition{ALC, ALM} {
		run := func(rowOnly bool) (*Result, map[int]int) {
			pool := gridPool(300)
			src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 10)
			opts := smallOpts()
			opts.Scorer = sc
			if rowOnly {
				opts.Model = rowOnlyBuilder{inner: model.DynatreeBuilder{Config: opts.Tree}}
			}
			l, err := New(opts, pool, src, testEval(stepFn))
			if err != nil {
				t.Fatal(err)
			}
			res, err := l.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if rowOnly && l.binder != nil {
				t.Fatal("row-only wrapper still bound the pool")
			}
			if !rowOnly && l.binder == nil {
				t.Fatal("dynatree backend did not bind the pool")
			}
			return res, l.ObservationCounts()
		}
		idx, idxCounts := run(false)
		row, rowCounts := run(true)
		if idx.Acquired != row.Acquired || idx.Observations != row.Observations ||
			idx.Unique != row.Unique || idx.Revisits != row.Revisits || idx.Cost != row.Cost ||
			idx.FinalError != row.FinalError {
			t.Fatalf("%s: indexed and row paths diverged: %+v vs %+v", sc.Name(), idx, row)
		}
		if len(idx.Curve) != len(row.Curve) {
			t.Fatalf("%s: curve lengths differ: %d vs %d", sc.Name(), len(idx.Curve), len(row.Curve))
		}
		for i := range idx.Curve {
			if idx.Curve[i] != row.Curve[i] {
				t.Fatalf("%s: curves diverged at %d: %+v vs %+v", sc.Name(), i, idx.Curve[i], row.Curve[i])
			}
		}
		for k, v := range idxCounts {
			if rowCounts[k] != v {
				t.Fatalf("%s: config %d observed %d (indexed) vs %d (row)", sc.Name(), k, v, rowCounts[k])
			}
		}
	}
}

// resultKey compares everything deterministic about a run. Floats are
// compared by bit pattern (NaN == NaN, and equality means identical,
// not approximately equal).
func resultKey(res *Result) []interface{} {
	return []interface{}{
		math.Float64bits(res.Cost), math.Float64bits(res.FinalError),
		res.Acquired, res.Observations,
		res.Unique, res.Revisits, math.Float64bits(res.PrequentialError),
		res.StoppedBy, res.Curve,
	}
}

// TestSyncEngineBitIdenticalAcrossEvalWorkers pins the engine's
// determinism contract: a run produces byte-identical results at every
// evaluator worker count, because values are pure in (item, ordinal)
// and the cost ledger folds in scheduling order.
func TestSyncEngineBitIdenticalAcrossEvalWorkers(t *testing.T) {
	pool := gridPool(300)
	var base []interface{}
	for _, workers := range []int{1, 2, 8} {
		opts := smallOpts()
		opts.NMax = 40
		opts.Batch = 4
		opts.EvalEvery = 10
		opts.EvalWorkers = workers
		src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 7)
		l, err := New(opts, pool, src, testEval(stepFn))
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Acquired != 40 {
			t.Fatalf("workers=%d acquired %d", workers, res.Acquired)
		}
		key := resultKey(res)
		if base == nil {
			base = key
			continue
		}
		if !reflect.DeepEqual(key, base) {
			t.Fatalf("workers=%d diverged from workers=1:\n%v\nvs\n%v", workers, key, base)
		}
	}
}

// TestEvalWorkersValidation covers the evaluator knob's guard rail.
func TestEvalWorkersValidation(t *testing.T) {
	pool := gridPool(50)
	opts := smallOpts()
	opts.EvalWorkers = -1
	src := newFuncSource(pool, stepFn, constSigma(0.05), 0.05, 40)
	if _, err := New(opts, pool, src, nil); err == nil {
		t.Fatal("negative EvalWorkers accepted")
	}
}
