// Package core implements the paper's contribution: Algorithm 1, an
// active-learning loop for iterative compilation extended with
// sequential analysis. Instead of profiling every selected
// configuration a fixed number of times, the learner takes a single
// observation per acquisition and keeps previously-seen configurations
// in the candidate set (until they accumulate nobs observations), so a
// noisy configuration can be revisited when the model judges another
// observation of it more informative than a fresh configuration — the
// multi-armed-bandit flavour described in §3.1.
//
// The loop is assembled from three pluggable interfaces: the regression
// backend behind it (model.Model, selected via Options.Model), the
// acquisition heuristic (Acquisition — alc, alm, random, or a custom
// registration), and the observation schedule (SamplingPlan — variable,
// fixed, or custom). Execution is step-wise: every round is a
// selection (BeginRound) followed by an observation (FinishRound).
// Step runs the two back to back, Run drives Step to completion under
// a context.Context with an optional progress callback, and a serving
// scheduler may call the two phases separately — all three share one
// code path.
//
// Measurement flows through the evaluator engine
// (internal/evaluator): each round's whole acquisition batch is
// dispatched as one ObserveBatch and the results are folded into the
// model in scheduling order, bit-identical to the historical serial
// loop at every evaluator worker count.
//
//alic:deterministic
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"alic/internal/dynatree"
	"alic/internal/evaluator"
	"alic/internal/model"
	"alic/internal/rng"
	"alic/internal/stats"
)

// ErrClosed reports use of a Learner after Close. Step, Run,
// SelectBatch, BeginRound, FinishRound and a second Close all return
// it (assert with errors.Is) instead of racing a torn-down engine —
// the failure mode a serving layer multiplexing many learners makes
// reachable.
var ErrClosed = errors.New("core: learner closed")

// Pool is the set F of all configurations the learner may sample.
type Pool interface {
	// Len returns the number of configurations in the pool.
	Len() int
	// Features returns the (standardised) feature vector of item i.
	Features(i int) []float64
}

// Options configures a learning run. The defaults mirror §4.4 of the
// paper: ninit=5, nobs=35, nc=500, nmax=2500.
type Options struct {
	// Plan selects the sampling plan (nil = VariablePlan, the paper's
	// sequential-analysis schedule).
	Plan SamplingPlan
	// PlanObs is the constant sample size for FixedPlan (35 or 1 in
	// the paper's comparison).
	PlanObs int
	// Model selects the regression backend (nil = the dynatree backend
	// configured by Options.Tree).
	Model model.Builder
	// NInit seeds the model with this many random configurations.
	NInit int
	// NObs is the number of observations for each seed configuration
	// and the revisit cap of the variable plan.
	NObs int
	// NCand is the number of fresh random candidates per iteration.
	NCand int
	// NMax is the total number of acquisitions (loop iterations).
	NMax int
	// Batch acquires this many configurations per iteration (>= 1),
	// the parallel extension noted in §3.1.
	Batch int
	// Scorer selects the acquisition heuristic (nil = ALC, the paper's
	// choice).
	Scorer Acquisition
	// Tree configures the dynamic-tree model used when Model is nil.
	Tree dynatree.Config
	// EvalEvery evaluates the model (via the ModelEvaluator) after
	// every EvalEvery acquisitions; 0 disables curve recording.
	EvalEvery int
	// Seed drives all learner randomness.
	Seed uint64
	// StopCost, when positive, ends the run once the evaluation cost
	// exceeds it (the wall-clock completion criterion of §3.1).
	StopCost float64
	// StopError, when positive, ends the run once the prequential
	// (one-step-ahead) RMSE over the last StopWindow acquisitions
	// drops to StopError or below — the model-error completion
	// criterion §3.1 sketches, without held-out data or refits.
	StopError float64
	// StopWindow is the sliding-window size of the prequential
	// estimator (default 50 when StopError is set).
	StopWindow int
	// EvalWorkers bounds concurrent measurements inside the learner's
	// evaluator engine, which New builds from it (0 = GOMAXPROCS,
	// 1 = serial); results are bit-identical for every value.
	EvalWorkers int
	// EvalLatency simulates per-measurement profiling latency in the
	// learner's evaluator engine — the knob that reproduces the
	// measurement-bound regime of a real deployment on top of the
	// microsecond-scale simulator. New passes it to the engine with
	// EvalWorkers.
	EvalLatency time.Duration
	// Progress, when non-nil, is invoked by Run after every step.
	Progress func(Progress)
	// Space, when non-empty, names the search space this learner runs
	// over. It is recorded in snapshots as a structural guard:
	// restoring under a differently-named space fails with
	// ErrSnapshotMismatch instead of silently mixing trajectories.
	// Empty means unguarded (the pre-registry behaviour).
	Space string
}

// Progress is the lightweight snapshot handed to Options.Progress
// after each step of Run.
type Progress struct {
	// Acquired counts acquisitions so far.
	Acquired int
	// Observations counts profiling runs so far.
	Observations int
	// Cost is the cumulative evaluation cost in seconds.
	Cost float64
	// ScoreSeconds and UpdateSeconds split the learner's cumulative
	// model-side wall clock between candidate scoring (selection) and
	// folding observed rounds into the model, excluding measurement
	// itself — the phase view that shows whether a session is
	// scoring-bound or propagation-bound without a profiler.
	ScoreSeconds  float64
	UpdateSeconds float64
	// Done reports whether a completion criterion has fired.
	Done bool
}

// DefaultOptions returns the paper's experiment parameters for the
// variable plan.
func DefaultOptions() Options {
	return Options{
		Plan:      VariablePlan,
		PlanObs:   1,
		NInit:     5,
		NObs:      35,
		NCand:     500,
		NMax:      2500,
		Batch:     1,
		Scorer:    ALC,
		Tree:      dynatree.DefaultConfig(),
		EvalEvery: 25,
		Seed:      1,
	}
}

func (o Options) validate(poolLen int, plan SamplingPlan) error {
	if o.NInit < 1 {
		return fmt.Errorf("core: NInit %d < 1", o.NInit)
	}
	if o.NObs < 1 {
		return fmt.Errorf("core: NObs %d < 1", o.NObs)
	}
	if o.NCand < 1 {
		return fmt.Errorf("core: NCand %d < 1", o.NCand)
	}
	if o.NMax < o.NInit {
		return fmt.Errorf("core: NMax %d < NInit %d", o.NMax, o.NInit)
	}
	if o.Batch < 1 {
		return fmt.Errorf("core: Batch %d < 1", o.Batch)
	}
	if n := plan.SeedObservations(o); n < 1 {
		return fmt.Errorf("core: plan %q needs >= 1 seed observations, got %d", plan.Name(), n)
	}
	if n := plan.AcquireObservations(o); n < 1 {
		return fmt.Errorf("core: plan %q needs >= 1 observations per acquisition, got %d", plan.Name(), n)
	}
	if o.EvalWorkers < 0 {
		return fmt.Errorf("core: EvalWorkers %d < 0", o.EvalWorkers)
	}
	if poolLen < o.NInit {
		return fmt.Errorf("core: pool of %d smaller than NInit %d", poolLen, o.NInit)
	}
	return nil
}

// ModelEvaluator measures model quality (e.g. RMSE on a held-out test
// set). Distinct from evaluator.Engine, the measurement engine.
type ModelEvaluator func(m model.Model) float64

// CurvePoint is one sample of the learning curve.
type CurvePoint struct {
	// Acquired counts acquisitions (loop iterations) so far.
	Acquired int
	// Cost is the cumulative evaluation cost in seconds.
	Cost float64
	// Error is the ModelEvaluator's result (NaN if no evaluator).
	Error float64
}

// Result summarises a learning run.
type Result struct {
	// Model is the trained regression backend.
	Model model.Model
	// Curve is the recorded learning curve (empty if EvalEvery == 0 or
	// no evaluator was supplied).
	Curve []CurvePoint
	// FinalError is the last evaluation (NaN if never evaluated).
	FinalError float64
	// Cost is the total evaluation cost in seconds.
	Cost float64
	// Acquired is the number of acquisitions performed.
	Acquired int
	// Observations is the total number of profiling runs.
	Observations int
	// Unique is the number of distinct configurations profiled.
	Unique int
	// Revisits is the number of acquisitions that re-observed an
	// already-seen configuration (variable plan only).
	Revisits int
	// PrequentialError is the final sliding-window one-step-ahead RMSE
	// (NaN until the window fills).
	PrequentialError float64
	// StoppedBy reports which completion criterion ended the run
	// (StopNone while the run is still in progress).
	StoppedBy StopReason
}

// StopReason identifies the completion criterion that ended a run.
type StopReason int

const (
	// StopNone means no completion criterion has fired yet.
	StopNone StopReason = iota
	// StopBudget means the NMax acquisition budget was exhausted.
	StopBudget
	// StopByCost means the StopCost wall-clock criterion fired.
	StopByCost
	// StopByError means the StopError prequential criterion fired.
	StopByError
	// StopExhausted means the candidate pool ran dry.
	StopExhausted
	// StopCancelled means Run's context was cancelled.
	StopCancelled
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "running"
	case StopBudget:
		return "budget"
	case StopByCost:
		return "cost"
	case StopByError:
		return "error"
	case StopExhausted:
		return "exhausted"
	case StopCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// round is one begun-but-unobserved round, parked by BeginRound until
// FinishRound observes it.
type round struct {
	chosen  []int
	n       int  // observations per acquisition
	seeding bool // the NInit seed round (builds the model on finish)
}

// Learner runs active learning over a pool. Drive it either with Run
// (which owns the whole loop) or one acquisition round at a time with
// Step.
//
// A Learner is safe against concurrent misuse: Step, Run, SelectBatch,
// BeginRound, FinishRound and Result serialise on an internal mutex,
// and every entry point after Close reports ErrClosed instead of
// racing the torn-down engine. Close itself never waits for an
// in-progress Step: a batch already measuring completes, and the next
// entry point reports ErrClosed.
type Learner struct {
	opts    Options
	plan    SamplingPlan
	acq     Acquisition
	builder model.Builder
	pool    Pool
	ev      *evaluator.Engine
	eval    ModelEvaluator
	r       *rng.Stream

	// mu serialises the public entry points; closed is checked outside
	// it so Close can interrupt (not wait out) a blocked Step.
	mu     sync.Mutex
	closed atomic.Bool

	model model.Model
	// binder is non-nil when the backend interned the pool at seeding
	// time (model.PoolBinder): the scoring loop then hands stable pool
	// indices to indexed-capable acquisitions instead of gathering
	// feature rows.
	binder model.PoolBinder
	// foldXs / foldYs / foldPreds are foldRound's reusable per-round
	// scratch.
	foldXs    [][]float64
	foldYs    []float64
	foldPreds []float64
	// candBuf / drawnMark / drawnGen are candidateSet's reusable
	// scratch: the candidate index slice and a generation-stamped
	// per-pool-item "drawn this call" marker replacing a per-round map.
	candBuf   []int
	drawnMark []uint32
	drawnGen  uint32
	// scoreNS / updateNS are the cumulative Progress phase split in
	// nanoseconds: candidate scoring vs model folding. Wall clock only;
	// durations never feed the learner's arithmetic.
	scoreNS  int64
	updateNS int64
	// obsCount[i] is D in Algorithm 1: observations taken per pool item.
	obsCount map[int]int
	// order keeps seen pool items in first-seen order for determinism.
	order []int

	acquired     int
	observations int
	revisits     int
	// begun is the round selected by BeginRound and not yet observed
	// by FinishRound (nil otherwise). Step drives the same two phases
	// back to back, so the Step loop and a split-phase scheduler are
	// bit-identical by construction.
	begun *round
	// lastRoundCost is the §4.3 ledger delta of the last folded round
	// (seed or acquisition) — the per-step cost accounting a serving
	// scheduler charges against per-session budgets.
	lastRoundCost float64
	// lastSeq is the evaluator sequence number of the last folded
	// observation; cost checkpoints are read through it so they are
	// bit-identical to the serial accumulator.
	lastSeq   int
	curve     []CurvePoint
	preq      *prequential
	stoppedBy StopReason
}

// New constructs a learner over a pool and the source that measures
// it. The learner owns its evaluator engine (see internal/evaluator),
// sized by Options.EvalWorkers and Options.EvalLatency. The model
// evaluator may be nil.
func New(opts Options, pool Pool, src evaluator.Source, eval ModelEvaluator) (*Learner, error) {
	if pool == nil || src == nil {
		return nil, fmt.Errorf("core: nil pool or source")
	}
	plan := opts.Plan
	if plan == nil {
		plan = VariablePlan
	}
	acq := opts.Scorer
	if acq == nil {
		acq = ALC
	}
	builder := opts.Model
	if builder == nil {
		builder = model.DynatreeBuilder{Config: opts.Tree}
	} else if db, ok := builder.(model.DynatreeBuilder); ok && db.Config == (dynatree.Config{}) {
		// A config-less dynatree builder (e.g. straight from the
		// registry) adopts Options.Tree, so name-based selection and
		// the nil default behave identically.
		builder = model.DynatreeBuilder{Config: opts.Tree}
	}
	if err := opts.validate(pool.Len(), plan); err != nil {
		return nil, err
	}
	window := opts.StopWindow
	if window <= 0 {
		window = 50
	}
	return &Learner{
		opts:     opts,
		plan:     plan,
		acq:      acq,
		builder:  builder,
		pool:     pool,
		ev:       evaluator.New(src, evaluator.Options{Workers: opts.EvalWorkers, Latency: opts.EvalLatency}),
		eval:     eval,
		r:        rng.NewStream(opts.Seed, 0xac71ea12),
		obsCount: make(map[int]int),
		lastSeq:  -1,
		preq:     newPrequential(window),
	}, nil
}

// Done reports whether a completion criterion has fired.
func (l *Learner) Done() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done()
}

func (l *Learner) done() bool { return l.stoppedBy != StopNone }

// Acquired returns the number of acquisitions performed so far.
func (l *Learner) Acquired() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acquired
}

// Model returns the backend model (nil before the first Step).
func (l *Learner) Model() model.Model {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.model
}

// costNow returns the evaluation cost through the last folded
// observation — the serial accumulator's value at this point of the
// run. Before anything has folded it is the engine's running total
// (non-zero only after a failed seed round).
func (l *Learner) costNow() float64 {
	if l.lastSeq < 0 {
		return l.ev.Cost()
	}
	return l.ev.CostThrough(l.lastSeq)
}

// Close releases the learner's evaluator engine. A closed learner
// cannot continue a run — every later entry point (including a second
// Close) reports ErrClosed. Close deliberately does not wait for an
// in-progress Step.
func (l *Learner) Close() error {
	if l.closed.Swap(true) {
		return ErrClosed
	}
	return l.ev.Close()
}

// closedErr maps an error surfaced mid-step after a concurrent Close
// onto the learner's own sentinel, so callers racing Step against
// Close observe one error identity regardless of where the teardown
// landed.
func (l *Learner) closedErr(err error) error {
	if err != nil && l.closed.Load() && errors.Is(err, evaluator.ErrClosed) {
		return fmt.Errorf("%w (%v)", ErrClosed, err)
	}
	return err
}

// Step advances the learner by one acquisition round: the first call
// seeds the model with NInit random configurations; each later call
// selects one batch with the acquisition heuristic and dispatches it
// to the evaluator per the sampling plan. It returns false once a
// completion criterion has fired (inspect Result().StoppedBy for
// which), after which further calls are no-ops. After Close, Step
// reports ErrClosed.
func (l *Learner) Step() (more bool, err error) {
	if l.closed.Load() {
		return false, ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	more, err = l.step()
	return more, l.closedErr(err)
}

// step is Step under the mutex: one round is a BeginRound (selection)
// immediately followed by a FinishRound (observation), so the Step
// loop and a split-phase external scheduler are bit-identical by
// construction.
func (l *Learner) step() (bool, error) {
	if l.done() {
		return false, nil
	}
	if l.begun == nil {
		if err := l.beginRound(); err != nil {
			return false, err
		}
		if l.begun == nil {
			// Completion fired at selection time (pool exhausted).
			return !l.done(), nil
		}
	}
	return l.finishRound()
}

// beginRound selects the next round — the NInit seed draw before the
// model exists, one acquisition batch after — and parks it in l.begun
// without dispatching any measurement. On pool exhaustion it fires
// StopExhausted and leaves no round pending.
func (l *Learner) beginRound() error {
	if l.model == nil {
		idxs := l.r.Sample(l.pool.Len(), l.opts.NInit)
		l.begun = &round{chosen: idxs, n: l.plan.SeedObservations(l.opts), seeding: true}
		return nil
	}
	batch := l.opts.Batch
	if rem := l.opts.NMax - l.acquired; batch > rem {
		batch = rem
	}
	t0 := time.Now() //alic:allow detfloat wall-clock phase accounting only; durations never feed learner arithmetic
	chosen, err := l.selectBatch(batch)
	l.scoreNS += time.Since(t0).Nanoseconds() //alic:allow detfloat wall-clock phase accounting only
	if err != nil {
		return err
	}
	if len(chosen) == 0 {
		l.stoppedBy = StopExhausted
		return nil
	}
	l.begun = &round{chosen: chosen, n: l.plan.AcquireObservations(l.opts)}
	return nil
}

// finishRound observes the pending round through the evaluator, folds
// the results, and fires the completion criteria. A failed round is
// discarded (nothing was folded), so a retried step re-selects —
// exactly the historical retry behaviour.
func (l *Learner) finishRound() (bool, error) {
	rd := l.begun
	costBefore := l.costNow()
	err := l.observeRound(rd)
	l.begun = nil
	if err != nil {
		return false, err
	}
	l.lastRoundCost = l.costNow() - costBefore
	l.checkStop()
	return !l.done(), nil
}

// PendingObservation describes the measurement demand one pool item of
// a pending round places on the evaluator, in per-item observation
// ordinals — the (item, ordinal) coordinates remote observations are
// posted under.
type PendingObservation struct {
	// Item is the pool index to observe.
	Item int
	// First is the first observation ordinal this round consumes.
	First int
	// Count is how many consecutive ordinals the round takes.
	Count int
}

// BeginRound selects the next acquisition round and parks it as the
// learner's pending round without dispatching any measurement — the
// first scheduler hook of the serving layer. It returns a copy of the
// chosen pool indices; nil with a nil error means a completion
// criterion has fired (inspect Result().StoppedBy, including pool
// exhaustion discovered at selection time). Together with
// PendingObservations (the non-blocking ready check) and FinishRound
// it lets an external scheduler gate the possibly-remote, slow
// measurement phase without blocking a scheduler thread inside Step.
func (l *Learner) BeginRound() ([]int, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done() {
		return nil, nil
	}
	if l.begun != nil {
		return nil, fmt.Errorf("core: BeginRound with a round already pending (call FinishRound first)")
	}
	if err := l.beginRound(); err != nil {
		return nil, l.closedErr(err)
	}
	if l.begun == nil {
		return nil, nil
	}
	return append([]int(nil), l.begun.chosen...), nil
}

// RoundPending reports whether a BeginRound round awaits FinishRound.
func (l *Learner) RoundPending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.begun != nil
}

// PendingObservations returns the measurement demand of the round
// parked by BeginRound, one entry per chosen item (a round's items are
// distinct). A scheduler feeding a remote source is ready to
// FinishRound exactly when, for every entry, observation ordinals
// [First, First+Count) of Item have been posted — the non-blocking
// ready check. Nil when no round is pending.
func (l *Learner) PendingObservations() []PendingObservation {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.begun == nil {
		return nil
	}
	out := make([]PendingObservation, len(l.begun.chosen))
	for j, idx := range l.begun.chosen {
		out[j] = PendingObservation{Item: idx, First: l.ev.Scheduled(idx), Count: l.begun.n}
	}
	return out
}

// FinishRound observes the round parked by BeginRound through the
// evaluator, folds the results into the model, and fires the
// completion criteria — the second phase of Step. With a local source
// it is Step's exact observation phase; with a remote source it blocks
// until the round's observations are posted, so schedulers call it
// only once PendingObservations is satisfied. more == false means a
// completion criterion has fired.
func (l *Learner) FinishRound() (more bool, err error) {
	if l.closed.Load() {
		return false, ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.begun == nil {
		return false, fmt.Errorf("core: FinishRound without a pending round (call BeginRound first)")
	}
	more, err = l.finishRound()
	return more, l.closedErr(err)
}

// Cost returns the §4.3 evaluation cost through the last folded
// observation.
func (l *Learner) Cost() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.costNow()
}

// LastRoundCost returns the ledger delta of the most recently folded
// round (seed or acquisition) — the per-step charge a serving
// scheduler accounts against per-session budgets.
func (l *Learner) LastRoundCost() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastRoundCost
}

// observeRound dispatches one round's whole batch to the evaluator and
// folds the results in scheduling order — bit-identical to the
// historical serial loop. The seed round first builds the model from
// its observations.
func (l *Learner) observeRound(rd *round) error {
	obs, err := l.ev.ObserveBatch(evaluator.Repeat(rd.chosen, rd.n))
	if err != nil {
		return err
	}
	if rd.seeding {
		if err := l.seedModel(rd.chosen, obs); err != nil {
			return err
		}
	}
	t0 := time.Now() //alic:allow detfloat wall-clock phase accounting only; durations never feed learner arithmetic
	l.foldRound(rd, obs)
	l.updateNS += time.Since(t0).Nanoseconds() //alic:allow detfloat wall-clock phase accounting only
	return nil
}

// foldRound absorbs one observed round — rd.chosen[i]'s observations
// are obs[i*rd.n:(i+1)*rd.n], in scheduling order — through
// model.UpdateRound. Fixed plans learn the averaged runtime; the
// variable plan feeds the single (noisy) observation. Acquisition
// rounds also track the prequential residual of each pre-update
// prediction (test on the new target before training on it).
//
// With curve recording on, the round folds in chunks that end at curve
// points, so each point evaluates the model after exactly the
// acquisitions the per-acquisition loop had folded, with the cost read
// through the chunk's last observation. The seed round's cost
// checkpoint stays at the end of its batch (seedModel sets it): the
// serial loop gathered every seed observation before fitting.
func (l *Learner) foldRound(rd *round, obs []evaluator.Observation) {
	n := rd.n
	xs, ys := l.foldXs[:0], l.foldYs[:0]
	for i, idx := range rd.chosen {
		var w stats.Welford
		for _, o := range obs[i*n : (i+1)*n] {
			w.Add(o.Value)
		}
		xs = append(xs, l.pool.Features(idx))
		ys = append(ys, w.Mean())
	}
	l.foldXs, l.foldYs = xs, ys
	var preds []float64
	if !rd.seeding {
		if cap(l.foldPreds) < len(xs) {
			l.foldPreds = make([]float64, len(xs))
		}
		preds = l.foldPreds[:len(xs)]
	}
	for lo := 0; lo < len(xs); {
		hi := len(xs)
		if gap := l.curveGap(); gap < hi-lo {
			hi = lo + gap
		}
		var chunkPreds []float64
		if preds != nil {
			chunkPreds = preds[lo:hi]
		}
		model.UpdateRound(l.model, xs[lo:hi], ys[lo:hi], chunkPreds)
		if !rd.seeding {
			l.lastSeq = obs[hi*n-1].Seq
		}
		for i, idx := range rd.chosen[lo:hi] {
			if prev, seen := l.obsCount[idx]; seen {
				l.revisits++
				l.obsCount[idx] = prev + n
			} else {
				l.obsCount[idx] = n
				l.order = append(l.order, idx)
			}
			if chunkPreds != nil {
				resid := chunkPreds[i] - ys[lo+i]
				l.preq.add(resid * resid)
			}
			l.acquired++
		}
		l.observations += (hi - lo) * n
		l.maybeEval()
		lo = hi
	}
}

// curveGap returns how many more acquisitions fold before the next
// curve point — the next multiple of EvalEvery, or NMax — and
// math.MaxInt when curve recording is off.
func (l *Learner) curveGap() int {
	if l.eval == nil || l.opts.EvalEvery <= 0 {
		return math.MaxInt
	}
	gap := l.opts.EvalEvery - l.acquired%l.opts.EvalEvery
	if rem := l.opts.NMax - l.acquired; rem > 0 && rem < gap {
		gap = rem
	}
	return gap
}

// checkStop fires the completion criteria in priority order: budget,
// wall-clock cost, prequential error.
func (l *Learner) checkStop() {
	switch {
	case l.acquired >= l.opts.NMax:
		l.stoppedBy = StopBudget
	case l.opts.StopCost > 0 && l.costNow() >= l.opts.StopCost:
		l.stoppedBy = StopByCost
	case l.opts.StopError > 0:
		if pe := l.preq.rmse(); !math.IsNaN(pe) && pe <= l.opts.StopError {
			l.stoppedBy = StopByError
		}
	}
}

// Run drives Step until a completion criterion fires or ctx is
// cancelled (a nil ctx means context.Background). Cancellation is
// graceful and non-destructive: the returned snapshot reports
// StoppedBy == StopCancelled with a nil error, while the learner
// itself stays resumable — call Run or Step again to continue the same
// run. Options.Progress, when set, is invoked after every step.
func (l *Learner) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancelled := false
	for {
		if l.Done() {
			break
		}
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		more, err := l.Step()
		if err != nil {
			return nil, err
		}
		if l.opts.Progress != nil {
			l.opts.Progress(l.progress())
		}
		if !more {
			break
		}
	}
	res := l.Result()
	if cancelled {
		res.StoppedBy = StopCancelled
	}
	return res, nil
}

// progress snapshots the Run progress report under the mutex, so the
// callback itself runs unlocked (and may call back into the learner).
func (l *Learner) progress() Progress {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Progress{
		Acquired:      l.acquired,
		Observations:  l.observations,
		Cost:          l.costNow(),
		ScoreSeconds:  float64(l.scoreNS) / 1e9,
		UpdateSeconds: float64(l.updateNS) / 1e9,
		Done:          l.done(),
	}
}

// Result snapshots the run. After Run (or once Step has returned
// false) it is the final report; mid-run it reflects progress so far
// with StoppedBy == StopNone. When an evaluator is present the final
// snapshot appends the closing curve point, so Result is cheap only
// for evaluator-free learners.
func (l *Learner) Result() *Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	res := &Result{
		Model: l.model,
		// Snapshots own their curve: the learner's slice keeps growing.
		Curve:            append([]CurvePoint(nil), l.curve...),
		FinalError:       math.NaN(),
		Cost:             l.costNow(),
		Acquired:         l.acquired,
		Observations:     l.observations,
		Unique:           len(l.obsCount),
		Revisits:         l.revisits,
		PrequentialError: l.preq.rmse(),
		StoppedBy:        l.stoppedBy,
	}
	// Close the curve only when the recorded one is stale; when the last
	// point already covers the current acquisition count, reuse it
	// instead of paying another full evaluation (Result may be called
	// per Step).
	if l.eval != nil && l.model != nil &&
		(len(res.Curve) == 0 || res.Curve[len(res.Curve)-1].Acquired != l.acquired) {
		res.FinalError = l.eval(l.model)
		res.Curve = append(res.Curve, CurvePoint{
			Acquired: l.acquired, Cost: res.Cost, Error: res.FinalError,
		})
	}
	if len(res.Curve) > 0 {
		res.FinalError = res.Curve[len(res.Curve)-1].Error
	}
	return res
}

// seedModel builds the model from the NInit seed round's observations
// — the "initial training points" of Figure 3 (the draw itself happens
// in beginRound, so a split-phase scheduler can publish it first). The
// backend's prior is calibrated on every seed observation before the
// model absorbs anything, and nothing else is committed to the learner
// until the build succeeds, so a failed Step can be retried without
// double-counting (the evaluator's already-charged cost is the only
// trace of the failed attempt).
func (l *Learner) seedModel(idxs []int, obs []evaluator.Observation) error {
	l.lastSeq = obs[len(obs)-1].Seq
	all := make([]float64, len(obs))
	for i, o := range obs {
		all[i] = o.Value
	}
	m, err := l.builder.New(model.Params{
		Dim:         len(l.pool.Features(idxs[0])),
		SeedTargets: all,
		RNG:         l.r.Split(l.builder.Name()),
	})
	if err != nil {
		return err
	}
	if model.IsNil(m) {
		return fmt.Errorf("core: model builder %q returned a nil model", l.builder.Name())
	}
	l.attachModel(m)
	return nil
}

// attachModel installs m as the learner's model. Backends that
// implement PoolBinder intern the pool once: they then score
// candidates by stable index (bit-identical to the row path, but able
// to reuse per-candidate work across rounds).
func (l *Learner) attachModel(m model.Model) {
	l.model = m
	if pb, ok := m.(model.PoolBinder); ok {
		rows := make([][]float64, l.pool.Len())
		for i := range rows {
			rows[i] = l.pool.Features(i)
		}
		pb.BindPool(rows)
		l.binder = pb
	}
}

// candidateSet assembles the candidate indices for one iteration —
// NCand fresh unseen configurations plus every seen configuration the
// plan still considers revisitable. Feature rows are not gathered
// here: indexed-capable backends score straight from the pool indices
// (see SelectBatch), and only the row-based fallback pays the gather.
func (l *Learner) candidateSet() (cands []int) {
	cands = l.candBuf[:0]
	// Fresh candidates: rejection-sample distinct unseen pool items, so
	// one batch can never acquire the same configuration twice. The
	// "drawn this call" set is a generation-stamped slice instead of a
	// per-round map — the rejection logic (and therefore the rng draw
	// sequence) is unchanged, only the allocation churn goes.
	if len(l.drawnMark) < l.pool.Len() {
		l.drawnMark = make([]uint32, l.pool.Len())
		l.drawnGen = 0
	}
	l.drawnGen++
	if l.drawnGen == 0 { // uint32 wraparound: stale stamps could collide
		for i := range l.drawnMark {
			l.drawnMark[i] = 0
		}
		l.drawnGen = 1
	}
	gen := l.drawnGen
	rejected := 0
	for len(cands) < l.opts.NCand && rejected < 20*l.opts.NCand {
		i := l.r.Intn(l.pool.Len())
		if _, seen := l.obsCount[i]; seen || l.drawnMark[i] == gen {
			rejected++
			continue
		}
		l.drawnMark[i] = gen
		cands = append(cands, i)
	}
	for _, i := range l.order {
		if l.plan.Revisitable(l.opts, l.obsCount[i]) {
			cands = append(cands, i)
		}
	}
	l.candBuf = cands
	return cands
}

// gatherFeatures materialises the feature rows of the candidate set
// for acquisitions on the row-based path.
func (l *Learner) gatherFeatures(cands []int) [][]float64 {
	feats := make([][]float64, len(cands))
	for i, c := range cands {
		feats[i] = l.pool.Features(c)
	}
	return feats
}

// SelectBatch scores the candidate set with the acquisition heuristic
// and returns the batch of pool indices most worth observing next,
// without observing them. Step normally drives it; it is exported for
// benchmarks and for external acquisition schedulers that interleave
// their own observation logic. It consumes learner randomness
// (candidate sampling), so interleaved calls change the sequence a
// subsequent Run would take. After Close it reports ErrClosed.
func (l *Learner) SelectBatch(batch int) ([]int, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.selectBatch(batch)
}

// selectBatch is SelectBatch under the mutex.
func (l *Learner) selectBatch(batch int) ([]int, error) {
	if l.model == nil {
		return nil, fmt.Errorf("core: SelectBatch before seeding (call Step or Run)")
	}
	if batch < 1 {
		return nil, fmt.Errorf("core: SelectBatch batch %d < 1", batch)
	}
	cands := l.candidateSet()
	if len(cands) == 0 {
		return nil, nil
	}
	if batch > len(cands) {
		batch = len(cands)
	}
	// The indexed path: pool bound by the backend and the
	// acquisition can consume pool indices. Selections are
	// bit-identical to the row-based path (the PoolBinder contract);
	// only the per-round scoring cost changes.
	var picks []int
	var err error
	if ia, ok := l.acq.(IndexedAcquisition); ok && l.binder != nil {
		picks, err = ia.SelectIndexed(l.model, l.binder, cands, batch, l.r)
	} else {
		picks, err = l.acq.Select(l.model, l.gatherFeatures(cands), batch, l.r)
	}
	if err != nil {
		return nil, fmt.Errorf("core: acquisition %q: %w", l.acq.Name(), err)
	}
	if len(picks) == 0 {
		// An empty SelectBatch result means "pool exhausted" to Step,
		// so an acquisition declining a non-empty candidate set is a
		// contract violation, not a stop condition.
		return nil, fmt.Errorf("core: acquisition %q returned no picks from %d candidates",
			l.acq.Name(), len(cands))
	}
	if len(picks) > batch {
		return nil, fmt.Errorf("core: acquisition %q returned %d picks for a batch of %d",
			l.acq.Name(), len(picks), batch)
	}
	out := make([]int, len(picks))
	seen := make(map[int]bool, len(picks))
	for i, p := range picks {
		if p < 0 || p >= len(cands) {
			return nil, fmt.Errorf("core: acquisition %q selected position %d outside candidate set of %d",
				l.acq.Name(), p, len(cands))
		}
		if seen[p] {
			return nil, fmt.Errorf("core: acquisition %q selected position %d twice", l.acq.Name(), p)
		}
		seen[p] = true
		out[i] = cands[p]
	}
	return out, nil
}

func (l *Learner) maybeEval() {
	if l.eval == nil || l.opts.EvalEvery <= 0 {
		return
	}
	if l.acquired%l.opts.EvalEvery != 0 && l.acquired != l.opts.NMax {
		return
	}
	l.curve = append(l.curve, CurvePoint{
		Acquired: l.acquired,
		Cost:     l.costNow(),
		Error:    l.eval(l.model),
	})
}

// ObservationCounts returns a copy of D in Algorithm 1: how many times
// each seen pool item has been observed.
func (l *Learner) ObservationCounts() map[int]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]int, len(l.obsCount))
	for k, v := range l.obsCount {
		out[k] = v
	}
	return out
}

// SlicePool adapts a feature matrix to the Pool interface.
type SlicePool [][]float64

// Len returns the number of rows.
func (p SlicePool) Len() int { return len(p) }

// Features returns row i.
func (p SlicePool) Features(i int) []float64 { return p[i] }
