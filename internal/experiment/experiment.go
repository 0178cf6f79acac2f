// Package experiment regenerates every table and figure of the paper's
// evaluation (§5):
//
//   - Table 1 / Figure 5: lowest common RMSE, profiling cost of the
//     fixed-35 baseline vs the variable-observation approach, per-kernel
//     speed-ups and their geometric mean.
//   - Table 2: spread of runtime variance and 95% CI/mean ratios at 35
//     and 5 observations per configuration.
//   - Figure 1: MAE over the mm unroll plane for one sample vs the
//     per-point optimal sample count.
//   - Figure 2: runtime vs unroll factor for adi with single samples.
//   - Figure 6: RMSE vs cumulative profiling cost for the three
//     sampling plans.
//
// Every experiment runs on space.Space values, so any registered
// simulated space feeds it; a nil list means the paper's kernels,
// resolved by name from the space registry, so a caller links the SPAPT
// provider (internal/space/spaptspace) to use the defaults.
//
// Absolute costs differ from the paper (the substrate is a simulator,
// not the authors' testbed); the comparisons target the paper's
// qualitative shape: who wins, by roughly what factor, and where the
// crossovers fall. The README says how cmd/repro runs the experiments,
// and ROADMAP item 5's table records the Table 1 outcomes.
package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"alic/internal/core"
	"alic/internal/dataset"
	"alic/internal/dynatree"
	"alic/internal/evaluator"
	"alic/internal/space"
	"alic/internal/workpool"
)

// Settings scales the experiments. PaperSettings reproduces §4.4/§4.5
// exactly; FastSettings is a laptop-scale variant that preserves the
// qualitative results.
type Settings struct {
	// NInit, NObs, NCand, NMax parameterise Algorithm 1 (§4.4).
	NInit, NObs, NCand, NMax int
	// Particles and ScoreParticles size the dynamic-tree cloud.
	Particles, ScoreParticles int
	// Reps is the number of repetitions averaged (paper: 10).
	Reps int
	// PoolConfigs/TestConfigs split the dataset (paper: 7500/2500).
	PoolConfigs, TestConfigs int
	// EvalEvery is the learning-curve sampling interval (acquisitions).
	EvalEvery int
	// Seed is the base seed; repetition r uses Seed+r.
	Seed uint64
	// Workers bounds the number of concurrent learning runs
	// (0 = GOMAXPROCS). Runs are independent and deterministic per
	// (strategy, repetition), so parallelism does not change results.
	// Each run scores and measures on its own goroutine, so the runs
	// are the harness's only level of parallelism.
	Workers int
}

// PaperSettings returns the paper's experimental parameters (§4.4,
// §4.5). Running all of Table 1 at this scale takes hours of CPU.
func PaperSettings() Settings {
	return Settings{
		NInit: 5, NObs: 35, NCand: 500, NMax: 2500,
		Particles: 5000, ScoreParticles: 250,
		Reps:        10,
		PoolConfigs: 7500, TestConfigs: 2500,
		EvalEvery: 50,
		Seed:      1,
	}
}

// FastSettings returns a scaled-down configuration that finishes the
// full Table 1 in minutes while preserving the paper's qualitative
// results (orderings and approximate speed-up bands).
func FastSettings() Settings {
	return Settings{
		NInit: 5, NObs: 35, NCand: 120, NMax: 320,
		Particles: 300, ScoreParticles: 50,
		Reps:        3,
		PoolConfigs: 1600, TestConfigs: 500,
		EvalEvery: 16,
		Seed:      1,
	}
}

func (s Settings) validate() error {
	if s.NInit < 1 || s.NObs < 1 || s.NCand < 1 || s.NMax < s.NInit {
		return fmt.Errorf("experiment: bad learner budgets %+v", s)
	}
	if s.Particles < 1 || s.Reps < 1 || s.EvalEvery < 1 {
		return fmt.Errorf("experiment: bad model/rep settings %+v", s)
	}
	if s.PoolConfigs < s.NInit || s.TestConfigs < 1 {
		return fmt.Errorf("experiment: bad dataset sizes %+v", s)
	}
	return nil
}

// Strategy identifies the three sampling plans of §4.3.
type Strategy int

const (
	// AllObservations is the fixed 35-observation baseline of [4].
	AllObservations Strategy = iota
	// OneObservation is the fixed single-observation variant.
	OneObservation
	// VariableObservations is the paper's contribution.
	VariableObservations
)

func (s Strategy) String() string {
	switch s {
	case AllObservations:
		return "all observations"
	case OneObservation:
		return "one observation"
	case VariableObservations:
		return "variable observations"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists the three plans in the paper's plotting order.
func Strategies() []Strategy {
	return []Strategy{AllObservations, OneObservation, VariableObservations}
}

// learnerOptions maps a strategy to core options under the settings.
func (s Settings) learnerOptions(strat Strategy, rep int) core.Options {
	tree := dynatree.DefaultConfig()
	tree.Particles = s.Particles
	tree.ScoreParticles = s.ScoreParticles
	opts := core.Options{
		NInit:     s.NInit,
		NObs:      s.NObs,
		NCand:     s.NCand,
		NMax:      s.NMax,
		Batch:     1,
		Scorer:    core.ALC,
		Tree:      tree,
		EvalEvery: s.EvalEvery,
		Seed:      s.Seed + uint64(rep)*1000003,
		// Runs execute concurrently, so each measures serially.
		EvalWorkers: 1,
	}
	switch strat {
	case AllObservations:
		opts.Plan = core.FixedPlan
		opts.PlanObs = s.NObs
	case OneObservation:
		opts.Plan = core.FixedPlan
		opts.PlanObs = 1
	case VariableObservations:
		opts.Plan = core.VariablePlan
		opts.PlanObs = 1
	}
	return opts
}

// Curve is an averaged learning curve: Cost[i] is the mean cumulative
// profiling cost and Error[i] the mean test RMSE at the i-th
// evaluation point.
type Curve struct {
	Strategy Strategy
	Cost     []float64
	Error    []float64
}

// MinError returns the lowest error the curve reaches.
func (c Curve) MinError() float64 {
	min := math.Inf(1)
	for _, e := range c.Error {
		if e < min {
			min = e
		}
	}
	return min
}

// CostToReach returns the first cumulative cost at which the curve's
// error drops to level or below, or +Inf if it never does.
func (c Curve) CostToReach(level float64) float64 {
	for i, e := range c.Error {
		if e <= level+1e-15 {
			return c.Cost[i]
		}
	}
	return math.Inf(1)
}

// BenchmarkCurves holds the averaged curves of every strategy for one
// space.
type BenchmarkCurves struct {
	Space  space.Space
	Curves map[Strategy]Curve
}

// orDefault returns spaces, or the registered spaces named by defaults
// when spaces is nil.
func orDefault(spaces []space.Space, defaults []string) ([]space.Space, error) {
	if spaces != nil {
		return spaces, nil
	}
	out := make([]space.Space, len(defaults))
	for i, name := range defaults {
		sp, err := space.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// buildDataset generates the space's corpus under the settings.
func buildDataset(sp space.Space, s Settings) (*dataset.Dataset, error) {
	return dataset.Generate(sp, dataset.Options{
		NConfigs:   s.PoolConfigs + s.TestConfigs,
		NObs:       s.NObs,
		TrainCount: s.PoolConfigs,
		Seed:       s.Seed,
	})
}

// RunCurves runs every strategy Reps times on the space and returns
// rep-averaged learning curves.
func RunCurves(sp space.Space, s Settings, progress func(string)) (*BenchmarkCurves, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	ds, err := buildDataset(sp, s)
	if err != nil {
		return nil, err
	}
	pool := core.SlicePool(ds.TrainFeatures())
	eval := ds.TestRMSE()

	// Every (strategy, repetition) run is independent and seeded
	// deterministically, so they execute concurrently, on up to Workers
	// goroutines. Each run drives measurement through its own evaluator
	// engine
	// over the shared dataset source: values and §4.3 cost accounting
	// are pure in (config, ordinal), so runs share the corpus without
	// any cross-run state.
	type job struct {
		strat Strategy
		rep   int
	}
	var jobs []job
	for _, strat := range Strategies() {
		for rep := 0; rep < s.Reps; rep++ {
			jobs = append(jobs, job{strat, rep})
		}
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var mu sync.Mutex
	report := func(msg string) {
		if progress == nil {
			return
		}
		mu.Lock()
		progress(msg)
		mu.Unlock()
	}

	src, err := evaluator.NewDatasetSource(ds)
	if err != nil {
		return nil, err
	}
	curves := make([][]core.CurvePoint, len(jobs))
	errs := make([]error, len(jobs))
	// Jobs are pulled dynamically (runs differ widely in duration
	// across strategies, so static contiguous shards would leave
	// stragglers).
	workpool.DynamicFor(workers, len(jobs), func(ji int) {
		j := jobs[ji]
		report(fmt.Sprintf("%s: %v rep %d/%d", sp.Name(), j.strat, j.rep+1, s.Reps))
		learner, err := core.New(s.learnerOptions(j.strat, j.rep), pool, src, eval)
		if err != nil {
			errs[ji] = err
			return
		}
		res, err := learner.Run(context.Background())
		if err != nil {
			errs[ji] = err
			return
		}
		if len(res.Curve) == 0 {
			errs[ji] = fmt.Errorf("experiment: empty curve for %s/%v", sp.Name(), j.strat)
			return
		}
		curves[ji] = res.Curve
	})

	curvesByStrat := make(map[Strategy][][]core.CurvePoint)
	for ji := range jobs {
		if errs[ji] != nil {
			return nil, errs[ji]
		}
		curvesByStrat[jobs[ji].strat] = append(curvesByStrat[jobs[ji].strat], curves[ji])
	}

	out := &BenchmarkCurves{Space: sp, Curves: make(map[Strategy]Curve)}
	for _, strat := range Strategies() {
		runs := curvesByStrat[strat]
		points := len(runs[0])
		for _, c := range runs {
			if len(c) < points {
				points = len(c)
			}
		}
		c := Curve{
			Strategy: strat,
			Cost:     make([]float64, points),
			Error:    make([]float64, points),
		}
		for _, run := range runs {
			for i := 0; i < points; i++ {
				c.Cost[i] += run[i].Cost
				c.Error[i] += run[i].Error
			}
		}
		for i := 0; i < points; i++ {
			c.Cost[i] /= float64(len(runs))
			c.Error[i] /= float64(len(runs))
		}
		out.Curves[strat] = c
	}
	return out, nil
}
