// Package tuner closes the loop of §4.1 of the paper: once a
// program-specific runtime model has been learned, it can be queried
// for thousands of configurations per second, so the best optimization
// settings are found by predicting over a large random sample of the
// space and profiling only the most promising configurations — instead
// of compiling and running every candidate.
//
// Verification — the only part that pays real profiling cost — runs
// through the evaluator engine (internal/evaluator): the top-ranked
// candidates measure in parallel across Options.Workers, and because
// every observation addresses its own deterministic noise draw, the
// measured runtimes, the winner, and the verification cost are
// bit-identical at every worker count.
package tuner

import (
	"fmt"
	"math"
	"sort"

	"alic/internal/evaluator"
	"alic/internal/measure"
	"alic/internal/model"
	"alic/internal/rng"
	"alic/internal/space"
	"alic/internal/stats"
)

// Options configures a model-driven search.
type Options struct {
	// Candidates is the number of random configurations to rank with
	// the model.
	Candidates int
	// Verify is how many of the top-ranked configurations to actually
	// profile (each once) before declaring a winner.
	Verify int
	// VerifyObs is the number of observations per verified config.
	VerifyObs int
	// Seed drives candidate sampling.
	Seed uint64
	// Workers bounds concurrent verification measurements
	// (0 = GOMAXPROCS, 1 = serial). The verified runtimes and the
	// winner are bit-identical for every value.
	Workers int
}

// DefaultOptions returns a sensible search setup.
func DefaultOptions() Options {
	return Options{Candidates: 5000, Verify: 10, VerifyObs: 3, Seed: 1}
}

// Candidate is one ranked configuration.
type Candidate struct {
	Config    space.Config
	Predicted float64
	// Measured is the mean of VerifyObs observations, or NaN if the
	// candidate was not in the verified top set.
	Measured float64
}

// Result is the outcome of a model-driven search.
type Result struct {
	// Best is the verified winner (lowest measured runtime).
	Best Candidate
	// Baseline is the measured runtime of the untransformed (-O2)
	// configuration, for speedup reporting.
	Baseline float64
	// Speedup is Baseline / Best.Measured.
	Speedup float64
	// Top holds the verified candidates, best first.
	Top []Candidate
	// VerifyCost is the profiling cost spent on verification
	// (including the baseline measurement), in simulated seconds.
	VerifyCost float64
}

// Normalizer maps a raw configuration to model features.
type Normalizer interface {
	Transform(x []float64) []float64
}

// Search ranks random configurations with any trained predictor (a
// model.Model from a learning run, or anything else implementing
// model.Predictor) and verifies the top few on the profiling session
// through a parallel evaluator engine.
func Search(m model.Predictor, sess *measure.Session, norm Normalizer, opts Options) (*Result, error) {
	if model.IsNil(m) || sess == nil || norm == nil {
		return nil, fmt.Errorf("tuner: nil model, session or normalizer")
	}
	if opts.Candidates < 1 || opts.Verify < 1 || opts.VerifyObs < 1 {
		return nil, fmt.Errorf("tuner: Candidates, Verify and VerifyObs must be >= 1")
	}
	if opts.Verify > opts.Candidates {
		opts.Verify = opts.Candidates
	}
	sp := sess.Space()
	r := rng.NewStream(opts.Seed, 0x7c7e12)

	// Rank distinct random candidates by predicted runtime.
	sampled, err := space.SampleDistinct(sp, opts.Candidates, r)
	if err != nil {
		return nil, fmt.Errorf("tuner: Candidates: %w", err)
	}
	cands := make([]Candidate, len(sampled))
	for i, cfg := range sampled {
		feats := norm.Transform(sp.Features(cfg))
		cands[i] = Candidate{
			Config:    cfg,
			Predicted: m.PredictMeanFast(feats),
			Measured:  math.NaN(),
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Predicted < cands[j].Predicted })

	// Verify the top slice plus the -O2 baseline through one engine:
	// every item takes VerifyObs observations, measured with up to
	// Workers goroutines; the engine's ledger is the verification
	// cost. The source reserves those observations on the session in
	// one step, so a later or concurrent Search on the same session
	// continues each config's noise stream and never re-charges its
	// compile. The candidate set is already key-deduplicated; the
	// baseline joins it as an extra item unless the model happened to
	// rank it into the top set, in which case its verified mean
	// doubles as the baseline measurement.
	top := cands[:opts.Verify]
	cfgs := make([]space.Config, 0, len(top)+1)
	for i := range top {
		cfgs = append(cfgs, top[i].Config)
	}
	base := sp.BaselineConfig()
	baseItem := -1
	baseKey := sp.Key(base)
	for i := range top {
		if sp.Key(top[i].Config) == baseKey {
			baseItem = i
		}
	}
	if baseItem < 0 {
		baseItem = len(cfgs)
		cfgs = append(cfgs, base)
	}
	src, err := evaluator.NewSessionSource(sess, cfgs, opts.VerifyObs)
	if err != nil {
		return nil, err
	}
	eng := evaluator.New(src, evaluator.Options{Workers: opts.Workers})
	items := make([]int, len(cfgs))
	for item := range cfgs {
		items[item] = item
	}
	obs, err := eng.ObserveBatch(evaluator.Repeat(items, opts.VerifyObs))
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(cfgs))
	for item := range cfgs {
		var w stats.Welford
		for _, o := range obs[item*opts.VerifyObs : (item+1)*opts.VerifyObs] {
			w.Add(o.Value)
		}
		means[item] = w.Mean()
	}
	for i := range top {
		top[i].Measured = means[i]
	}
	sort.Slice(top, func(i, j int) bool { return top[i].Measured < top[j].Measured })

	res := &Result{
		Best:       top[0],
		Baseline:   means[baseItem],
		Top:        top,
		VerifyCost: eng.Cost(),
	}
	if res.Best.Measured > 0 {
		res.Speedup = res.Baseline / res.Best.Measured
	}
	return res, nil
}
