// Package dataset materialises the experimental datasets of §4.5 of
// the paper: for each search space, a corpus of distinct randomly
// selected configurations, split into a training pool and a held-out
// test set (7,500 / 2,500), with features standardised by scaling and
// centring. Only the test set is profiled a fixed number of times (35
// in the paper) when the corpus is generated: its means are the ground
// truth of equation (1). Pool observations, true means and compile
// costs are computed on demand from (configuration, ordinal), so a
// learner pays only for the configurations it acquires.
//
// Generation is space-generic (any registered space.Space works), but
// requires a simulated measurer: live spaces, whose observations
// execute real commands, have no pre-generable ground truth and are
// rejected with ErrLiveSpace.
package dataset

import (
	"errors"
	"fmt"

	"alic/internal/model"
	"alic/internal/rng"
	"alic/internal/space"
	"alic/internal/stats"
)

// ErrLiveSpace reports an attempt to pre-generate a corpus for a
// space that measures by executing real commands; assert with
// errors.Is.
var ErrLiveSpace = errors.New("cannot pre-generate a dataset for a live space")

// Options configures dataset generation.
type Options struct {
	// NConfigs is the number of distinct configurations (paper: 10,000).
	NConfigs int
	// NObs is the number of observations per configuration (paper: 35).
	NObs int
	// TrainFrac is the fraction marked available for training
	// (paper: 0.75).
	TrainFrac float64
	// TrainCount, when positive, pins the exact training-pool size
	// instead of deriving it from TrainFrac — float truncation of
	// NConfigs*TrainFrac can come up one configuration short, which
	// matters to callers that promise a precise pool size.
	TrainCount int
	// Seed drives config selection, noise, and the split.
	Seed uint64
}

// DefaultOptions returns the paper's §4.5 settings.
func DefaultOptions() Options {
	return Options{NConfigs: 10000, NObs: 35, TrainFrac: 0.75, Seed: 1}
}

// PointStats summarises the NObs observations of one configuration.
type PointStats struct {
	Mean     float64
	Variance float64
}

// Dataset is a generated corpus for one search space. It is immutable
// once Generate returns, so one corpus may serve any number of
// concurrent learners: every per-configuration quantity beyond the
// features and the test set's statistics is computed on demand through
// the corpus measurer (TrueMean, CompileCost, Stats, Observe), which
// is pure in its arguments.
type Dataset struct {
	Space space.Space
	Opts  Options

	// Configs are the distinct sampled configurations.
	Configs []space.Config
	// Raw are the [0,1]-scaled feature vectors.
	Raw [][]float64
	// Features are the standardised feature vectors (zero mean, unit
	// variance over the corpus).
	Features [][]float64
	// TrainIdx and TestIdx partition the corpus.
	TrainIdx, TestIdx []int

	// Normalizer holds the feature scaling fitted on the corpus.
	Normalizer *stats.Normalizer

	// test summarises the NObs observations of each test
	// configuration, in TestIdx order — the held-out targets.
	test []PointStats
	meas space.Measurer
}

// Generate builds the dataset for a search space. Only the held-out
// test set is profiled NObs times; the training pool is observed on
// demand, as the learner acquires it (§4.5: profiling every
// configuration 35 times is the cost the learner exists to avoid).
func Generate(sp space.Space, opts Options) (*Dataset, error) {
	if sp == nil {
		return nil, fmt.Errorf("dataset: nil space")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if space.IsLive(sp) {
		return nil, fmt.Errorf("dataset: space %s: %w", sp.Name(), ErrLiveSpace)
	}
	if opts.NConfigs < 2 {
		return nil, fmt.Errorf("dataset: NConfigs %d < 2", opts.NConfigs)
	}
	if opts.NObs < 1 {
		return nil, fmt.Errorf("dataset: NObs %d < 1", opts.NObs)
	}
	if opts.TrainCount > 0 {
		if opts.TrainCount >= opts.NConfigs {
			return nil, fmt.Errorf("dataset: TrainCount %d leaves no test set of NConfigs %d",
				opts.TrainCount, opts.NConfigs)
		}
	} else if opts.TrainFrac <= 0 || opts.TrainFrac >= 1 {
		return nil, fmt.Errorf("dataset: TrainFrac %v outside (0, 1)", opts.TrainFrac)
	}
	cfgs, r, err := SamplePool(sp, opts.NConfigs, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("dataset: NConfigs: %w", err)
	}
	meas, err := sp.Measurer(opts.Seed)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Space: sp, Opts: opts, Configs: cfgs, meas: meas}
	n := len(d.Configs)

	// Random train/test split, drawn from the sampling stream right
	// after the configurations.
	perm := r.Perm(n)
	nTrain := opts.TrainCount
	if nTrain <= 0 {
		nTrain = int(float64(n) * opts.TrainFrac)
	}
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain >= n {
		nTrain = n - 1
	}
	d.TrainIdx = append([]int(nil), perm[:nTrain]...)
	d.TestIdx = append([]int(nil), perm[nTrain:]...)

	// The normaliser is fitted on the whole corpus.
	d.Raw = make([][]float64, n)
	for i, cfg := range d.Configs {
		d.Raw[i] = sp.Features(cfg)
	}
	d.Normalizer = stats.FitNormalizer(d.Raw)
	d.Features = d.Normalizer.TransformAll(d.Raw)

	d.test = make([]PointStats, len(d.TestIdx))
	for t, idx := range d.TestIdx {
		if d.test[t], err = d.Stats(idx); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// SamplePool draws n distinct configurations of sp from the dataset
// stream of the seed — the configurations Generate samples first — and
// returns the stream, which Generate goes on to draw its train/test
// split from. It fails with space.ErrTooManyConfigs when n exceeds half
// the space.
func SamplePool(sp space.Space, n int, seed uint64) ([]space.Config, *rng.Stream, error) {
	r := rng.NewStream(seed, 0xda7a5e7) // dataset stream
	cfgs, err := space.SampleDistinct(sp, n, r)
	return cfgs, r, err
}

// Observe returns observation obsIdx of configuration i, the same
// value on every call. For a test configuration and obsIdx < NObs it
// is one of the observations behind TestTargets. The training pool is
// first measured here, so a measurer that fails on a pool
// configuration reports it when a learner acquires it.
func (d *Dataset) Observe(i, obsIdx int) (float64, error) {
	y, err := d.meas.Observe(d.Configs[i], obsIdx)
	if err != nil {
		return 0, fmt.Errorf("dataset: observing config %d at ordinal %d: %w", i, obsIdx, err)
	}
	return y, nil
}

// TrueMean returns the noise-free runtime of configuration i.
func (d *Dataset) TrueMean(i int) (float64, error) {
	mu, err := d.meas.TrueMean(d.Configs[i])
	if err != nil {
		return 0, fmt.Errorf("dataset: true mean of config %d: %w", i, err)
	}
	return mu, nil
}

// CompileCost returns the simulated compile time of configuration i.
func (d *Dataset) CompileCost(i int) (float64, error) {
	ct, err := d.meas.CompileCost(d.Configs[i])
	if err != nil {
		return 0, fmt.Errorf("dataset: compile cost of config %d: %w", i, err)
	}
	return ct, nil
}

// Stats summarises the first NObs observations of configuration i; its
// Mean is the regression target the paper trains and tests on.
func (d *Dataset) Stats(i int) (PointStats, error) {
	var w stats.Welford
	for j := 0; j < d.Opts.NObs; j++ {
		y, err := d.Observe(i, j)
		if err != nil {
			return PointStats{}, err
		}
		w.Add(y)
	}
	return PointStats{Mean: w.Mean(), Variance: w.Variance()}, nil
}

// TrainFeatures returns the standardised features of the training
// pool, in TrainIdx order — the learner's candidate pool.
func (d *Dataset) TrainFeatures() [][]float64 {
	out := make([][]float64, len(d.TrainIdx))
	for i, idx := range d.TrainIdx {
		out[i] = d.Features[idx]
	}
	return out
}

// TestFeatures returns the standardised features of the test set.
func (d *Dataset) TestFeatures() [][]float64 {
	out := make([][]float64, len(d.TestIdx))
	for i, idx := range d.TestIdx {
		out[i] = d.Features[idx]
	}
	return out
}

// TestTargets returns the observed mean runtimes of the test set (the
// ground truth of equation (1) in the paper).
func (d *Dataset) TestTargets() []float64 {
	out := make([]float64, len(d.test))
	for i, st := range d.test {
		out[i] = st.Mean
	}
	return out
}

// TestRMSE returns the held-out model evaluator of equation (1): the
// RMSE of a model's predicted means over the test set.
func (d *Dataset) TestRMSE() func(model.Model) float64 {
	testX, testY := d.TestFeatures(), d.TestTargets()
	return func(m model.Model) float64 {
		return stats.RMSE(m.PredictMeanFastBatch(testX), testY)
	}
}

// VarianceSummary returns the spread of per-configuration observation
// variances across the corpus — the first column group of Table 2. It
// profiles every configuration NObs times.
func (d *Dataset) VarianceSummary() (stats.Summary, error) {
	vs := make([]float64, len(d.Configs))
	for i := range d.Configs {
		st, err := d.Stats(i)
		if err != nil {
			return stats.Summary{}, err
		}
		vs[i] = st.Variance
	}
	return stats.Summarize(vs), nil
}

// CIOverMeans returns, for every configuration in corpus order, the
// ratio of the confidence-interval half-width to the mean of its first
// nObs observations. Table 2 summarises these ratios, and §4.3 counts
// the share above a threshold.
func (d *Dataset) CIOverMeans(nObs int, confidence float64) ([]float64, error) {
	if nObs < 2 {
		return nil, fmt.Errorf("dataset: CI needs nObs >= 2, got %d", nObs)
	}
	ratios := make([]float64, len(d.Configs))
	for i := range d.Configs {
		var w stats.Welford
		for j := 0; j < nObs; j++ {
			y, err := d.Observe(i, j)
			if err != nil {
				return nil, err
			}
			w.Add(y)
		}
		ratios[i] = stats.CIOverMean(w.Mean(), w.Stddev(), w.N(), confidence)
	}
	return ratios, nil
}
