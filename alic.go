// Package alic (Active Learning for Iterative Compilation) is the
// public API of a full reproduction of
//
//	W. F. Ogilvie, P. Petoumenos, Z. Wang, H. Leather:
//	"Minimizing the Cost of Iterative Compilation with Active
//	Learning", CGO 2017.
//
// The library builds program-specific models that predict the runtime
// of a kernel under a given set of compiler optimization parameters
// (loop unrolling, cache tiling, register tiling), driven by an active
// learner. Its contribution — combining active learning with
// sequential analysis so that each configuration is profiled only as
// many times as the noise actually warrants — cuts model-training cost
// by a geometric-mean ~4x (up to 26x) versus the classic fixed
// 35-observation sampling plan.
//
// # Quick start
//
//	sp, _ := alic.SpaceByName("mm")
//	res, _ := alic.Learn(context.Background(), sp, alic.DefaultLearnOptions())
//	fmt.Println("model RMSE:", res.FinalError)
//
// The facade has one function per user-facing behaviour: Learn (a
// model over a generated §4.5 corpus), LearnLive (a model learned by
// measuring directly), NewSpaceSession (a profiling session) and
// GenerateSpaceDataset (a corpus). All four take a Space; a SPAPT
// *Kernel, including one retargeted with WithMachine, becomes one
// through WrapKernel.
//
// # Pluggable backends
//
// The learner is assembled from three interfaces, each with a name
// registry and swappable without touching the loop:
//
//   - Model (the regression backend): "dynatree" — the paper's
//     particle-filtered dynamic trees — is the one built-in backend and
//     the default. Set LearnerOptions.Model to a builder from
//     ModelByName, or implement ModelBuilder and RegisterModel.
//   - Acquisition (the §3.3 heuristic): ALC, ALM, RandomScore, or a
//     custom implementation via RegisterAcquisition.
//   - SamplingPlan (the §4.3 observation schedule): VariablePlan,
//     FixedPlan, or a custom implementation via RegisterPlan.
//
// # Step-wise execution
//
// Learn generates its corpus and runs the whole loop; callers that own
// a corpus (from GenerateSpaceDataset), and long-running services,
// instead construct a step-wise engine with NewLearner and drive it
// one acquisition round at a time:
//
//	l, _ := alic.NewLearner(ds, opts.Learner)
//	for {
//		more, err := l.Step() // one acquisition round
//		if err != nil || !more {
//			break
//		}
//	}
//	res := l.Result()
//	l.Close()
//
// Learner.Run runs the loop to completion under a context.Context
// (the same call Learn makes) and reports progress through
// LearnerOptions.Progress.
//
// # Where parallelism lives
//
// The paper's §4.3 cost is compile and run time, so parallelism pays
// where measurements happen, not inside the model: a learner scores
// and updates its model on one goroutine. Measurements run
// concurrently within an acquisition batch (LearnerOptions.EvalWorkers,
// below), the experiment harness runs whole learning runs concurrently,
// and the tuning service steps many sessions at once on its scheduler
// workers. Every one of these is bit-identical to its serial form.
//
// # Batched evaluation
//
// Measurement — the §4.3 compile+run cost that dominates real
// deployments — flows through the evaluator engine
// (internal/evaluator): each acquisition batch is dispatched whole and
// measured with up to LearnerOptions.EvalWorkers concurrent workers
// (-eval-workers in cmd/alic). Every worker count is bit-identical to
// the serial loop, with order-free §4.3 cost accounting. See
// examples/batch-parallel for the measurement-bound regime.
//
// The packages behind this facade:
//
//   - internal/core      — Algorithm 1 (active learning + sequential analysis)
//   - internal/model     — the backend registry (Model interface)
//   - internal/dynatree  — particle-filtered dynamic-tree regression
//   - internal/spapt     — the 11 SPAPT kernels with Table 1 search spaces
//   - internal/loopnest, internal/costmodel — the compilation substrate
//   - internal/noise, internal/measure — the simulated profiling environment
//   - internal/evaluator — the concurrent batched evaluation engine
//   - internal/dataset   — §4.5 datasets (10,000 configs x 35 observations)
//   - internal/experiment — regenerators for every table and figure
package alic

import (
	"context"
	"errors"
	"fmt"
	"io"

	"alic/internal/core"
	"alic/internal/dataset"
	"alic/internal/dynatree"
	"alic/internal/evaluator"
	"alic/internal/measure"
	"alic/internal/model"
	"alic/internal/noise"
	"alic/internal/rng"
	"alic/internal/serve"
	"alic/internal/snapshot"
	"alic/internal/space"
	"alic/internal/spapt"
	"alic/internal/stats"
	"alic/internal/tuner"

	// The built-in space providers register themselves at init time:
	// the SPAPT suite, the synthetic robustness spaces, and the
	// exec-backed compiler-flag space (inert until opted into via
	// environment).
	_ "alic/internal/space/execspace"
	"alic/internal/space/spaptspace"
	_ "alic/internal/space/synthetic"
)

// Sentinel errors returned (wrapped) by the facade; assert with
// errors.Is.
var (
	// ErrNilKernel reports a nil *Kernel argument to WrapKernel.
	ErrNilKernel = errors.New("alic: nil kernel")
	// ErrNilDataset reports a nil *Dataset argument.
	ErrNilDataset = errors.New("alic: nil dataset")
	// ErrPoolTooSmall reports a training pool smaller than the
	// learner's seed requirement.
	ErrPoolTooSmall = errors.New("alic: pool smaller than NInit")
	// ErrBadTestSize reports a non-positive held-out test-set size.
	ErrBadTestSize = errors.New("alic: test size must be >= 1")
	// ErrUnknownModel reports a ModelByName name with no registered
	// backend.
	ErrUnknownModel = model.ErrUnknownModel
	// ErrUnknownAcquisition reports an acquisition name with no
	// registration.
	ErrUnknownAcquisition = core.ErrUnknownAcquisition
	// ErrUnknownPlan reports a sampling-plan name with no
	// registration.
	ErrUnknownPlan = core.ErrUnknownPlan
	// ErrClosed reports use of a Learner after Close. Concurrent
	// Step/Run/Close — the misuse a serving layer multiplexing
	// learners makes reachable — reports it instead of panicking.
	ErrClosed = core.ErrClosed
	// ErrCorruptSnapshot reports a snapshot whose bytes fail
	// validation — bad magic, checksum mismatch, truncation, or
	// structurally impossible state. Restores never panic and never
	// half-apply: the learner is untouched when this is reported.
	ErrCorruptSnapshot = snapshot.ErrCorruptSnapshot
	// ErrUnsupportedSnapshot reports a snapshot written by a newer
	// format version than this build reads.
	ErrUnsupportedSnapshot = snapshot.ErrUnsupportedVersion
	// ErrSnapshotMismatch reports a well-formed snapshot taken from a
	// learner with different structural parameters (pool size,
	// budgets, plan/scorer/backend, seed — or a different search
	// space) than the one restoring it.
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
	// ErrUnknownSpace reports a space name with no registration; the
	// error text lists every registered space.
	ErrUnknownSpace = space.ErrUnknownSpace
	// ErrLiveSpace reports a corpus-based operation (dataset
	// generation, serving) on a space that measures by executing real
	// commands; use LearnLive for those.
	ErrLiveSpace = dataset.ErrLiveSpace
)

// Re-exported core types. Downstream code uses these names; the
// internal packages stay private.
type (
	// Kernel is one SPAPT search problem (benchmark).
	Kernel = spapt.Kernel
	// Space is one registered search problem: the SPAPT kernels, the
	// synthetic robustness spaces, the exec-backed compiler-flag
	// space, or anything added with RegisterSpace.
	Space = space.Space
	// SpaceParam is one tunable dimension of a search space.
	SpaceParam = space.Param
	// SpaceMeasurer observes configurations of a space.
	SpaceMeasurer = space.Measurer
	// RandStream is the deterministic random stream a Space's
	// RandomConfig draws from.
	RandStream = rng.Stream
	// NoiseModel describes a simulated space's measurement-noise
	// profile (the zero value documents a live space, whose noise is
	// the real machine's).
	NoiseModel = noise.Model
	// Config is a point of a search space ([]int, one value per
	// parameter).
	Config = space.Config
	// Model is the pluggable regression-backend interface every
	// learner trains (see internal/model for the contract).
	Model = model.Model
	// ModelBuilder constructs a backend Model for a learning run.
	ModelBuilder = model.Builder
	// ModelParams is what a ModelBuilder receives at seeding time.
	ModelParams = model.Params
	// FeatureImportancer is the optional backend interface exposing
	// per-dimension relevance scores (the dynatree backend has it).
	FeatureImportancer = model.Importancer
	// TreeModel is the concrete dynamic-tree backend, for callers that
	// need forest-specific inspection beyond the Model interface.
	TreeModel = dynatree.Forest
	// ModelConfig parameterises the dynamic-tree backend.
	ModelConfig = dynatree.Config
	// Acquisition is the pluggable acquisition heuristic (§3.3).
	Acquisition = core.Acquisition
	// SamplingPlan is the pluggable observation schedule (§4.3).
	SamplingPlan = core.SamplingPlan
	// Rand is the deterministic randomness slice handed to
	// acquisitions.
	Rand = core.Rand
	// Learner is the step-wise active-learning engine; construct one
	// with NewLearner.
	Learner = core.Learner
	// LearnerOptions configures the active-learning loop.
	LearnerOptions = core.Options
	// LearnerResult reports a learning run.
	LearnerResult = core.Result
	// LearnerProgress is handed to LearnerOptions.Progress after every
	// step of a run.
	LearnerProgress = core.Progress
	// StopReason identifies the completion criterion that ended a run.
	StopReason = core.StopReason
	// CurvePoint is one (acquisitions, cost, error) learning-curve sample.
	CurvePoint = core.CurvePoint
	// Session is a profiling session's measurement history: which
	// noise ordinals of each configuration have been taken, so later
	// measurements continue them. It charges no cost; Tune reports
	// its verification cost in TunerResult.VerifyCost.
	Session = measure.Session
	// Dataset is a §4.5-style corpus for one kernel.
	Dataset = dataset.Dataset
	// DatasetOptions configures dataset generation.
	DatasetOptions = dataset.Options
	// TunerOptions configures model-driven configuration search.
	TunerOptions = tuner.Options
	// TunerResult reports a model-driven search.
	TunerResult = tuner.Result
	// Server is the multi-tenant tuning service: many named learner
	// sessions — per-tenant, per-kernel — stepped by a fair weighted
	// round-robin scheduler over shared process resources. Serve its
	// HTTP API with Server.Handler (see internal/serve and
	// cmd/alic-serve).
	Server = serve.Server
	// ServerOptions configures a Server.
	ServerOptions = serve.Options
	// ServerStats is the server-wide counter snapshot.
	ServerStats = serve.Stats
	// ServerSession is one hosted learner session handle.
	ServerSession = serve.Session
	// SessionSpec configures one hosted learner session.
	SessionSpec = serve.SessionSpec
	// SessionInfo is the JSON snapshot of a hosted session.
	SessionInfo = serve.SessionInfo
)

// NewServer starts a tuning service and its scheduler workers.
func NewServer(opts ServerOptions) *Server { return serve.NewServer(opts) }

// Built-in sampling plans and acquisition heuristics. These are the
// registry defaults; RegisterAcquisition / RegisterPlan add custom
// ones.
var (
	// VariablePlan is the paper's sequential-analysis plan.
	VariablePlan = core.VariablePlan
	// FixedPlan is the classic constant sampling plan.
	FixedPlan = core.FixedPlan
	// ALC is Cohn's acquisition heuristic (the paper's default).
	ALC = core.ALC
	// ALM is MacKay's maximum-variance heuristic.
	ALM = core.ALM
	// RandomScore disables active selection.
	RandomScore = core.RandomScore
)

// Completion criteria reported in LearnerResult.StoppedBy.
const (
	// StopNone means the run has not completed yet.
	StopNone = core.StopNone
	// StopBudget means the NMax acquisition budget was exhausted.
	StopBudget = core.StopBudget
	// StopByCost means the StopCost wall-clock criterion fired.
	StopByCost = core.StopByCost
	// StopByError means the StopError prequential criterion fired.
	StopByError = core.StopByError
	// StopExhausted means the candidate pool ran dry.
	StopExhausted = core.StopExhausted
	// StopCancelled means the run's context was cancelled.
	StopCancelled = core.StopCancelled
)

// RegisterModel makes a backend selectable by name through
// ModelByName.
func RegisterModel(b ModelBuilder) { model.Register(b) }

// ModelByName returns a registered backend builder.
func ModelByName(name string) (ModelBuilder, error) { return model.ByName(name) }

// ModelNames lists the registered backends.
func ModelNames() []string { return model.Names() }

// PickBest returns the positions of the batch lowest (minimise) or
// highest scores, best first — the ranking helper custom Acquisition
// implementations share with the built-ins.
func PickBest(scores []float64, batch int, minimise bool) []int {
	return core.PickBest(scores, batch, minimise)
}

// RegisterAcquisition makes an acquisition heuristic selectable by
// name.
func RegisterAcquisition(a Acquisition) { core.RegisterAcquisition(a) }

// AcquisitionByName returns a registered acquisition heuristic.
func AcquisitionByName(name string) (Acquisition, error) { return core.AcquisitionByName(name) }

// AcquisitionNames lists the registered acquisition heuristics.
func AcquisitionNames() []string { return core.AcquisitionNames() }

// RegisterPlan makes a sampling plan selectable by name.
func RegisterPlan(p SamplingPlan) { core.RegisterPlan(p) }

// PlanByName returns a registered sampling plan.
func PlanByName(name string) (SamplingPlan, error) { return core.PlanByName(name) }

// PlanNames lists the registered sampling plans.
func PlanNames() []string { return core.PlanNames() }

// RegisterSpace makes a search space selectable by name through
// SpaceByName, the -space flag of cmd/alic, and serving
// session specs. Call it from an init function (see
// examples/custom-space).
func RegisterSpace(s Space) { space.Register(s) }

// SpaceByName returns a registered search space.
func SpaceByName(name string) (Space, error) { return space.ByName(name) }

// SpaceNames lists the registered search spaces in sorted order.
func SpaceNames() []string { return space.Names() }

// IsLiveSpace reports whether sp measures by executing real commands
// (no simulated corpus; tune it with LearnLive).
func IsLiveSpace(sp Space) bool { return space.IsLive(sp) }

// The space helper kit re-exports the generic implementations of the
// Space interface's mechanical methods, so user-defined spaces outside
// this module compose them instead of reimplementing the contracts
// (see examples/custom-space).

// CheckSpaceConfig is the generic Space.Check: one value in [1, Max]
// per parameter.
func CheckSpaceConfig(params []SpaceParam, cfg Config) error {
	return space.CheckConfig(params, cfg)
}

// UniformSpaceFeatures is the generic Space.Features: dimension i maps
// to (v-1)/(Max-1), every axis spanning [0, 1].
func UniformSpaceFeatures(params []SpaceParam, cfg Config) []float64 {
	return space.UniformFeatures(params, cfg)
}

// UniformRandomConfig is the generic Space.RandomConfig: one uniform
// value in [1, Max] per parameter, one Intn draw per dimension.
func UniformRandomConfig(params []SpaceParam, r *RandStream) Config {
	return space.UniformRandom(params, r)
}

// BaselineOnesConfig returns the all-ones configuration — the generic
// Space.BaselineConfig.
func BaselineOnesConfig(n int) Config { return space.BaselineOnes(n) }

// HashSpaceConfig is the generic Space.Key: a stable FNV-64a hash of
// the (space name, configuration) pair, so equal configurations of
// different spaces never collide into the same noise stream.
func HashSpaceConfig(name string, cfg Config) uint64 { return space.HashConfig(name, cfg) }

// SpaceSizeOf returns the cardinality of a parameter list.
func SpaceSizeOf(params []SpaceParam) float64 { return space.SizeOf(params) }

// ValidateSpaceParams is the generic Space.Validate: at least one
// parameter, unique names, positive ranges.
func ValidateSpaceParams(params []SpaceParam) error { return space.ValidateParams(params) }

// WrapKernel adapts a SPAPT kernel — including unregistered ones, e.g.
// retargeted via WithMachine — to the Space interface that Learn,
// LearnLive, NewSpaceSession and GenerateSpaceDataset take. A nil
// kernel fails with ErrNilKernel.
func WrapKernel(k *Kernel) (Space, error) {
	if k == nil {
		return nil, ErrNilKernel
	}
	return spaptspace.Wrap(k)
}

// Kernels returns the 11-kernel SPAPT suite used in the paper's
// evaluation.
func Kernels() []*Kernel { return spapt.Kernels() }

// KernelNames lists the kernels in Table 1 order.
func KernelNames() []string { return spapt.Names() }

// KernelByName returns one kernel of the suite.
func KernelByName(name string) (*Kernel, error) { return spapt.ByName(name) }

// NewSpaceSession opens a profiling session for any search space. For
// simulated spaces equal seeds reproduce identical noise; live spaces
// measure the real machine.
func NewSpaceSession(sp Space, seed uint64) (*Session, error) {
	return measure.NewSession(sp, seed)
}

// GenerateSpaceDataset builds a §4.5-style corpus for any simulated
// search space; live spaces are rejected with ErrLiveSpace.
func GenerateSpaceDataset(sp Space, opts DatasetOptions) (*Dataset, error) {
	return dataset.Generate(sp, opts)
}

// DefaultDatasetOptions returns the paper's dataset parameters
// (10,000 configurations, 35 observations, 75% train).
func DefaultDatasetOptions() DatasetOptions { return dataset.DefaultOptions() }

// DefaultLearnOptions returns the paper's learning parameters
// (ninit=5, nobs=35, nc=500, nmax=2500, ALC scoring, variable plan,
// dynatree backend) with a model sized for interactive use.
func DefaultLearnOptions() LearnOptions {
	return LearnOptions{
		Learner:     core.DefaultOptions(),
		PoolSize:    4000,
		TestSize:    800,
		DatasetSeed: 1,
	}
}

// LearnOptions bundles everything Learn needs.
type LearnOptions struct {
	// Learner configures Algorithm 1 (plan, scorer, budgets, model).
	// Learner.Model selects the regression backend (nil = dynatree;
	// ModelByName looks builders up by registry name); the dynatree
	// backend is configured by Learner.Tree.
	Learner LearnerOptions
	// PoolSize is the number of candidate configurations made
	// available for training.
	PoolSize int
	// TestSize is the held-out test-set size used for the error curve.
	TestSize int
	// DatasetSeed drives configuration sampling and noise.
	DatasetSeed uint64
}

// LearnResult is the outcome of Learn.
type LearnResult struct {
	// Result is the learner's report (model, curve, costs).
	*LearnerResult
	// Dataset is the corpus the run trained and evaluated on.
	Dataset *Dataset
}

// Learn builds a runtime model for a simulated search space with the
// configured sampling plan and backend: it generates a §4.5 corpus of
// PoolSize+TestSize configurations, then runs Algorithm 1 over it,
// profiling (simulated) binaries on demand and charging their cost as
// the paper does. The returned curve tracks test RMSE against
// cumulative profiling seconds. Live spaces are rejected with
// ErrLiveSpace (use LearnLive); SPAPT kernels enter through WrapKernel.
// Cancelling ctx ends the run gracefully after the current acquisition
// round with StoppedBy == StopCancelled (partial model and curve
// intact) instead of abandoning it.
func Learn(ctx context.Context, sp Space, opts LearnOptions) (*LearnResult, error) {
	dopts, err := opts.DatasetOptions()
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(sp, dopts)
	if err != nil {
		return nil, err
	}
	learner, err := NewLearner(ds, opts.Learner)
	if err != nil {
		return nil, err
	}
	defer learner.Close()
	res, err := learner.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &LearnResult{LearnerResult: res, Dataset: ds}, nil
}

// DatasetOptions returns the corpus Learn generates for opts: a pool
// of PoolSize training configurations plus TestSize held-out ones,
// observed NObs times each, sampled from DatasetSeed. It fails with
// ErrPoolTooSmall or ErrBadTestSize when the sizes cannot seed a run.
func (opts LearnOptions) DatasetOptions() (DatasetOptions, error) {
	if err := checkPool(opts); err != nil {
		return DatasetOptions{}, err
	}
	if opts.TestSize < 1 {
		return DatasetOptions{}, fmt.Errorf("%w: got %d", ErrBadTestSize, opts.TestSize)
	}
	return DatasetOptions{
		NConfigs:   opts.PoolSize + opts.TestSize,
		NObs:       opts.Learner.NObs,
		TrainCount: opts.PoolSize,
		Seed:       opts.DatasetSeed,
	}, nil
}

// checkPool rejects a training pool too small to seed the learner.
func checkPool(opts LearnOptions) error {
	if opts.PoolSize < opts.Learner.NInit {
		return fmt.Errorf("%w: PoolSize %d below NInit %d",
			ErrPoolTooSmall, opts.PoolSize, opts.Learner.NInit)
	}
	return nil
}

// LiveResult is the outcome of LearnLive.
type LiveResult struct {
	// Result is the learner's report (model, costs, curve-less: live
	// spaces have no held-out ground truth).
	*LearnerResult
	// Configs is the sampled candidate pool the learner chose from.
	Configs []Config
	// Winner is the configuration the trained model predicts fastest.
	Winner Config
	// WinnerPredicted is the model's predicted mean runtime at Winner.
	WinnerPredicted float64
}

// LearnLive tunes a search space by measuring it directly — each
// acquisition compiles and runs the real configuration through the
// space's measurer instead of replaying a pre-generated corpus. This
// is the only way to drive live spaces such as exec/cc (whose
// measurer shells out to a toolchain), and it works for simulated
// spaces too. There is no held-out test set, so the result carries no
// RMSE curve; the winner is the model's predicted-best pool
// configuration.
func LearnLive(ctx context.Context, sp Space, opts LearnOptions) (*LiveResult, error) {
	if sp == nil {
		return nil, fmt.Errorf("alic: nil space")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := checkPool(opts); err != nil {
		return nil, err
	}

	// Sample the candidate pool exactly as dataset generation does,
	// then standardise features over the pool.
	cfgs, _, err := dataset.SamplePool(sp, opts.PoolSize, opts.DatasetSeed)
	if err != nil {
		return nil, fmt.Errorf("alic: PoolSize: %w", err)
	}
	raw := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		raw[i] = sp.Features(cfg)
	}
	nz := stats.FitNormalizer(raw)
	poolX := nz.TransformAll(raw)

	// Opening the measurer is the opt-in gate: unconfigured live
	// spaces fail here, before anything executes.
	meas, err := sp.Measurer(opts.DatasetSeed)
	if err != nil {
		return nil, err
	}
	if c, ok := meas.(interface{ Close() error }); ok {
		defer c.Close()
	}

	if opts.Learner.Space == "" {
		opts.Learner.Space = sp.Name()
	}

	src, err := evaluator.NewSpaceSource(meas, cfgs)
	if err != nil {
		return nil, err
	}
	learner, err := core.New(opts.Learner, core.SlicePool(poolX), src, nil)
	if err != nil {
		return nil, err
	}
	defer learner.Close()
	res, err := learner.Run(ctx)
	if err != nil {
		return nil, err
	}

	out := &LiveResult{LearnerResult: res, Configs: cfgs}
	if res.Model != nil {
		preds := res.Model.PredictMeanFastBatch(poolX)
		best := 0
		for i, p := range preds {
			if p < preds[best] {
				best = i
			}
		}
		out.Winner = cfgs[best]
		out.WinnerPredicted = preds[best]
	}
	return out, nil
}

// NewLearner constructs a step-wise learner over a pre-generated
// dataset: the training pool supplies candidates, the test split
// supplies the RMSE curve, and observation costs follow §4.3 through
// the evaluator engine (internal/evaluator), which measures each
// acquisition batch with up to LearnerOptions.EvalWorkers concurrent
// workers. Drive it with Learner.Step (one acquisition round per call)
// or Learner.Run (whole loop under a context), and call Learner.Close
// when done with it.
func NewLearner(ds *Dataset, opts LearnerOptions) (*Learner, error) {
	if ds == nil {
		return nil, ErrNilDataset
	}
	if opts.Space == "" && ds.Space != nil {
		// Default the snapshot guard: snapshots name their space, and
		// restoring under a different one fails with
		// ErrSnapshotMismatch instead of mixing trajectories.
		opts.Space = ds.Space.Name()
	}
	src, err := evaluator.NewDatasetSource(ds)
	if err != nil {
		return nil, err
	}
	return core.New(opts, core.SlicePool(ds.TrainFeatures()), src, ds.TestRMSE())
}

// ResumeLearner reconstructs a step-wise learner from a snapshot
// written by Learner.Snapshot: construct a fresh learner over the
// dataset exactly as NewLearner does, then load the saved state. The
// dataset and options must match the snapshotting run's (same
// DatasetSeed, budgets, plan, scorer, backend) — mismatches fail with
// ErrSnapshotMismatch rather than diverging silently. EvalWorkers is
// free to change: the resumed run is bit-identical either way.
func ResumeLearner(ds *Dataset, opts LearnerOptions, r io.Reader) (*Learner, error) {
	l, err := NewLearner(ds, opts)
	if err != nil {
		return nil, err
	}
	if err := l.Restore(r); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// Tune performs model-driven configuration search (§4.1): rank random
// configurations with a trained model, verify the best few by
// profiling, and report the winner with its speedup over -O2.
// Concurrent Tune calls may share one Session: each reserves its
// verification ordinals on it in one step, so no two calls measure the
// same (configuration, ordinal) and only the first to reserve a
// configuration pays its compile.
func Tune(m Model, sess *Session, ds *Dataset, opts TunerOptions) (*TunerResult, error) {
	if ds == nil {
		return nil, ErrNilDataset
	}
	return tuner.Search(m, sess, ds.Normalizer, opts)
}
