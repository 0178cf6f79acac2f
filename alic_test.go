package alic

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"alic/internal/model"
)

func quickLearnOptions() LearnOptions {
	o := DefaultLearnOptions()
	o.PoolSize = 400
	o.TestSize = 150
	o.Learner.NInit = 4
	o.Learner.NObs = 6
	o.Learner.NCand = 60
	o.Learner.NMax = 60
	o.Learner.EvalEvery = 20
	o.Learner.Tree.Particles = 60
	o.Learner.Tree.ScoreParticles = 20
	return o
}

func TestKernelSuiteAccessors(t *testing.T) {
	if got := len(Kernels()); got != 11 {
		t.Fatalf("suite size %d", got)
	}
	if got := len(KernelNames()); got != 11 {
		t.Fatalf("names %d", got)
	}
	k, err := KernelByName("mm")
	if err != nil || k.Name != "mm" {
		t.Fatalf("KernelByName: %v %v", k, err)
	}
	if _, err := KernelByName("bogus"); err == nil {
		t.Fatal("bogus kernel accepted")
	}
}

func TestLearnEndToEnd(t *testing.T) {
	res, err := Learn(context.Background(), mustSpace(t, "mvt"), quickLearnOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || res.Dataset == nil {
		t.Fatal("missing model or dataset")
	}
	if math.IsNaN(res.FinalError) || res.FinalError <= 0 {
		t.Fatalf("final error %v", res.FinalError)
	}
	if res.Cost <= 0 {
		t.Fatalf("cost %v", res.Cost)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve recorded")
	}
}

func TestLearnValidation(t *testing.T) {
	if sp, err := WrapKernel(nil); sp != nil || !errors.Is(err, ErrNilKernel) {
		t.Fatalf("WrapKernel(nil) = %v, %v; want nil, ErrNilKernel", sp, err)
	}
	sp := mustSpace(t, "mvt")
	bad := quickLearnOptions()
	bad.PoolSize = 1
	if _, err := Learn(context.Background(), sp, bad); !errors.Is(err, ErrPoolTooSmall) {
		t.Fatalf("tiny pool error = %v, want ErrPoolTooSmall", err)
	}
	if _, err := LearnLive(context.Background(), sp, bad); !errors.Is(err, ErrPoolTooSmall) {
		t.Fatalf("LearnLive tiny pool error = %v, want ErrPoolTooSmall", err)
	}
	bad2 := quickLearnOptions()
	bad2.TestSize = 0
	if _, err := Learn(context.Background(), sp, bad2); !errors.Is(err, ErrBadTestSize) {
		t.Fatalf("zero test size error = %v, want ErrBadTestSize", err)
	}
	if _, err := bad.DatasetOptions(); !errors.Is(err, ErrPoolTooSmall) {
		t.Fatalf("DatasetOptions tiny pool error = %v, want ErrPoolTooSmall", err)
	}
	if _, err := bad2.DatasetOptions(); !errors.Is(err, ErrBadTestSize) {
		t.Fatalf("DatasetOptions zero test size error = %v, want ErrBadTestSize", err)
	}
	// "gp" named the exact-GP backend of earlier builds.
	for _, name := range []string{"no-such-backend", "gp"} {
		if _, err := ModelByName(name); !errors.Is(err, ErrUnknownModel) {
			t.Fatalf("backend %q error = %v, want ErrUnknownModel", name, err)
		}
	}
	if _, err := NewLearner(nil, quickLearnOptions().Learner); !errors.Is(err, ErrNilDataset) {
		t.Fatalf("nil dataset error = %v, want ErrNilDataset", err)
	}
	if _, err := Tune(nil, nil, nil, TunerOptions{}); !errors.Is(err, ErrNilDataset) {
		t.Fatalf("Tune nil dataset error = %v, want ErrNilDataset", err)
	}
}

// TestLearnOptionsDatasetOptions pins the corpus Learn generates:
// the pool followed by the held-out test set, every configuration
// observed NObs times, sampled from DatasetSeed.
func TestLearnOptionsDatasetOptions(t *testing.T) {
	opts := quickLearnOptions()
	got, err := opts.DatasetOptions()
	if err != nil {
		t.Fatal(err)
	}
	want := DatasetOptions{
		NConfigs:   opts.PoolSize + opts.TestSize,
		NObs:       opts.Learner.NObs,
		TrainCount: opts.PoolSize,
		Seed:       opts.DatasetSeed,
	}
	if got != want {
		t.Fatalf("DatasetOptions = %+v, want %+v", got, want)
	}
}

// TestNilSpaceRejected pins that every facade entry point taking a
// Space reports a nil one as an error instead of panicking.
func TestNilSpaceRejected(t *testing.T) {
	opts := quickLearnOptions()
	for name, call := range map[string]func() error{
		"Learn": func() error {
			_, err := Learn(context.Background(), nil, opts)
			return err
		},
		"LearnLive": func() error {
			_, err := LearnLive(context.Background(), nil, opts)
			return err
		},
		"NewSpaceSession": func() error {
			_, err := NewSpaceSession(nil, 1)
			return err
		},
		"GenerateSpaceDataset": func() error {
			_, err := GenerateSpaceDataset(nil, DatasetOptions{NConfigs: 10, NObs: 1, TrainFrac: 0.5, Seed: 1})
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("nil space panicked: %v", r)
				}
			}()
			if err := call(); err == nil {
				t.Fatal("nil space accepted")
			}
		})
	}
}

// plainModel exposes only the Model interface of the backend it
// wraps, none of the optional extensions (RoundUpdater, PoolBinder,
// Snapshotter, Importancer): the shape of a minimal custom backend.
type plainModel struct{ Model }

// plainBuilder registers dynatree, configured by tree, behind
// plainModel, so the learner takes every fallback a custom backend
// gets.
type plainBuilder struct{ tree ModelConfig }

func (plainBuilder) Name() string { return "dynatree-plain" }

func (b plainBuilder) New(p ModelParams) (Model, error) {
	m, err := model.DynatreeBuilder{Config: b.tree}.New(p)
	if err != nil {
		return nil, err
	}
	return plainModel{m}, nil
}

// TestCrossBackendSmoke runs the same learning problem through every
// registered backend, plus a RegisterModel backend with no optional
// extensions, and checks the invariants any healthy run obeys: a
// finite final RMSE and a strictly cost-increasing learning curve.
// Snapshotting a learner on the extension-less backend must fail with
// an error, not panic.
func TestCrossBackendSmoke(t *testing.T) {
	RegisterModel(plainBuilder{tree: quickLearnOptions().Learner.Tree})
	sp := mustSpace(t, "mvt")
	for _, backend := range ModelNames() {
		t.Run(backend, func(t *testing.T) {
			opts := quickLearnOptions()
			b, err := ModelByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			opts.Learner.Model = b
			opts.Learner.NMax = 40
			opts.Learner.NCand = 30
			res, err := Learn(context.Background(), sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(res.FinalError) || math.IsInf(res.FinalError, 0) || res.FinalError <= 0 {
				t.Fatalf("%s: final RMSE %v not finite positive", backend, res.FinalError)
			}
			if len(res.Curve) == 0 {
				t.Fatalf("%s: no learning curve", backend)
			}
			prev := -1.0
			for _, p := range res.Curve {
				if p.Cost <= prev {
					t.Fatalf("%s: curve cost not increasing: %v after %v", backend, p.Cost, prev)
				}
				prev = p.Cost
			}
			if res.Acquired != opts.Learner.NMax {
				t.Fatalf("%s: acquired %d, want %d", backend, res.Acquired, opts.Learner.NMax)
			}
		})
	}
	t.Run("snapshot-unsupported", func(t *testing.T) {
		lo := quickLearnOptions()
		dopts, err := lo.DatasetOptions()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := GenerateSpaceDataset(sp, dopts)
		if err != nil {
			t.Fatal(err)
		}
		lo.Learner.Model = plainBuilder{tree: lo.Learner.Tree}
		lo.Learner.NMax = 10
		l, err := NewLearner(ds, lo.Learner)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := l.Snapshot(&buf); err == nil || !strings.Contains(err.Error(), "does not support snapshots") {
			t.Fatalf("snapshot of an extension-less backend: err = %v", err)
		}
	})
}

// exploitAcq is a facade-level custom acquisition: pure exploitation
// of the model's mean prediction.
type exploitAcq struct{}

func (exploitAcq) Name() string { return "exploit" }

func (exploitAcq) Select(m Model, feats [][]float64, batch int, _ Rand) ([]int, error) {
	return PickBest(m.PredictMeanFastBatch(feats), batch, true), nil
}

// TestStepWiseCustomAcquisition drives the step-wise engine through
// the facade with a registered custom heuristic — the public plug-in
// path that needs no access to internal/core.
func TestStepWiseCustomAcquisition(t *testing.T) {
	RegisterAcquisition(exploitAcq{})
	ds, err := GenerateSpaceDataset(mustSpace(t, "lu"), DatasetOptions{
		NConfigs: 500, NObs: 8, TrainCount: 400, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := quickLearnOptions().Learner
	opts.NObs = 8
	opts.NMax = 30
	opts.Scorer, err = AcquisitionByName("exploit")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLearner(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for {
		more, err := l.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	res := l.Result()
	if res.StoppedBy != StopBudget || res.Acquired != 30 {
		t.Fatalf("step-wise run ended %v after %d acquisitions", res.StoppedBy, res.Acquired)
	}
	if math.IsNaN(res.FinalError) || res.FinalError <= 0 {
		t.Fatalf("final RMSE %v", res.FinalError)
	}
}

// TestLearnExactSplit is the regression test for the train/test split
// rounding bug: Learn used to derive the split from the fraction
// PoolSize/(PoolSize+TestSize), whose float truncation loses a
// configuration for pairs like 15/7 (int(22 * (15.0/22.0)) == 14).
func TestLearnExactSplit(t *testing.T) {
	opts := quickLearnOptions()
	opts.PoolSize = 15
	opts.TestSize = 7
	opts.Learner.NInit = 3
	opts.Learner.NObs = 4
	opts.Learner.NMax = 10
	opts.Learner.NCand = 10
	res, err := Learn(context.Background(), mustSpace(t, "mvt"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Dataset.TrainIdx); got != opts.PoolSize {
		t.Fatalf("train pool %d, want exactly PoolSize %d", got, opts.PoolSize)
	}
	if got := len(res.Dataset.TestIdx); got != opts.TestSize {
		t.Fatalf("test set %d, want exactly TestSize %d", got, opts.TestSize)
	}
}

func TestRunOnDatasetPlansDiffer(t *testing.T) {
	// The fixed-35 plan must cost dramatically more than the variable
	// plan for the same number of acquisitions.
	ds, err := GenerateSpaceDataset(mustSpace(t, "lu"), DatasetOptions{
		NConfigs: 500, NObs: 12, TrainFrac: 0.8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := quickLearnOptions().Learner
	opts.NObs = 12

	varRes := runToEnd(t, ds, opts)
	fixed := opts
	fixed.Plan = FixedPlan
	fixed.PlanObs = 12
	fixedRes := runToEnd(t, ds, fixed)
	if varRes.Cost >= fixedRes.Cost {
		t.Fatalf("variable cost %v not below fixed cost %v", varRes.Cost, fixedRes.Cost)
	}
	if fixedRes.Observations != fixedRes.Acquired*12 {
		t.Fatalf("fixed plan observations %d for %d acquisitions",
			fixedRes.Observations, fixedRes.Acquired)
	}
}

func TestTuneEndToEnd(t *testing.T) {
	sp := mustSpace(t, "mvt")
	res, err := Learn(context.Background(), sp, quickLearnOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSpaceSession(sp, 42)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := Tune(res.Model, sess, res.Dataset, TunerOptions{
		Candidates: 300, Verify: 5, VerifyObs: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Best.Measured <= 0 || math.IsNaN(tres.Best.Measured) {
		t.Fatalf("bad winner %+v", tres.Best)
	}
	if tres.Speedup <= 0 {
		t.Fatalf("speedup %v", tres.Speedup)
	}
}

func TestLearnWithStopError(t *testing.T) {
	opts := quickLearnOptions()
	opts.Learner.NMax = 3000
	opts.Learner.StopError = 10 // trivially loose: fires as soon as the window fills
	opts.Learner.StopWindow = 10
	res, err := Learn(context.Background(), mustSpace(t, "lu"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired >= 3000 {
		t.Fatal("stop rule never fired")
	}
	if res.PrequentialError <= 0 {
		t.Fatalf("prequential error %v", res.PrequentialError)
	}
}

func TestModelImportanceThroughFacade(t *testing.T) {
	sp := mustSpace(t, "jacobi")
	res, err := Learn(context.Background(), sp, quickLearnOptions())
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := res.Model.(FeatureImportancer)
	if !ok {
		t.Fatalf("dynatree backend %T lost feature importance", res.Model)
	}
	imp := fi.Importance(sp.Dim())
	if len(imp) != sp.Dim() {
		t.Fatalf("importance dims %d, want %d", len(imp), sp.Dim())
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum <= 0.99 {
		t.Fatalf("importance sums to %v; model learned nothing?", sum)
	}
}

// mustSpace returns a registered search space.
func mustSpace(tb testing.TB, name string) Space {
	tb.Helper()
	sp, err := SpaceByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// runToEnd runs a step-wise learner over ds to completion.
func runToEnd(tb testing.TB, ds *Dataset, opts LearnerOptions) *LearnerResult {
	tb.Helper()
	l, err := NewLearner(ds, opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	res, err := l.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// errPoisoned is what poisonedSpace's measurer reports.
var errPoisoned = errors.New("measurer failure")

// poisonedSpace wraps a space so that its measurer fails every request
// about one configuration and measures the rest as usual.
type poisonedSpace struct {
	Space
	bad uint64 // Key of the failing configuration
}

func (s poisonedSpace) Measurer(seed uint64) (SpaceMeasurer, error) {
	m, err := s.Space.Measurer(seed)
	return poisonedMeasurer{SpaceMeasurer: m, sp: s}, err
}

type poisonedMeasurer struct {
	SpaceMeasurer
	sp poisonedSpace
}

func (m poisonedMeasurer) check(cfg Config) error {
	if m.sp.Key(cfg) == m.sp.bad {
		return errPoisoned
	}
	return nil
}

func (m poisonedMeasurer) TrueMean(cfg Config) (float64, error) {
	if err := m.check(cfg); err != nil {
		return 0, err
	}
	return m.SpaceMeasurer.TrueMean(cfg)
}

func (m poisonedMeasurer) CompileCost(cfg Config) (float64, error) {
	if err := m.check(cfg); err != nil {
		return 0, err
	}
	return m.SpaceMeasurer.CompileCost(cfg)
}

func (m poisonedMeasurer) Observe(cfg Config, ord int) (float64, error) {
	if err := m.check(cfg); err != nil {
		return 0, err
	}
	return m.SpaceMeasurer.Observe(cfg, ord)
}

// TestLearnerRunReportsPoolMeasurerError: the corpus measures its
// training pool only when the learner acquires it, so a measurer that
// fails on a pool configuration is first seen by Learner.Run, which
// must return the error rather than panic.
func TestLearnerRunReportsPoolMeasurerError(t *testing.T) {
	dopts := DatasetOptions{NConfigs: 20, NObs: 4, TrainCount: 4, Seed: 3}
	sp := mustSpace(t, "mm")
	clean, err := GenerateSpaceDataset(sp, dopts)
	if err != nil {
		t.Fatal(err)
	}
	// NInit equals the pool size, so the first round measures every
	// pool configuration, the poisoned one included.
	bad := clean.Configs[clean.TrainIdx[2]]
	ds, err := GenerateSpaceDataset(poisonedSpace{Space: sp, bad: sp.Key(bad)}, dopts)
	if err != nil {
		t.Fatalf("generation measured a pool configuration: %v", err)
	}
	opts := quickLearnOptions().Learner
	opts.NInit = 4
	opts.NCand = 4
	opts.NMax = 4
	l, err := NewLearner(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Run(context.Background()); !errors.Is(err, errPoisoned) {
		t.Fatalf("Run = %v, want the measurer's error", err)
	}
}
