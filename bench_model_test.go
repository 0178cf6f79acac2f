package alic

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"alic/internal/core"
	"alic/internal/model"
	"alic/internal/rng"
)

// The model-scoring benchmarks measure the pool-interned scoring
// engine against the historical row-gathering path on the same model
// state. "path=indexed" is the production configuration: the dynatree
// backend interns the candidate pool at seeding time and the learner
// scores by stable pool index, reusing cached particle routes across
// rounds. "path=row" hides the backend's PoolBinder extension, forcing
// the learner to gather feature rows and re-route the full candidate
// set through every scoring particle on every call — the pre-PR cost
// profile. Both paths select identical configurations (the PoolBinder
// contract, enforced by core's TestIndexedPathMatchesRowPath); only
// wall-clock differs.

// rowOnlyModel hides the backend's PoolBinder extension while keeping
// the round-batched update entry point: the row path isolates the
// historical *scoring* cost, so it must not also degrade the update
// path both configurations share.
type rowOnlyModel struct {
	model.Model
	ru model.RoundUpdater
}

func (m rowOnlyModel) UpdateRound(xs [][]float64, ys, preds []float64) {
	m.ru.UpdateRound(xs, ys, preds)
}

type rowOnlyBuilder struct{ inner model.Builder }

func (b rowOnlyBuilder) Name() string { return b.inner.Name() }
func (b rowOnlyBuilder) New(p model.Params) (model.Model, error) {
	m, err := b.inner.New(p)
	if err != nil {
		return nil, err
	}
	return rowOnlyModel{m, m.(model.RoundUpdater)}, nil
}

// benchModelOptions is the default learner config at benchmark scale:
// ALC acquisition (the paper's choice), variable plan, a 2000-config
// pool scored 500 fresh candidates at a time.
func benchModelOptions(workers int, rowOnly bool) core.Options {
	opts := core.DefaultOptions()
	opts.NInit = 5
	opts.NObs = 10
	opts.NCand = 500
	opts.NMax = 90
	opts.Batch = 8
	opts.EvalEvery = 0
	opts.Workers = workers
	opts.Tree.Particles = 300
	opts.Tree.ScoreParticles = 100
	if rowOnly {
		opts.Model = rowOnlyBuilder{inner: model.DynatreeBuilder{Config: opts.Tree}}
	}
	return opts
}

func benchModelPool() core.SlicePool {
	r := rng.New(3)
	pool := make(core.SlicePool, 2000)
	for i := range pool {
		pool[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	return pool
}

// newTrainedModelLearner runs one full learning session, leaving a
// mid-run model whose trees have realistic depth for steady-state
// scoring.
func newTrainedModelLearner(tb testing.TB, workers int, rowOnly bool) *core.Learner {
	tb.Helper()
	pool := benchModelPool()
	l, err := newBenchLearner(benchModelOptions(workers, rowOnly), pool)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := l.Run(nil); err != nil {
		tb.Fatal(err)
	}
	return l
}

func benchSelectSteady(b *testing.B, workers int, rowOnly bool) {
	l := newTrainedModelLearner(b, workers, rowOnly)
	// Warm outside the timer: the first indexed call routes the pool
	// and populates the slabs; steady state is every call after it.
	if _, err := l.SelectBatch(8); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.SelectBatch(8); err != nil {
			b.Fatal(err)
		}
	}
}

var benchPaths = []struct {
	name    string
	rowOnly bool
}{{"indexed", false}, {"row", true}}

// BenchmarkSelectBatchSteady measures one steady-state acquisition
// selection — candidate assembly plus ALC scoring over ~500 candidates
// against a trained 300-particle forest — through both scoring paths.
func BenchmarkSelectBatchSteady(b *testing.B) {
	for _, path := range benchPaths {
		for _, w := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("path=%s/workers=%d", path.name, w), func(b *testing.B) {
				benchSelectSteady(b, w, path.rowOnly)
			})
		}
	}
}

func benchLearnRounds(b *testing.B, workers int, rowOnly bool) {
	opts := benchModelOptions(workers, rowOnly)
	pool := benchModelPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := newBenchLearner(opts, pool)
		if err != nil {
			b.Fatal(err)
		}
		res, err := l.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Acquired != opts.NMax {
			b.Fatalf("acquired %d", res.Acquired)
		}
	}
}

// BenchmarkLearnRounds measures a full multi-round learning session —
// seeding, then ~11 rounds of batch-8 selection interleaved with model
// updates — through both scoring paths. Unlike the steady-state
// selection benchmark this includes the cache maintenance each round's
// updates cause, so it is the honest end-to-end cost of the routing
// cache in Algorithm 1's loop. Know what it can show: model updates
// (particle propagation, resampling) dominate a session and are
// identical in both paths, so even a zero-cost cache caps the session
// ratio around ~1.25x at this shape — the committed ratio near 1.0x
// means cached scoring plus all maintenance (slot-scoped redirect
// logs, slab copy-on-write, compaction translate) costs about what
// fresh re-descent does, while the steady-state benchmark isolates
// the pure scoring win (~3x).
func BenchmarkLearnRounds(b *testing.B) {
	for _, path := range benchPaths {
		for _, w := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("path=%s/workers=%d", path.name, w), func(b *testing.B) {
				benchLearnRounds(b, w, path.rowOnly)
			})
		}
	}
}

// modelBenchRecord is one row of BENCH_model.json.
type modelBenchRecord struct {
	Benchmark    string  `json:"benchmark"`
	Path         string  `json:"path"`
	Workers      int     `json:"workers"`
	MsPerOp      float64 `json:"ms_per_op"`
	SpeedupVsRow float64 `json:"speedup_vs_row"`
}

// learnPhaseSplit is one serial session's model-side wall clock broken
// down by phase: weight and propagate are the forest's two update
// phases (Forest.PhaseTimes — fused descent + reweighting + resample,
// then move commits); score and update are the learner's coarser split
// (core.Progress — selection scoring vs folding rounds in, so update
// covers weight + propagate + glue). Purely observational: it shows
// whether a session is scoring- or propagation-bound without a
// profiler, and how the update side divides between its phases.
type learnPhaseSplit struct {
	WeightMs    float64 `json:"weight_ms"`
	PropagateMs float64 `json:"propagate_ms"`
	ScoreMs     float64 `json:"score_ms"`
	UpdateMs    float64 `json:"update_ms"`
}

type modelBenchReport struct {
	Name              string             `json:"name"`
	PoolSize          int                `json:"pool_size"`
	Candidates        int                `json:"candidates"`
	Particles         int                `json:"particles"`
	ScoreParticles    int                `json:"score_particles"`
	Acquisitions      int                `json:"acquisitions"`
	BatchWidth        int                `json:"batch_width"`
	Results           []modelBenchRecord `json:"results"`
	SelectSerial      float64            `json:"select_steady_indexed_vs_row_serial"`
	LearnSerial       float64            `json:"learn_rounds_indexed_vs_row_serial"`
	LearnRowSerialMs  float64            `json:"learn_rounds_row_serial_ms"`
	LearnIdxSerialMs  float64            `json:"learn_rounds_indexed_serial_ms"`
	LearnPhases       learnPhaseSplit    `json:"learn_rounds_serial_phase_split"`
	MeetsSpeedupFloor bool               `json:"meets_2x_select_speedup_floor"`
	MeetsLearnFloor   bool               `json:"meets_learn_rounds_regression_floor"`
	MeetsLearnCeiling bool               `json:"meets_learn_rounds_ms_ceiling"`
}

// learnRoundsFloor is the LearnRounds indexed-vs-row serial floor the
// model-bench CI job enforces. It is a no-regression guard, not a
// speedup claim: whole sessions are dominated by model updates that
// both paths share (see BenchmarkLearnRounds), so the enforceable
// contract is that cache maintenance never makes full sessions
// meaningfully slower than row re-descent, while steady-state
// selection keeps its ≥2x floor. Set below 1.0 only to absorb CI
// runner noise on a ~1.0x measurement.
const learnRoundsFloor = 0.75

// learnRoundsCeilingMs is the absolute wall-clock ceiling CI enforces
// on one serial row-path LearnRounds session (ms/session). The
// propagation-path work (fused descent, round-batched folds, batch
// partition routing) brought the dev-shape session from ~47 ms to
// ~33 ms; the ceiling is set far above the measured value because CI
// runners vary widely in absolute speed — it exists to catch
// algorithmic regressions that multiply session cost, not percentage
// drift the ratio floors already guard.
const learnRoundsCeilingMs = 85.0

// TestRecordModelBenchmark regenerates BENCH_model.json — the
// indexed-vs-row scoring trajectory at 1/4/8 workers — and enforces
// two serial floors for the pool-interned path over the row path
// (serial, so the ratios are purely algorithmic: cached routes vs
// full re-descent): ≥2x on steady-state SelectBatch, and the
// no-regression learnRoundsFloor on LearnRounds (whole update-heavy
// learning sessions; see BenchmarkLearnRounds for why a large session
// ratio is not attainable while updates dominate). It only runs when
// ALIC_RECORD_MODEL_BENCH is set (CI's model-bench job, or locally:
//
//	ALIC_RECORD_MODEL_BENCH=BENCH_model.json go test -run TestRecordModelBenchmark .
func TestRecordModelBenchmark(t *testing.T) {
	out := os.Getenv("ALIC_RECORD_MODEL_BENCH")
	if out == "" {
		t.Skip("set ALIC_RECORD_MODEL_BENCH=<path> to record the model-scoring benchmark")
	}
	opts := benchModelOptions(1, false)
	rep := modelBenchReport{
		Name:           "model-scoring",
		PoolSize:       len(benchModelPool()),
		Candidates:     opts.NCand,
		Particles:      opts.Tree.Particles,
		ScoreParticles: opts.Tree.ScoreParticles,
		Acquisitions:   opts.NMax,
		BatchWidth:     opts.Batch,
	}
	bench := func(name string, workers int, rowOnly bool) float64 {
		var fn func(b *testing.B, workers int, rowOnly bool)
		switch name {
		case "SelectBatchSteady":
			fn = benchSelectSteady
		case "LearnRounds":
			fn = benchLearnRounds
		}
		// One in-process measurement swings ±30% on a loaded runner;
		// scheduler and GC interference are strictly additive, so the
		// minimum of a few repeats is the noise-robust estimator, and
		// the floors gate ratios of minima.
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			res := testing.Benchmark(func(b *testing.B) { fn(b, workers, rowOnly) })
			if ms := float64(res.NsPerOp()) / 1e6; ms < best {
				best = ms
			}
		}
		return best
	}
	for _, name := range []string{"SelectBatchSteady", "LearnRounds"} {
		for _, w := range []int{1, 4, 8} {
			rowMs := bench(name, w, true)
			idxMs := bench(name, w, false)
			rep.Results = append(rep.Results,
				modelBenchRecord{Benchmark: name, Path: "row", Workers: w, MsPerOp: rowMs, SpeedupVsRow: 1},
				modelBenchRecord{Benchmark: name, Path: "indexed", Workers: w, MsPerOp: idxMs, SpeedupVsRow: rowMs / idxMs})
			if w == 1 {
				switch name {
				case "SelectBatchSteady":
					rep.SelectSerial = rowMs / idxMs
				case "LearnRounds":
					rep.LearnSerial = rowMs / idxMs
					rep.LearnRowSerialMs = rowMs
					rep.LearnIdxSerialMs = idxMs
				}
			}
			t.Logf("%s/workers=%d: row %.2f ms/op, indexed %.2f ms/op (%.2fx)", name, w, rowMs, idxMs, rowMs/idxMs)
		}
	}
	rep.LearnPhases = measureLearnPhases(t)
	rep.MeetsSpeedupFloor = rep.SelectSerial >= 2
	rep.MeetsLearnFloor = rep.LearnSerial >= learnRoundsFloor
	rep.MeetsLearnCeiling = rep.LearnRowSerialMs <= learnRoundsCeilingMs
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if !rep.MeetsSpeedupFloor {
		t.Fatalf("steady-state indexed SelectBatch is %.2fx over the row path at workers=1, want >= 2x", rep.SelectSerial)
	}
	if !rep.MeetsLearnFloor {
		t.Fatalf("indexed LearnRounds is %.2fx over the row path at workers=1, want >= %.2fx (cache maintenance must not slow whole sessions down)", rep.LearnSerial, learnRoundsFloor)
	}
	if !rep.MeetsLearnCeiling {
		t.Fatalf("serial row-path LearnRounds session took %.1f ms, want <= %.1f ms (propagation-path wall-clock ceiling)", rep.LearnRowSerialMs, learnRoundsCeilingMs)
	}
}

// measureLearnPhases runs one serial indexed learning session and
// returns its model-side phase split: the forest's weight/propagate
// wall clock (Forest.PhaseTimes) nested inside the learner's
// score/update split (core.Progress).
func measureLearnPhases(t *testing.T) learnPhaseSplit {
	t.Helper()
	opts := benchModelOptions(1, false)
	var last core.Progress
	opts.Progress = func(p core.Progress) { last = p }
	pool := benchModelPool()
	l, err := newBenchLearner(opts, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Run(nil); err != nil {
		t.Fatal(err)
	}
	weight, propagate := l.Model().(interface {
		PhaseTimes() (weight, propagate time.Duration)
	}).PhaseTimes()
	return learnPhaseSplit{
		WeightMs:    float64(weight) / 1e6,
		PropagateMs: float64(propagate) / 1e6,
		ScoreMs:     last.ScoreSeconds * 1e3,
		UpdateMs:    last.UpdateSeconds * 1e3,
	}
}
