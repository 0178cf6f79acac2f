// Benchmark harness: one testing.B benchmark per table and figure of
// the paper (see DESIGN.md §4 for the experiment index) plus the
// ablation benchmarks of DESIGN.md §5.
//
// The table/figure benchmarks run micro-scaled versions of the full
// experiments so `go test -bench=.` terminates in minutes; they report
// the headline quantity of each artefact (speed-up, error, run counts)
// via b.ReportMetric. cmd/repro regenerates the full artefacts.
package alic

import (
	"context"
	"fmt"
	"testing"

	"alic/internal/core"
	"alic/internal/dynatree"
	"alic/internal/evaluator"
	"alic/internal/experiment"
	"alic/internal/rng"
)

// benchSettings is the micro scale used by the benchmarks.
func benchSettings() experiment.Settings {
	return experiment.Settings{
		NInit: 5, NObs: 35, NCand: 60, NMax: 120,
		Particles: 120, ScoreParticles: 30,
		Reps:        1,
		PoolConfigs: 500, TestConfigs: 150,
		EvalEvery: 15,
		Seed:      1,
	}
}

// BenchmarkTable1 regenerates one Table 1 row per sub-benchmark:
// lowest common RMSE between the fixed-35 baseline and the variable
// plan, and the speed-up of the latter.
func BenchmarkTable1(b *testing.B) {
	for _, name := range KernelNames() {
		b.Run(name, func(b *testing.B) {
			spaces := []Space{mustSpace(b, name)}
			var speedup float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.Table1(spaces, benchSettings(), nil)
				if err != nil {
					b.Fatal(err)
				}
				speedup = res.Rows[0].Speedup
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkTable2 regenerates the noise-characterisation table for the
// full suite and reports the widest variance spread observed.
func BenchmarkTable2(b *testing.B) {
	s := benchSettings()
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table2(nil, s, nil)
		if err != nil {
			b.Fatal(err)
		}
		spread = 0
		for _, row := range res.Rows {
			if row.Variance.Max > spread {
				spread = row.Variance.Max
			}
		}
	}
	b.ReportMetric(spread, "max-variance")
}

// BenchmarkFigure1 regenerates the mm unroll-plane sampling study and
// reports the fraction of runs the per-point optimal plan needs
// relative to the fixed 35-observation plan (paper: ~48%).
func BenchmarkFigure1(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure1(30, 35, 1e-4, 1)
		if err != nil {
			b.Fatal(err)
		}
		frac = float64(res.AdaptiveRuns) / float64(res.FixedRuns)
	}
	b.ReportMetric(frac, "run-fraction")
}

// BenchmarkFigure2 regenerates the adi unroll sweep and reports the
// relative climb between the low and high plateaus.
func BenchmarkFigure2(b *testing.B) {
	var climb float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure2(30, 1)
		if err != nil {
			b.Fatal(err)
		}
		climb = res.TrueMean[len(res.TrueMean)-1] / res.TrueMean[0]
	}
	b.ReportMetric(climb, "plateau-ratio")
}

// BenchmarkFigure5 regenerates the speed-up bar chart data (a Table 1
// sweep over a representative kernel subset) and reports the geometric
// mean.
func BenchmarkFigure5(b *testing.B) {
	var spaces []Space
	for _, name := range []string{"atax", "lu", "gemver"} {
		spaces = append(spaces, mustSpace(b, name))
	}
	var geo float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table1(spaces, benchSettings(), nil)
		if err != nil {
			b.Fatal(err)
		}
		geo = res.GeoMeanSpeedup
	}
	b.ReportMetric(geo, "geomean-speedup")
}

// BenchmarkFigure6 regenerates the three-plan learning curves for each
// of the paper's six plotted kernels and reports the final RMSE of the
// variable plan.
func BenchmarkFigure6(b *testing.B) {
	for _, name := range experiment.Figure6Kernels() {
		b.Run(name, func(b *testing.B) {
			spaces := []Space{mustSpace(b, name)}
			var rmse float64
			for i := 0; i < b.N; i++ {
				out, err := experiment.Figure6(spaces, benchSettings(), nil)
				if err != nil {
					b.Fatal(err)
				}
				c := out[0].Curves[experiment.VariableObservations]
				rmse = c.Error[len(c.Error)-1]
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// learnOnce runs one learning session on jacobi with the given options
// tweak and returns the final error.
func learnOnce(b *testing.B, mutate func(*LearnOptions)) float64 {
	b.Helper()
	opts := DefaultLearnOptions()
	opts.PoolSize = 500
	opts.TestSize = 150
	opts.Learner.NMax = 120
	opts.Learner.NCand = 60
	opts.Learner.EvalEvery = 0
	opts.Learner.Tree.Particles = 120
	opts.Learner.Tree.ScoreParticles = 30
	mutate(&opts)
	res, err := Learn(context.Background(), mustSpace(b, "jacobi"), opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.FinalError
}

// BenchmarkAblationScorer compares the ALC and ALM acquisition
// heuristics and passive random selection (§3.3).
func BenchmarkAblationScorer(b *testing.B) {
	for _, sc := range []struct {
		name   string
		scorer core.Acquisition
	}{{"alc", ALC}, {"alm", ALM}, {"random", RandomScore}} {
		b.Run(sc.name, func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				rmse = learnOnce(b, func(o *LearnOptions) { o.Learner.Scorer = sc.scorer })
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationParticles sweeps the particle-cloud size (the paper
// uses 5,000; quality saturates far earlier on these spaces).
func BenchmarkAblationParticles(b *testing.B) {
	for _, n := range []int{50, 120, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				rmse = learnOnce(b, func(o *LearnOptions) {
					o.Learner.Tree.Particles = n
					o.Learner.Tree.ScoreParticles = max(15, n/4)
				})
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationRevisitCap sweeps nobs, the per-configuration
// observation cap of the sequential-analysis plan.
func BenchmarkAblationRevisitCap(b *testing.B) {
	for _, cap := range []int{5, 15, 35} {
		b.Run(fmt.Sprintf("nobs=%d", cap), func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				rmse = learnOnce(b, func(o *LearnOptions) { o.Learner.NObs = cap })
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationCandidates sweeps nc, the fresh-candidate count per
// iteration (the paper uses 500).
func BenchmarkAblationCandidates(b *testing.B) {
	for _, nc := range []int{30, 120, 300} {
		b.Run(fmt.Sprintf("nc=%d", nc), func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				rmse = learnOnce(b, func(o *LearnOptions) { o.Learner.NCand = nc })
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationBatch sweeps the batch-acquisition width (§3.1's
// parallel extension).
func BenchmarkAblationBatch(b *testing.B) {
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				rmse = learnOnce(b, func(o *LearnOptions) { o.Learner.Batch = width })
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationTunerSearch reports the speedup over -O2 that
// model-driven configuration search (§4.1) finds on gemver: a model
// learned from 150 acquisitions ranks 3000 random configurations and
// the top 10 are verified.
func BenchmarkAblationTunerSearch(b *testing.B) {
	b.Run("model-driven", func(b *testing.B) {
		var speedup float64
		for i := 0; i < b.N; i++ {
			sp := mustSpace(b, "gemver")
			opts := DefaultLearnOptions()
			opts.PoolSize = 600
			opts.TestSize = 150
			opts.Learner.NMax = 150
			opts.Learner.NCand = 60
			opts.Learner.EvalEvery = 0
			opts.Learner.Tree.Particles = 150
			opts.Learner.Tree.ScoreParticles = 30
			res, err := Learn(context.Background(), sp, opts)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := NewSpaceSession(sp, 77)
			if err != nil {
				b.Fatal(err)
			}
			tres, err := Tune(res.Model, sess, res.Dataset, TunerOptions{
				Candidates: 3000, Verify: 10, VerifyObs: 2, Seed: 9,
			})
			if err != nil {
				b.Fatal(err)
			}
			speedup = tres.Speedup
		}
		b.ReportMetric(speedup, "speedup")
	})
}

// BenchmarkAblationTreePrior sweeps the CGM split-prior parameters
// (alpha, beta) that control how eagerly the dynamic trees partition
// the space.
func BenchmarkAblationTreePrior(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		alpha, beta float64
	}{
		{"shallow-a0.5-b2", 0.5, 2},
		{"default-a0.95-b2", 0.95, 2},
		{"deep-a0.95-b1", 0.95, 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				rmse = learnOnce(b, func(o *LearnOptions) {
					o.Learner.Tree.Alpha = cfg.alpha
					o.Learner.Tree.Beta = cfg.beta
				})
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationStopError measures the cost saved by the
// prequential stopping rule (§3.1's model-error completion criterion)
// against a fixed acquisition budget on an easy kernel.
func BenchmarkAblationStopError(b *testing.B) {
	for _, cfg := range []struct {
		name string
		stop float64
	}{{"budget-only", 0}, {"stop-at-rmse-0.08", 0.08}} {
		b.Run(cfg.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				opts := DefaultLearnOptions()
				opts.PoolSize = 500
				opts.TestSize = 150
				opts.Learner.NMax = 200
				opts.Learner.NCand = 60
				opts.Learner.EvalEvery = 0
				opts.Learner.Tree.Particles = 120
				opts.Learner.Tree.ScoreParticles = 30
				opts.Learner.StopError = cfg.stop
				opts.Learner.StopWindow = 30
				res, err := Learn(context.Background(), mustSpace(b, "jacobi"), opts)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost-s")
		})
	}
}

// BenchmarkAblationLeafModel compares constant and linear dynamic-tree
// leaves (the two models of the R dynaTree package) on the learning
// task.
func BenchmarkAblationLeafModel(b *testing.B) {
	for _, lm := range []struct {
		name  string
		model dynatree.LeafModel
	}{{"constant", dynatree.ConstantLeaf}, {"linear", dynatree.LinearLeaf}} {
		b.Run(lm.name, func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				rmse = learnOnce(b, func(o *LearnOptions) {
					o.Learner.Tree.LeafModel = lm.model
					o.Learner.Tree.Particles = 60
					o.Learner.Tree.ScoreParticles = 20
				})
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// --- Candidate scoring (the acquisition hot path) ------------------------

// benchForest trains a forest sized like a mid-run learner model.
func benchForest(b *testing.B) (*dynatree.Forest, [][]float64) {
	b.Helper()
	cfg := dynatree.DefaultConfig()
	cfg.Particles = 300
	cfg.ScoreParticles = 100
	f, err := dynatree.New(cfg, 4, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(11)
	xs := make([][]float64, 900)
	for i := range xs {
		x := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		xs[i] = x
		if i < 300 {
			f.Update(x, x[0]+2*x[1]*x[2]+x[3]*x[3]+r.NormMS(0, 0.05))
		}
	}
	return f, xs
}

// BenchmarkALCScores measures the dominant per-iteration cost of the
// learner: ALC over the whole candidate set, refs = cands.
func BenchmarkALCScores(b *testing.B) {
	f, xs := benchForest(b)
	cands := xs[300:800]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ALCScores(cands, cands)
	}
}

// BenchmarkALMBatch measures batched ALM scoring.
func BenchmarkALMBatch(b *testing.B) {
	f, xs := benchForest(b)
	cands := xs[300:800]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ALMBatch(cands)
	}
}

// BenchmarkSelectBatch measures one full acquisition-selection step of
// the learner: candidate assembly plus ALC scoring.
func BenchmarkSelectBatch(b *testing.B) {
	r := rng.New(3)
	pool := make(core.SlicePool, 2000)
	for i := range pool {
		pool[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	opts := core.DefaultOptions()
	opts.NInit = 5
	opts.NMax = 5 // seed the model, then stop
	opts.NCand = 500
	opts.Tree.Particles = 300
	opts.Tree.ScoreParticles = 100
	l, err := newBenchLearner(opts, pool)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Run(nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.SelectBatch(1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSource is a deterministic synthetic source for selection
// benchmarks: pure in (item, ordinal), with noise drawn from a stream
// keyed by the item and the ordinal and no compile cost.
type benchSource struct {
	pool core.SlicePool
}

func (s benchSource) Measure(i, ord int) (evaluator.Sample, error) {
	x := s.pool[i]
	r := rng.NewStream(4^uint64(i)*0x9e3779b97f4a7c15, uint64(ord)+1)
	y := x[0] + 2*x[1]*x[2] + x[3]*x[3] + r.NormMS(0, 0.05)
	if y < 0.001 {
		y = 0.001
	}
	return evaluator.Sample{Value: y}, nil
}

// newBenchLearner builds a learner over benchSource, measured serially.
func newBenchLearner(opts core.Options, pool core.SlicePool) (*core.Learner, error) {
	opts.EvalWorkers = 1
	return core.New(opts, pool, benchSource{pool: pool}, nil)
}
