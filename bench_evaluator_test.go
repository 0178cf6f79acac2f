package alic

import (
	"fmt"
	"testing"
	"time"
)

// The evaluator benchmarks run the learner in the measurement-bound
// regime the engine is built for: EvalLatency stands in for a real
// compile+run cycle (the simulator itself measures in microseconds),
// the model is kept small so profiling dominates, and the dataset is
// pre-generated outside the timer. BenchmarkLearnSync at workers=1 is
// the historical serial loop; more workers measure each round's batch
// in parallel.

// benchEvalLatency keeps measurement well ahead of model work, so the
// 8-worker speedup TestEvalWorkersSpeedup asserts still holds under
// the race detector on a 2-CPU machine.
const benchEvalLatency = 5 * time.Millisecond

func benchPipelineOptions(workers int) LearnOptions {
	opts := DefaultLearnOptions()
	opts.PoolSize = 400
	opts.TestSize = 100
	opts.Learner.NInit = 5
	opts.Learner.NObs = 10
	opts.Learner.NCand = 40
	opts.Learner.NMax = 60
	opts.Learner.Batch = 8
	opts.Learner.EvalEvery = 0
	opts.Learner.Tree.Particles = 60
	opts.Learner.Tree.ScoreParticles = 15
	opts.Learner.EvalWorkers = workers
	opts.Learner.EvalLatency = benchEvalLatency
	return opts
}

func benchPipelineDataset(tb testing.TB, opts LearnOptions) *Dataset {
	tb.Helper()
	ds, err := GenerateSpaceDataset(mustSpace(tb, "gemver"), DatasetOptions{
		NConfigs:   opts.PoolSize + opts.TestSize,
		NObs:       opts.Learner.NObs,
		TrainCount: opts.PoolSize,
		Seed:       opts.DatasetSeed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func benchLearnPipeline(b *testing.B, workers int) {
	opts := benchPipelineOptions(workers)
	ds := benchPipelineDataset(b, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runToEnd(b, ds, opts.Learner)
		if res.Acquired != opts.Learner.NMax {
			b.Fatalf("acquired %d", res.Acquired)
		}
	}
}

// BenchmarkLearnSync measures the batched learner, which is
// bit-identical to the pre-engine serial loop at every worker count.
func BenchmarkLearnSync(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchLearnPipeline(b, w)
		})
	}
}

// TestEvalWorkersSpeedup shows that EvalWorkers runs measurements in
// parallel: on the measurement-bound run above, 8 evaluation workers
// must finish at least 2x faster than one. Each side is the best of 3
// timed runs on the same pre-generated dataset; timing the runs
// directly, rather than through testing.Benchmark, keeps the plain
// test run short.
func TestEvalWorkersSpeedup(t *testing.T) {
	ds := benchPipelineDataset(t, benchPipelineOptions(1))
	best := func(workers int) time.Duration {
		opts := benchPipelineOptions(workers)
		var fastest time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			res := runToEnd(t, ds, opts.Learner)
			elapsed := time.Since(start)
			if res.Acquired != opts.Learner.NMax {
				t.Fatalf("acquired %d, want %d", res.Acquired, opts.Learner.NMax)
			}
			if i == 0 || elapsed < fastest {
				fastest = elapsed
			}
		}
		return fastest
	}
	serial, parallel := best(1), best(8)
	speedup := float64(serial) / float64(parallel)
	t.Logf("eval workers 1: %v, 8: %v (%.2fx)", serial, parallel, speedup)
	if speedup < 2 {
		t.Fatalf("8 evaluation workers are %.2fx over serial, want >= 2x on a measurement-bound run", speedup)
	}
}
