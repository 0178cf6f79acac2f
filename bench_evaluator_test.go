package alic

import (
	"encoding/json"
	"fmt"
	"os"
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

const benchEvalLatency = 2 * time.Millisecond

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
	k, err := KernelByName("gemver")
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := GenerateDataset(k, DatasetOptions{
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
		res, err := RunOnDataset(ds, opts.Learner)
		if err != nil {
			b.Fatal(err)
		}
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

// benchRecord is one row of BENCH_evaluator.json.
type benchRecord struct {
	Benchmark       string  `json:"benchmark"`
	EvalWorkers     int     `json:"eval_workers"`
	MsPerOp         float64 `json:"ms_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

type benchReport struct {
	Name              string        `json:"name"`
	Kernel            string        `json:"kernel"`
	EvalLatencyMs     float64       `json:"eval_latency_ms"`
	Acquisitions      int           `json:"acquisitions"`
	BatchWidth        int           `json:"batch_width"`
	Results           []benchRecord `json:"results"`
	Sync8VsSerial     float64       `json:"sync8_speedup_vs_serial"`
	MeetsSpeedupFloor bool          `json:"meets_2x_speedup_floor"`
}

// TestRecordEvaluatorBenchmark regenerates BENCH_evaluator.json — the
// measurement-bound trajectory at 1/4/8 evaluation workers — and
// enforces the ≥2x wall-clock floor at 8 workers over the serial
// loop. It only runs when ALIC_RECORD_BENCH
// is set (CI's benchmark job, or locally:
//
//	ALIC_RECORD_BENCH=BENCH_evaluator.json go test -run TestRecordEvaluatorBenchmark .
func TestRecordEvaluatorBenchmark(t *testing.T) {
	out := os.Getenv("ALIC_RECORD_BENCH")
	if out == "" {
		t.Skip("set ALIC_RECORD_BENCH=<path> to record the evaluator benchmark")
	}
	opts := benchPipelineOptions(1)
	rep := benchReport{
		Name:          "evaluator-pipeline",
		Kernel:        "gemver",
		EvalLatencyMs: float64(benchEvalLatency) / float64(time.Millisecond),
		Acquisitions:  opts.Learner.NMax,
		BatchWidth:    opts.Learner.Batch,
	}
	var serial float64
	for _, workers := range []int{1, 4, 8} {
		res := testing.Benchmark(func(b *testing.B) {
			benchLearnPipeline(b, workers)
		})
		ms := float64(res.NsPerOp()) / 1e6
		if workers == 1 {
			serial = ms
		}
		rec := benchRecord{
			Benchmark:       "LearnSync",
			EvalWorkers:     workers,
			MsPerOp:         ms,
			SpeedupVsSerial: serial / ms,
		}
		rep.Results = append(rep.Results, rec)
		if workers == 8 {
			rep.Sync8VsSerial = rec.SpeedupVsSerial
		}
		t.Logf("LearnSync/workers=%d: %.1f ms/op (%.2fx vs serial)", workers, ms, rec.SpeedupVsSerial)
	}
	rep.MeetsSpeedupFloor = rep.Sync8VsSerial >= 2
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if !rep.MeetsSpeedupFloor {
		t.Fatalf("8 evaluation workers are %.2fx over serial, want >= 2x on a measurement-bound run", rep.Sync8VsSerial)
	}
}
