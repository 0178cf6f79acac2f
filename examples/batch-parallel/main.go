// Batch-parallel evaluation: §3.1 of the paper notes that Algorithm 1
// "is easily parallelized by selecting multiple training examples per
// loop iteration instead of just one", and in a real deployment the
// compile+run measurements — not the model math — are the wall-clock
// bottleneck. This example drives the evaluator engine through that
// regime: a per-measurement latency (-latency) stands in for a real
// compile+run cycle, and each batch measures on -eval-workers
// concurrent workers.
//
// Measured wall-clock is real; the "cost" column is the paper's §4.3
// simulated profiling seconds. The serial row at batch=1 reproduces
// the classic loop; the other rows show how the same budget scales
// with cores. Rows of the same batch width are bit-identical at every
// worker count.
//
//	go run ./examples/batch-parallel
//	go run ./examples/batch-parallel -kernel atax -batch 16 -eval-workers 16
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"alic"
	"alic/internal/report"
)

func main() {
	kernel := flag.String("kernel", "bicgkernel", "kernel to tune")
	nmax := flag.Int("nmax", 120, "acquisition budget")
	batch := flag.Int("batch", 8, "acquisitions per round")
	workers := flag.Int("eval-workers", 8, "concurrent measurements for the parallel rows")
	latency := flag.Duration("latency", 2*time.Millisecond, "simulated per-measurement profiling latency")
	flag.Parse()

	sp, err := alic.SpaceByName(*kernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batched evaluation on %s: %d acquisitions, %v per measurement\n\n",
		sp.Name(), *nmax, *latency)

	type mode struct {
		name    string
		batch   int
		workers int
	}
	modes := []mode{
		{"serial", 1, 1},
		{fmt.Sprintf("batch=%d w=1", *batch), *batch, 1},
		{fmt.Sprintf("batch=%d w=%d", *batch, *workers), *batch, *workers},
	}

	// Generate the corpus once, outside the timers, so the wall-clock
	// columns measure only the learning pipeline.
	opts := alic.DefaultLearnOptions()
	opts.PoolSize = 900
	opts.TestSize = 250
	opts.Learner.NMax = *nmax
	opts.Learner.NCand = 80
	opts.Learner.EvalLatency = *latency
	opts.Learner.Tree.Particles = 250
	opts.Learner.Tree.ScoreParticles = 40
	ds, err := alic.GenerateSpaceDataset(sp, alic.DatasetOptions{
		NConfigs:   opts.PoolSize + opts.TestSize,
		NObs:       opts.Learner.NObs,
		TrainCount: opts.PoolSize,
		Seed:       opts.DatasetSeed,
	})
	if err != nil {
		log.Fatal(err)
	}

	tab := report.NewTable("batched evaluation comparison",
		"mode", "wall clock", "speedup", "final RMSE (s)", "sim cost (s)", "unique", "revisits")
	var serialWall time.Duration
	for _, m := range modes {
		lopts := opts.Learner
		lopts.Batch = m.batch
		lopts.EvalWorkers = m.workers

		start := time.Now()
		l, err := alic.NewLearner(ds, lopts)
		if err != nil {
			log.Fatal(err)
		}
		res, err := l.Run(context.Background())
		l.Close()
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)
		if serialWall == 0 {
			serialWall = wall
		}
		tab.AddRow(m.name, wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(serialWall)/float64(wall)),
			res.FinalError, res.Cost, res.Unique, res.Revisits)
		fmt.Printf("%-22s done in %v (RMSE %.4f)\n", m.name, wall.Round(time.Millisecond), res.FinalError)
	}
	fmt.Println()
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrows of the same batch width select identical configurations at every worker count.")
}
