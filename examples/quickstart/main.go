// Quickstart: learn a runtime model for one SPAPT kernel with the
// paper's variable-observation active learner, inspect the learning
// curve, and use the model to find a fast configuration.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"alic"
)

func main() {
	// gemver's optimization space contains configurations about 2x
	// faster than -O2, so it makes a satisfying tuning target.
	sp, err := alic.SpaceByName("gemver")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel %s: %s\n", sp.Name(), sp.Doc())
	fmt.Printf("search space: %.3g configurations, %d tunable parameters\n\n",
		sp.Size(), sp.Dim())

	// Learn with the paper's plan (Algorithm 1) at a small budget.
	opts := alic.DefaultLearnOptions()
	opts.PoolSize = 1500
	opts.TestSize = 400
	opts.Learner.NMax = 300
	opts.Learner.NCand = 120
	opts.Learner.Tree.Particles = 300
	opts.Learner.Tree.ScoreParticles = 50

	fmt.Println("learning (variable-observation plan, ALC scoring)...")
	res, err := alic.Learn(context.Background(), sp, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  acquisitions: %d (%d profiling runs, %d unique configs, %d revisits)\n",
		res.Acquired, res.Observations, res.Unique, res.Revisits)
	fmt.Printf("  training cost: %.0f simulated seconds\n", res.Cost)
	fmt.Printf("  test RMSE: %.4f s\n\n", res.FinalError)

	fmt.Println("learning curve (cost -> RMSE):")
	step := len(res.Curve) / 6
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(res.Curve); i += step {
		p := res.Curve[i]
		fmt.Printf("  %8.0f s  ->  %.4f s\n", p.Cost, p.Error)
	}

	// Model-driven search: rank thousands of configurations with the
	// model, profile only the most promising.
	sess, err := alic.NewSpaceSession(sp, 99)
	if err != nil {
		log.Fatal(err)
	}
	tres, err := alic.Tune(res.Model, sess, res.Dataset, alic.TunerOptions{
		Candidates: 6000, Verify: 12, VerifyObs: 3, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntuning: verified %d of 6000 ranked configurations (%.1f s profiling)\n",
		len(tres.Top), tres.VerifyCost)
	fmt.Printf("  -O2 baseline: %.4f s\n", tres.Baseline)
	fmt.Printf("  best found:   %.4f s (%.2fx speedup)\n", tres.Best.Measured, tres.Speedup)
	fmt.Printf("  configuration: %v\n", tres.Best.Config)
}
