// Custom acquisition: the learner's Acquisition interface accepts
// user-defined heuristics without forking the core loop. This example
// registers an epsilon-greedy acquisition — with probability epsilon
// explore like ALM (highest predictive variance), otherwise exploit
// the model by acquiring the candidate predicted fastest — and drives
// the step-wise engine one acquisition round at a time, comparing the
// result against the built-in ALC heuristic on the same dataset.
//
//	go run ./examples/custom-acquisition
//	go run ./examples/custom-acquisition -kernel atax -epsilon 0.5
package main

import (
	"flag"
	"fmt"
	"log"

	"alic"
)

// epsilonGreedy is the custom heuristic. It is stateless; epsilon is
// configuration (read through the flag pointer at selection time, so
// the heuristic registers at init — before any name lookup — yet
// still honours -epsilon), and all randomness comes from the
// learner's stream so runs stay reproducible.
type epsilonGreedy struct {
	epsilon *float64
}

var epsilon = flag.Float64("epsilon", 0.25, "exploration probability")

// Registration happens at init time with a constant name: the
// registry contract (enforced by cmd/alic-lint's registry pass) is
// that every name is registered before main can look anything up.
func init() {
	alic.RegisterAcquisition(epsilonGreedy{epsilon: epsilon})
}

func (epsilonGreedy) Name() string { return "epsilon-greedy" }

func (e epsilonGreedy) Select(m alic.Model, feats [][]float64, batch int, r alic.Rand) ([]int, error) {
	if r.Float64() < *e.epsilon {
		// Explore: MacKay's maximum-variance pick.
		return alic.PickBest(m.ALMBatch(feats), batch, false), nil
	}
	// Exploit: acquire what the model believes is fastest.
	return alic.PickBest(m.PredictMeanFastBatch(feats), batch, true), nil
}

func main() {
	kernel := flag.String("kernel", "mvt", "kernel to learn")
	nmax := flag.Int("nmax", 150, "acquisition budget")
	flag.Parse()

	sp, err := alic.SpaceByName(*kernel)
	if err != nil {
		log.Fatal(err)
	}
	opts := alic.DefaultLearnOptions()
	opts.PoolSize = 800
	opts.TestSize = 200
	opts.Learner.NMax = *nmax
	opts.Learner.NCand = 80
	opts.Learner.EvalEvery = 25
	opts.Learner.Tree.Particles = 200
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

	run := func(name string) *alic.LearnerResult {
		lopts := opts.Learner
		lopts.Scorer, err = alic.AcquisitionByName(name)
		if err != nil {
			log.Fatal(err)
		}
		l, err := alic.NewLearner(ds, lopts)
		if err != nil {
			log.Fatal(err)
		}
		// Drive the engine by hand — one acquisition round per Step —
		// the execution shape a tuning service embeds.
		steps := 0
		for {
			more, err := l.Step()
			if err != nil {
				log.Fatal(err)
			}
			steps++
			if !more {
				break
			}
		}
		res := l.Result()
		fmt.Printf("%-15s %4d steps  RMSE %.4f s  cost %7.0f s  (%d runs, %d revisits, stopped by %s)\n",
			name, steps, res.FinalError, res.Cost, res.Observations, res.Revisits, res.StoppedBy)
		return res
	}

	fmt.Printf("%s: custom epsilon-greedy (eps=%.2f) vs built-in ALC, %d acquisitions\n\n",
		sp.Name(), *epsilon, *nmax)
	run("epsilon-greedy")
	run("alc")
	fmt.Println("\n(epsilon-greedy concentrates observations on promising configurations;")
	fmt.Println(" ALC spreads them to minimise global model variance — compare the RMSE.)")
}
