package alic

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// goldenLearnOptions is the exact configuration the pre-refactor
// golden numbers below were captured with (gemver, dataset seed 1).
func goldenLearnOptions(batch int) LearnOptions {
	opts := DefaultLearnOptions()
	opts.PoolSize = 700
	opts.TestSize = 200
	opts.Learner.NMax = 90
	opts.Learner.NCand = 60
	opts.Learner.Batch = batch
	opts.Learner.EvalEvery = 20
	opts.Learner.Tree.Particles = 150
	opts.Learner.Tree.ScoreParticles = 30
	return opts
}

// TestSyncByteIdenticalToPrePipelineGolden pins the acceptance
// criterion of the evaluator-engine refactor: synchronous mode must
// reproduce the pre-refactor serial loop byte for byte on the
// quickstart kernel/seed — cost chain (including mid-batch curve
// checkpoints), errors, and bookkeeping — at every evaluator worker
// count. The golden strings were recorded by running the pre-refactor
// code at full float precision.
func TestSyncByteIdenticalToPrePipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden replay")
	}
	golden := map[int][]string{
		1: {
			"cost=569.74712937068796 final=0.16345881731452996 acq=90 obs=260 uniq=76 rev=14 preq=0.28245479230507636 stop=budget",
			"curve acq=20 cost=335.87472516765956 err=0.22339541399324295",
			"curve acq=40 cost=400.78548258898104 err=0.15700699537579763",
			"curve acq=60 cost=469.77362604754364 err=0.13563130280164609",
			"curve acq=80 cost=531.73104458658179 err=0.13299537211751972",
			"curve acq=90 cost=569.74712937068796 err=0.16345881731452996",
		},
		3: {
			"cost=557.17665314065471 final=0.17223550580615477 acq=90 obs=260 uniq=73 rev=17 preq=0.29984255717069769 stop=budget",
			"curve acq=20 cost=328.59322642932324 err=0.25554361976711004",
			"curve acq=40 cost=395.66914067335642 err=0.25186090505236858",
			"curve acq=60 cost=463.94808199046855 err=0.19174136870446992",
			"curve acq=80 cost=535.98649808827724 err=0.17865535160884197",
			"curve acq=90 cost=557.17665314065471 err=0.17223550580615477",
		},
	}
	sp := mustSpace(t, "gemver")
	for batch, want := range golden {
		for _, evalWorkers := range []int{1, 4} {
			opts := goldenLearnOptions(batch)
			opts.Learner.EvalWorkers = evalWorkers
			res, err := Learn(context.Background(), sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := []string{fmt.Sprintf(
				"cost=%.17g final=%.17g acq=%d obs=%d uniq=%d rev=%d preq=%.17g stop=%v",
				res.Cost, res.FinalError, res.Acquired, res.Observations,
				res.Unique, res.Revisits, res.PrequentialError, res.StoppedBy)}
			for _, p := range res.Curve {
				got = append(got, fmt.Sprintf("curve acq=%d cost=%.17g err=%.17g", p.Acquired, p.Cost, p.Error))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch=%d evalWorkers=%d diverged from the pre-refactor golden:\ngot  %v\nwant %v",
					batch, evalWorkers, got, want)
			}
		}
	}
}

// TestTunerByteIdenticalToPrePipelineGolden pins the tuner half of
// the refactor on a fresh session: the evaluator-pool verification
// reproduces the pre-refactor winner, measurements, baseline and
// verification cost exactly.
func TestTunerByteIdenticalToPrePipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden replay")
	}
	sp := mustSpace(t, "gemver")
	opts := goldenLearnOptions(1)
	opts.Learner.EvalEvery = 0
	res, err := Learn(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSpaceSession(sp, 100)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := Tune(res.Model, sess, res.Dataset, TunerOptions{
		Candidates: 1000, Verify: 8, VerifyObs: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("best=%v measured=%.17g baseline=%.17g verifycost=%.17g",
		tres.Best.Config, tres.Best.Measured, tres.Baseline, tres.VerifyCost)
	want := "best=[15 6 16 3 16 6 3 18 7 4 2] measured=1.1158636041006522 " +
		"baseline=1.9067693150852072 verifycost=55.091979105070301"
	if got != want {
		t.Fatalf("tuner diverged from the pre-refactor golden:\ngot  %s\nwant %s", got, want)
	}
}
