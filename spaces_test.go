package alic

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"alic/internal/space"
)

// syntheticLearnOptions is the robustness suite's budget: small enough
// to stay in tier-1 time, large enough for the acquisition differences
// to show.
func syntheticLearnOptions() LearnOptions {
	o := DefaultLearnOptions()
	o.PoolSize = 500
	o.TestSize = 150
	o.Learner.NInit = 5
	o.Learner.NObs = 6
	o.Learner.NCand = 80
	o.Learner.NMax = 80
	o.Learner.EvalEvery = 20
	o.Learner.Tree.Particles = 80
	o.Learner.Tree.ScoreParticles = 20
	return o
}

// learnWithScorer runs Learn with the named acquisition.
func learnWithScorer(t *testing.T, spaceName, scorer string) *LearnResult {
	t.Helper()
	opts := syntheticLearnOptions()
	acq, err := AcquisitionByName(scorer)
	if err != nil {
		t.Fatal(err)
	}
	opts.Learner.Scorer = acq
	res, err := Learn(context.Background(), mustSpace(t, spaceName), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpaceRegistryFacade pins the facade surface of the registry.
func TestSpaceRegistryFacade(t *testing.T) {
	names := SpaceNames()
	for _, want := range []string{"mm", "synthetic/needle", "exec/cc"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("SpaceNames() missing %q: %v", want, names)
		}
	}
	if _, err := SpaceByName("no/such/space"); !errors.Is(err, ErrUnknownSpace) {
		t.Fatalf("unknown space: err = %v, want ErrUnknownSpace", err)
	}
	ex, err := SpaceByName("exec/cc")
	if err != nil {
		t.Fatal(err)
	}
	if !IsLiveSpace(ex) {
		t.Fatal("exec/cc not live through the facade")
	}
	if _, err := GenerateSpaceDataset(ex, DatasetOptions{NConfigs: 10, NObs: 1, TrainFrac: 0.5, Seed: 1}); !errors.Is(err, ErrLiveSpace) {
		t.Fatalf("live dataset generation: err = %v, want ErrLiveSpace", err)
	}
}

// TestSyntheticLearnerVsRandom is the robustness satellite: on the
// structured synthetic spaces (needle, plateau) active learning must
// model the landscape at least as well as random sampling under the
// same budget, and on the flat space — where there is nothing to
// learn — it must not do worse (the acquisition-pathology regression
// guard). The generous slack keeps this a pathology guard, not a
// performance benchmark.
func TestSyntheticLearnerVsRandom(t *testing.T) {
	for _, spaceName := range []string{
		"synthetic/needle", "synthetic/plateau", "synthetic/flat",
	} {
		t.Run(strings.TrimPrefix(spaceName, "synthetic/"), func(t *testing.T) {
			al := learnWithScorer(t, spaceName, "alc")
			rnd := learnWithScorer(t, spaceName, "random")
			if math.IsNaN(al.FinalError) || math.IsNaN(rnd.FinalError) {
				t.Fatalf("NaN error: alc %v random %v", al.FinalError, rnd.FinalError)
			}
			if al.FinalError > 1.5*rnd.FinalError {
				t.Fatalf("active learning pathologically worse than random on %s: %v vs %v",
					spaceName, al.FinalError, rnd.FinalError)
			}
		})
	}
}

// TestSyntheticNeedleModelSeesTheWell pins that a trained model ranks
// the needle region below the plain: the needle is learnable, not
// lost in the noise.
func TestSyntheticNeedleModelSeesTheWell(t *testing.T) {
	res := learnWithScorer(t, "synthetic/needle", "alc")
	ds := res.Dataset

	// The deepest true configuration in the corpus vs the corpus
	// median prediction: the model must predict the well lower.
	best, bestMu := 0, math.Inf(1)
	for i := range ds.Configs {
		mu, err := ds.TrueMean(i)
		if err != nil {
			t.Fatal(err)
		}
		if mu < bestMu {
			best, bestMu = i, mu
		}
	}
	if bestMu > 0.9 {
		t.Skipf("corpus sample missed the needle (best true mean %v)", bestMu)
	}
	preds := res.Model.PredictMeanFastBatch(ds.Features)
	var mean float64
	for _, p := range preds {
		mean += p
	}
	mean /= float64(len(preds))
	if preds[best] >= mean {
		t.Fatalf("model predicts the needle (%v) at or above the corpus mean (%v)",
			preds[best], mean)
	}
}

// TestLearnLiveSimulated drives the live tuning path against a
// simulated space (the path itself is space-agnostic): the learner
// measures on demand instead of replaying a corpus, and the winner is
// a valid configuration in the sampled pool.
func TestLearnLiveSimulated(t *testing.T) {
	sp, err := SpaceByName("synthetic/needle")
	if err != nil {
		t.Fatal(err)
	}
	opts := syntheticLearnOptions()
	opts.TestSize = 0 // unused on the live path
	opts.Learner.NMax = 40
	res, err := LearnLive(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired == 0 || res.Cost <= 0 {
		t.Fatalf("live run did nothing: %+v", res.LearnerResult)
	}
	if len(res.Configs) != opts.PoolSize {
		t.Fatalf("pool size %d, want %d", len(res.Configs), opts.PoolSize)
	}
	if res.Winner == nil {
		t.Fatal("no winner")
	}
	if err := sp.Check(res.Winner); err != nil {
		t.Fatalf("winner invalid: %v", err)
	}

	// Determinism: the live path over a simulated space is replayable.
	again, err := LearnLive(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cost != res.Cost || again.WinnerPredicted != res.WinnerPredicted {
		t.Fatalf("live run not deterministic: cost %v vs %v", again.Cost, res.Cost)
	}
}

// TestTuneSmallSpaceFailsPromptly pins the distinct-sampling guard on
// every path that draws configurations: asking for more candidates
// than the space holds fails with space.ErrTooManyConfigs at once
// instead of rejection-sampling forever.
func TestTuneSmallSpaceFailsPromptly(t *testing.T) {
	sp, err := SpaceByName("synthetic/needle")
	if err != nil {
		t.Fatal(err)
	}
	opts := syntheticLearnOptions()
	opts.Learner.NMax = 10
	res, err := Learn(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSpaceSession(sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Tune(res.Model, sess, res.Dataset, TunerOptions{
			Candidates: int(sp.Size()) + 1, Verify: 3, VerifyObs: 1, Seed: 1,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, space.ErrTooManyConfigs) {
			t.Fatalf("Tune error = %v, want ErrTooManyConfigs", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Tune still sampling candidates after 10 s")
	}

	big := syntheticLearnOptions()
	big.PoolSize = int(sp.Size())/2 + 1
	if _, err := LearnLive(context.Background(), sp, big); !errors.Is(err, space.ErrTooManyConfigs) {
		t.Fatalf("LearnLive error = %v, want ErrTooManyConfigs", err)
	}
	if _, err := Learn(context.Background(), sp, big); !errors.Is(err, space.ErrTooManyConfigs) {
		t.Fatalf("Learn error = %v, want ErrTooManyConfigs", err)
	}
}
