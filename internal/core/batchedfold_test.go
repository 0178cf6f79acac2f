package core

import (
	"context"
	"fmt"
	"testing"

	"alic/internal/model"
)

// serialFoldBuilder wraps a backend builder so the built model hides
// model.RoundUpdater (while keeping PoolBinder when present), forcing
// the learner down the historical per-acquisition fold loop — the
// reference the batched round path must match bit for bit.
type serialFoldBuilder struct{ inner model.Builder }

func (b serialFoldBuilder) Name() string { return b.inner.Name() }

func (b serialFoldBuilder) New(p model.Params) (model.Model, error) {
	m, err := b.inner.New(p)
	if err != nil {
		return nil, err
	}
	if pb, ok := m.(model.PoolBinder); ok {
		return struct {
			model.Model
			model.PoolBinder
		}{m, pb}, nil
	}
	return struct{ model.Model }{m}, nil
}

// TestBatchedFoldMatchesSerialLoop pins the tentpole's core-side
// contract: with curve recording off, a run folding whole rounds
// through UpdateRound — prequential predictions fused into the
// backend's update pass — is bit-identical to the per-acquisition
// fold loop in every observable: cost ledger, bookkeeping tallies,
// prequential RMSE, observation counts and final model predictions.
func TestBatchedFoldMatchesSerialLoop(t *testing.T) {
	run := func(serial bool, batch int) (*Result, map[int]int, string) {
		o := smallOpts()
		o.EvalEvery = 0
		o.Batch = batch
		o.NMax = 80
		o.Seed = 7
		if serial {
			o.Model = serialFoldBuilder{inner: model.DynatreeBuilder{Config: o.Tree}}
		}
		pool := gridPool(400)
		src := newFuncSource(pool, stepFn, constSigma(0.2), 0.5, 99)
		l, err := New(o, pool, newEngine(src, o), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fp := ""
		for _, x := range gridPool(37) {
			fp += fmt.Sprintf("%.17g;", res.Model.PredictMeanFast(x))
		}
		return res, l.ObservationCounts(), fp
	}
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			br, bc, bf := run(false, batch)
			sr, sc, sf := run(true, batch)
			if got, want := fmt.Sprintf("%.17g", br.Cost), fmt.Sprintf("%.17g", sr.Cost); got != want {
				t.Errorf("cost %s != serial %s", got, want)
			}
			if br.Acquired != sr.Acquired || br.Observations != sr.Observations ||
				br.Unique != sr.Unique || br.Revisits != sr.Revisits {
				t.Errorf("bookkeeping (%d,%d,%d,%d) != serial (%d,%d,%d,%d)",
					br.Acquired, br.Observations, br.Unique, br.Revisits,
					sr.Acquired, sr.Observations, sr.Unique, sr.Revisits)
			}
			if got, want := fmt.Sprintf("%.17g", br.PrequentialError), fmt.Sprintf("%.17g", sr.PrequentialError); got != want {
				t.Errorf("prequential %s != serial %s", got, want)
			}
			if bf != sf {
				t.Errorf("final model predictions diverged:\n%s\nvs\n%s", bf, sf)
			}
			if len(bc) != len(sc) {
				t.Fatalf("observation-count sizes %d != %d", len(bc), len(sc))
			}
			for k, v := range sc {
				if bc[k] != v {
					t.Errorf("obsCount[%d] = %d != serial %d", k, bc[k], v)
				}
			}
		})
	}
}

// TestProgressPhaseSplit pins the Progress phase accounting: after a
// run both the scoring and the update phase have accumulated wall
// clock, and neither ever decreases across callbacks.
func TestProgressPhaseSplit(t *testing.T) {
	o := smallOpts()
	o.EvalEvery = 0
	o.NMax = 30
	lastScore, lastUpdate := 0.0, 0.0
	o.Progress = func(p Progress) {
		if p.ScoreSeconds < lastScore || p.UpdateSeconds < lastUpdate {
			t.Errorf("phase split went backwards: (%v,%v) after (%v,%v)",
				p.ScoreSeconds, p.UpdateSeconds, lastScore, lastUpdate)
		}
		lastScore, lastUpdate = p.ScoreSeconds, p.UpdateSeconds
	}
	pool := gridPool(300)
	src := newFuncSource(pool, stepFn, constSigma(0.1), 0.5, 3)
	l, err := New(o, pool, newEngine(src, o), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lastScore <= 0 || lastUpdate <= 0 {
		t.Fatalf("phase split not populated: score=%v update=%v", lastScore, lastUpdate)
	}
}
