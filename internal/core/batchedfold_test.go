package core

import (
	"context"
	"fmt"
	"testing"

	"alic/internal/model"
)

// serialFoldBuilder wraps a backend builder so the built model hides
// model.RoundUpdater (while keeping PoolBinder when present), forcing
// model.UpdateRound down its generic predict-then-Update loop — the
// reference the backend's batched round path must match bit for bit.
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

// TestBatchedFoldMatchesSerialLoop pins the fold path's backend
// contract: a run folding rounds through the backend's UpdateRound —
// prequential predictions fused into its update pass — is
// bit-identical to the generic per-observation loop in every
// observable: cost ledger, bookkeeping tallies, prequential RMSE,
// observation counts, final model predictions and, with curve
// recording on, every curve point. The curve cases put points inside
// rounds (EvalEvery=3 with Batch=4, NMax not a multiple of the batch),
// inside the seed round (NInit=4), and on a seed-only run
// (NMax == NInit), so the round is folded in chunks.
func TestBatchedFoldMatchesSerialLoop(t *testing.T) {
	type setup struct{ batch, nmax, evalEvery int }
	run := func(serial bool, s setup) (*Result, map[int]int, string) {
		o := smallOpts()
		o.EvalEvery = s.evalEvery
		o.Batch = s.batch
		o.NMax = s.nmax
		o.Seed = 7
		if serial {
			o.Model = serialFoldBuilder{inner: model.DynatreeBuilder{Config: o.Tree}}
		}
		pool := gridPool(400)
		src := newFuncSource(pool, stepFn, constSigma(0.2), 0.5, 99)
		var eval ModelEvaluator
		if s.evalEvery > 0 {
			eval = testEval(stepFn)
		}
		l, err := New(o, pool, src, eval)
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
	for _, c := range []struct {
		name string
		setup
	}{
		{"batch=1", setup{batch: 1, nmax: 80}},
		{"batch=4", setup{batch: 4, nmax: 80}},
		{"curve/batch=4", setup{batch: 4, nmax: 42, evalEvery: 3}},
		{"curve/nmax=ninit", setup{batch: 4, nmax: smallOpts().NInit, evalEvery: 3}},
	} {
		s := c.setup
		t.Run(c.name, func(t *testing.T) {
			br, bc, bf := run(false, s)
			sr, sc, sf := run(true, s)
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
			if s.evalEvery == 0 {
				return
			}
			// Points land at every multiple of EvalEvery and at NMax.
			var want []int
			for a := s.evalEvery; a < s.nmax; a += s.evalEvery {
				want = append(want, a)
			}
			want = append(want, s.nmax)
			curve := func(r *Result) (out []string) {
				for _, p := range r.Curve {
					out = append(out, fmt.Sprintf("acq=%d cost=%.17g err=%.17g", p.Acquired, p.Cost, p.Error))
				}
				return out
			}
			bcur, scur := curve(br), curve(sr)
			if len(br.Curve) != len(want) {
				t.Fatalf("curve %v, want points at %v", bcur, want)
			}
			for i, p := range br.Curve {
				if p.Acquired != want[i] {
					t.Fatalf("curve %v, want points at %v", bcur, want)
				}
			}
			if fmt.Sprint(bcur) != fmt.Sprint(scur) {
				t.Errorf("curve diverged:\n%v\nvs serial\n%v", bcur, scur)
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
	l, err := New(o, pool, src, nil)
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
