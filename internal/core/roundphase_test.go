package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// newPhaseLearner builds a learner over a pure (item, ordinal) source
// — the shape a remote observation feed has — so two learners driven
// through different APIs observe identical measurement sequences.
func newPhaseLearner(t *testing.T, opts Options, pool SlicePool) *Learner {
	t.Helper()
	opts.EvalWorkers = 1
	l, err := New(opts, pool, newFuncSource(pool, stepFn, constSigma(0.05), 0.1, 7), testEval(stepFn))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSplitPhaseMatchesStep drives one learner with Step and a twin
// with BeginRound/FinishRound and asserts the runs are bit-identical —
// the serving scheduler's split-phase path is Step by construction.
func TestSplitPhaseMatchesStep(t *testing.T) {
	opts := smallOpts()
	opts.NMax = 60
	pool := gridPool(300)

	stepped := newPhaseLearner(t, opts, pool)
	defer stepped.Close()
	for {
		more, err := stepped.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	want := stepped.Result()

	split := newPhaseLearner(t, opts, pool)
	defer split.Close()
	// Track per-item scheduled counts independently to verify the
	// PendingObservations ready-check coordinates.
	scheduled := map[int]int{}
	var costSum float64
	for rounds := 0; ; rounds++ {
		if rounds > opts.NMax+2 {
			t.Fatal("split-phase run failed to terminate")
		}
		chosen, err := split.BeginRound()
		if err != nil {
			t.Fatal(err)
		}
		if chosen == nil {
			break
		}
		if !split.RoundPending() {
			t.Fatal("BeginRound left no round pending")
		}
		pend := split.PendingObservations()
		if len(pend) != len(chosen) {
			t.Fatalf("pending %d entries, chosen %d", len(pend), len(chosen))
		}
		for j, po := range pend {
			if po.Item != chosen[j] {
				t.Fatalf("pending[%d].Item = %d, chosen %d", j, po.Item, chosen[j])
			}
			if po.First != scheduled[po.Item] {
				t.Fatalf("item %d: First = %d, want scheduled count %d", po.Item, po.First, scheduled[po.Item])
			}
			if po.Count < 1 {
				t.Fatalf("item %d: Count = %d", po.Item, po.Count)
			}
			scheduled[po.Item] += po.Count
		}
		if _, err := split.BeginRound(); err == nil {
			t.Fatal("second BeginRound with a round pending did not error")
		}
		more, err := split.FinishRound()
		if err != nil {
			t.Fatal(err)
		}
		if lc := split.LastRoundCost(); lc <= 0 {
			t.Fatalf("LastRoundCost = %v after a folded round", lc)
		}
		costSum += split.LastRoundCost()
		if !more {
			break
		}
	}
	if split.RoundPending() {
		t.Fatal("round still pending after completion")
	}
	if _, err := split.FinishRound(); err == nil {
		t.Fatal("FinishRound without a pending round did not error")
	}
	got := split.Result()

	if got.Acquired != want.Acquired || got.Observations != want.Observations ||
		got.Unique != want.Unique || got.Revisits != want.Revisits {
		t.Fatalf("bookkeeping diverged: got %+v want %+v", got, want)
	}
	if got.Cost != want.Cost {
		t.Fatalf("cost diverged: %v vs %v", got.Cost, want.Cost)
	}
	if got.StoppedBy != want.StoppedBy {
		t.Fatalf("stop reason %v vs %v", got.StoppedBy, want.StoppedBy)
	}
	if len(got.Curve) != len(want.Curve) {
		t.Fatalf("curve lengths %d vs %d", len(got.Curve), len(want.Curve))
	}
	for i := range got.Curve {
		if got.Curve[i] != want.Curve[i] {
			t.Fatalf("curve[%d]: %+v vs %+v", i, got.Curve[i], want.Curve[i])
		}
	}
	for _, x := range gridPool(37) {
		a, b := got.Model.PredictMeanFast(x), want.Model.PredictMeanFast(x)
		if a != b {
			t.Fatalf("model diverged at %v: %v vs %v", x, a, b)
		}
	}
	if math.Abs(costSum-got.Cost) > 1e-9*math.Max(1, got.Cost) {
		t.Fatalf("sum of LastRoundCost %v != total cost %v", costSum, got.Cost)
	}
	// Cost through the last folded observation is also exposed directly.
	if split.Cost() != got.Cost {
		t.Fatalf("Cost() %v != Result().Cost %v", split.Cost(), got.Cost)
	}
}

// TestClosedLearnerSentinel asserts every entry point after Close
// reports ErrClosed via errors.Is instead of panicking or wedging.
func TestClosedLearnerSentinel(t *testing.T) {
	opts := smallOpts()
	pool := gridPool(100)
	l := newPhaseLearner(t, opts, pool)
	if _, err := l.Step(); err != nil { // seed once so the model exists
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := l.Step(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Step after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Run(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if _, err := l.SelectBatch(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("SelectBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := l.BeginRound(); !errors.Is(err, ErrClosed) {
		t.Fatalf("BeginRound after Close = %v, want ErrClosed", err)
	}
	if _, err := l.FinishRound(); !errors.Is(err, ErrClosed) {
		t.Fatalf("FinishRound after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentStepClose hammers Step and Close from separate
// goroutines — the misuse a serving layer multiplexing learners makes
// reachable. Under -race this doubles as the data-race probe; the
// invariant is that Step either succeeds or reports ErrClosed, never
// panics.
func TestConcurrentStepClose(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		opts := smallOpts()
		opts.NMax = 400
		opts.EvalEvery = 0
		pool := gridPool(500)
		l := newPhaseLearner(t, opts, pool)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				more, err := l.Step()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Step during Close: %v", err)
					}
					return
				}
				if !more {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(trial) * 100 * time.Microsecond)
			if err := l.Close(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Close: %v", err)
			}
		}()
		wg.Wait()
		if _, err := l.Step(); !errors.Is(err, ErrClosed) {
			t.Fatalf("trial %d: Step after close race = %v, want ErrClosed", trial, err)
		}
		// The snapshot stays readable after teardown.
		_ = l.Result()
	}
}
