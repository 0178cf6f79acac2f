package core

import (
	"math"
	"sync/atomic"
	"testing"

	"alic/internal/evaluator"
)

func TestPrequentialWindow(t *testing.T) {
	p := newPrequential(3)
	if !math.IsNaN(p.rmse()) {
		t.Fatal("rmse should be NaN before the window fills")
	}
	p.add(4) // residual^2
	p.add(4)
	if !math.IsNaN(p.rmse()) {
		t.Fatal("rmse should be NaN with a partial window")
	}
	p.add(4)
	if got := p.rmse(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("rmse %v, want 2", got)
	}
	// Sliding: replace oldest values.
	p.add(0)
	p.add(0)
	p.add(0)
	if got := p.rmse(); got != 0 {
		t.Fatalf("rmse %v after window slid, want 0", got)
	}
	if p.n() != 3 {
		t.Fatalf("n = %d", p.n())
	}
}

func TestPrequentialDegenerateWindow(t *testing.T) {
	p := newPrequential(0) // clamps to 1
	p.add(9)
	if got := p.rmse(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("rmse %v, want 3", got)
	}
}

func TestStopErrorEndsRunEarly(t *testing.T) {
	// A noise-free, nearly constant surface: the model becomes
	// accurate fast, so a loose StopError must fire well before NMax.
	pool := gridPool(500)
	fn := func(x []float64) float64 { return 2 + 0.01*x[0] }
	src := newFuncSource(pool, fn, constSigma(0.001), 0.02, 31)
	opts := smallOpts()
	opts.NMax = 2000
	opts.StopError = 0.05
	opts.StopWindow = 20
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired >= 2000 {
		t.Fatal("StopError never fired on an easy problem")
	}
	if res.StoppedBy != StopByError {
		t.Fatalf("StoppedBy = %v, want %v", res.StoppedBy, StopByError)
	}
	if math.IsNaN(res.PrequentialError) || res.PrequentialError > opts.StopError {
		t.Fatalf("final prequential error %v above threshold", res.PrequentialError)
	}
}

func TestStopErrorIgnoredWhenHard(t *testing.T) {
	// A very noisy surface: a tight StopError must never fire, so the
	// run exhausts its budget.
	pool := gridPool(500)
	src := newFuncSource(pool, stepFn, constSigma(0.5), 0.02, 32)
	opts := smallOpts()
	opts.NMax = 80
	opts.StopError = 1e-6
	opts.StopWindow = 10
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired != 80 {
		t.Fatalf("acquired %d, want full budget 80", res.Acquired)
	}
	if res.StoppedBy != StopBudget {
		t.Fatalf("StoppedBy = %v, want %v", res.StoppedBy, StopBudget)
	}
}

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopBudget:     "budget",
		StopByCost:     "cost",
		StopByError:    "error",
		StopExhausted:  "exhausted",
		StopReason(42): "StopReason(42)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestStopCostSetsReason(t *testing.T) {
	pool := gridPool(300)
	src := newFuncSource(pool, stepFn, constSigma(0.02), 0.5, 33)
	opts := smallOpts()
	opts.NMax = 10000
	opts.StopCost = 30
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedBy != StopByCost {
		t.Fatalf("StoppedBy = %v, want %v", res.StoppedBy, StopByCost)
	}
}

func TestPoolExhaustionSetsReason(t *testing.T) {
	pool := gridPool(10)
	src := newFuncSource(pool, stepFn, constSigma(0.02), 0.02, 34)
	opts := smallOpts()
	opts.NInit = 3
	opts.NObs = 2
	opts.NCand = 5
	opts.NMax = 500
	l, _ := New(opts, pool, src, nil)
	res, err := l.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedBy != StopExhausted {
		t.Fatalf("StoppedBy = %v, want %v", res.StoppedBy, StopExhausted)
	}
}

// failingSource returns an error after a set number of measurements —
// failure injection for the learner's error paths.
type failingSource struct {
	inner  *funcSource
	budget int64
	count  atomic.Int64
}

func (f *failingSource) Measure(i, ord int) (evaluator.Sample, error) {
	if f.count.Add(1) > f.budget {
		return evaluator.Sample{}, errProfiler
	}
	return f.inner.Measure(i, ord)
}

var errProfiler = errorString("profiler died")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestOracleFailureDuringSeeding(t *testing.T) {
	pool := gridPool(100)
	inner := newFuncSource(pool, stepFn, constSigma(0.02), 0.02, 35)
	src := &failingSource{inner: inner, budget: 3}
	l, _ := New(smallOpts(), pool, src, nil)
	if _, err := l.Run(nil); err == nil {
		t.Fatal("seeding failure not propagated")
	}
}

func TestOracleFailureDuringLoop(t *testing.T) {
	pool := gridPool(100)
	inner := newFuncSource(pool, stepFn, constSigma(0.02), 0.02, 36)
	opts := smallOpts()
	// Fail after seeding completes (NInit * NObs observations) plus a
	// few loop acquisitions.
	src := &failingSource{inner: inner, budget: int64(opts.NInit*opts.NObs + 5)}
	l, _ := New(opts, pool, src, nil)
	if _, err := l.Run(nil); err == nil {
		t.Fatal("loop failure not propagated")
	}
}
