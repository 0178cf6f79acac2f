package evaluator

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"alic/internal/dataset"
	"alic/internal/measure"
	"alic/internal/rng"
	"alic/internal/space"
	_ "alic/internal/space/spaptspace"
)

// synthSource is a pure synthetic source: value and compile cost are
// deterministic functions of (item, ordinal).
type synthSource struct {
	compile float64
	// fail, when non-nil, makes the matching measurement error.
	fail func(i, ord int) bool
	// calls counts Measure invocations (atomic not needed under the
	// mutex).
	mu    sync.Mutex
	calls int
}

func (s *synthSource) Measure(i, ord int) (Sample, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.fail != nil && s.fail(i, ord) {
		return Sample{}, fmt.Errorf("synthetic failure at (%d,%d)", i, ord)
	}
	out := Sample{Value: 1 + float64(i)*0.25 + float64(ord)*0.0625}
	if ord == 0 {
		out.Compile = s.compile
	}
	return out, nil
}

func indicesOf(items ...int) []int { return items }

// serialExpectation replays the batch the way a serial measurement
// loop would, returning the expected values and the expected
// cost chain.
func serialExpectation(src *synthSource, indices []int) (vals []float64, cost float64) {
	next := map[int]int{}
	for _, i := range indices {
		ord := next[i]
		next[i] = ord + 1
		s, _ := (&synthSource{compile: src.compile}).Measure(i, ord)
		cost += s.Compile
		cost += s.Value
		vals = append(vals, s.Value)
	}
	return vals, cost
}

func TestObserveBatchMatchesSerialAtEveryWorkerCount(t *testing.T) {
	indices := []int{3, 3, 7, 0, 3, 7, 1, 1, 1, 5, 0, 2}
	wantVals, wantCost := serialExpectation(&synthSource{compile: 2.5}, indices)
	for _, workers := range []int{1, 2, 4, 8} {
		e := New(&synthSource{compile: 2.5}, Options{Workers: workers})
		obs, err := e.ObserveBatch(indices)
		if err != nil {
			t.Fatal(err)
		}
		if len(obs) != len(indices) {
			t.Fatalf("workers=%d: %d observations, want %d", workers, len(obs), len(indices))
		}
		for j, o := range obs {
			if o.Index != indices[j] {
				t.Fatalf("workers=%d: obs %d is item %d, want %d", workers, j, o.Index, indices[j])
			}
			if o.Value != wantVals[j] {
				t.Fatalf("workers=%d: obs %d value %v, want %v (not bit-identical)",
					workers, j, o.Value, wantVals[j])
			}
			if o.Seq != j {
				t.Fatalf("workers=%d: obs %d has seq %d", workers, j, o.Seq)
			}
		}
		if got := e.Cost(); got != wantCost {
			t.Fatalf("workers=%d: cost %v, want %v (not bit-identical)", workers, got, wantCost)
		}
	}
}

func TestOrdinalsAdvanceAcrossBatches(t *testing.T) {
	e := New(&synthSource{}, Options{Workers: 2})
	if _, err := e.ObserveBatch(indicesOf(4, 4)); err != nil {
		t.Fatal(err)
	}
	obs, err := e.ObserveBatch(indicesOf(4))
	if err != nil {
		t.Fatal(err)
	}
	if obs[0].Ord != 2 {
		t.Fatalf("third observation of item 4 has ordinal %d, want 2", obs[0].Ord)
	}
	if got := e.Scheduled(4); got != 3 {
		t.Fatalf("Scheduled(4) = %d, want 3", got)
	}
}

// TestInFlightCompileDedup pins compile deduplication across batches:
// the ordinal is assigned at scheduling time, so only an item's very
// first scheduled observation carries the compile charge — a second
// ObserveBatch touching the same configuration pays run time only.
func TestInFlightCompileDedup(t *testing.T) {
	const compile = 100.0
	src := &synthSource{compile: compile}
	e := New(src, Options{Workers: 4, Latency: time.Millisecond})
	defer e.Close()

	var got []Observation
	for _, batch := range [][]int{indicesOf(9, 9, 9), indicesOf(9, 9)} {
		obs, err := e.ObserveBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, obs...)
	}
	compiles := 0
	for _, o := range got {
		if o.Compile > 0 {
			compiles++
		}
	}
	if compiles != 1 {
		t.Fatalf("compile charged %d times across two batches of one item, want exactly once", compiles)
	}
	// The ledger agrees: one compile plus five runs.
	wantCost := compile
	for ord := 0; ord < 5; ord++ {
		s, _ := (&synthSource{compile: compile}).Measure(9, ord)
		wantCost += s.Value
	}
	if got := e.Cost(); math.Abs(got-wantCost) > 1e-12 {
		t.Fatalf("ledger %v, want %v", got, wantCost)
	}
}

func TestCostThroughCheckpoints(t *testing.T) {
	indices := []int{0, 1, 0, 2}
	e := New(&synthSource{compile: 10}, Options{Workers: 4})
	obs, err := e.ObserveBatch(indices)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint at seq k must equal the serial accumulator after
	// k's observation.
	var chain float64
	for k, o := range obs {
		chain += o.Compile
		chain += o.Value
		if got := e.CostThrough(k); got != chain {
			t.Fatalf("CostThrough(%d) = %v, want %v", k, got, chain)
		}
	}
	if got := e.CostThrough(-1); got != 0 {
		t.Fatalf("CostThrough(-1) = %v", got)
	}
	if got := e.CostThrough(99); got != e.Cost() {
		t.Fatalf("CostThrough past end = %v, want total %v", got, e.Cost())
	}
}

func TestObserveBatchStopsAfterFailure(t *testing.T) {
	src := &synthSource{fail: func(i, ord int) bool { return i == 6 }}
	e := New(src, Options{Workers: 1})
	obs, err := e.ObserveBatch(indicesOf(1, 6, 3, 4))
	if err == nil {
		t.Fatal("no error from failing batch")
	}
	if obs[0].Err != nil || obs[1].Err == nil {
		t.Fatalf("unexpected error layout: %v / %v", obs[0].Err, obs[1].Err)
	}
	// A serial engine stops measuring at the first failure; later
	// entries are skipped.
	for _, o := range obs[2:] {
		if !errors.Is(o.Err, ErrSkipped) {
			t.Fatalf("post-failure observation not skipped: %+v", o)
		}
	}
	if src.calls != 2 {
		t.Fatalf("source measured %d times after failure, want 2", src.calls)
	}
	// The ledger still advances past the failed entries (zero charge).
	s0, _ := (&synthSource{}).Measure(1, 0)
	if got := e.Cost(); got != s0.Value {
		t.Fatalf("cost %v, want only the successful observation %v", got, s0.Value)
	}
}

func TestEngineClosedErrors(t *testing.T) {
	e := New(&synthSource{}, Options{})
	e.Close()
	if _, err := e.ObserveBatch(indicesOf(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ObserveBatch after Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestNegativeIndexRejected(t *testing.T) {
	e := New(&synthSource{}, Options{})
	if _, err := e.ObserveBatch(indicesOf(0, -1)); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestDatasetSourceAgainstDirectObserve(t *testing.T) {
	k, err := space.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(k, dataset.Options{NConfigs: 60, NObs: 3, TrainCount: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(ds)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh measurer on the corpus seed draws what the corpus does.
	meas, err := k.Measurer(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range []int{0, 7, 39} {
		cfg := ds.Configs[ds.TrainIdx[item]]
		for ord := 0; ord < 3; ord++ {
			s, err := src.Measure(item, ord)
			if err != nil {
				t.Fatal(err)
			}
			want, err := meas.Observe(cfg, ord)
			if err != nil {
				t.Fatal(err)
			}
			if s.Value != want {
				t.Fatalf("item %d ord %d: %v, want dataset draw %v", item, ord, s.Value, want)
			}
			ct, err := meas.CompileCost(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ord == 0 && s.Compile != ct {
				t.Fatalf("item %d: compile %v, want %v", item, s.Compile, ct)
			}
			if ord > 0 && s.Compile != 0 {
				t.Fatalf("item %d ord %d: repeat observation carries compile %v", item, ord, s.Compile)
			}
		}
	}
	if _, err := src.Measure(40, 0); err == nil {
		t.Fatal("out-of-pool index accepted")
	}
	if _, err := NewDatasetSource(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestSessionSourceContinuesSessionHistory(t *testing.T) {
	k, err := space.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := measure.NewSession(k, 17)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(29)
	warm := k.RandomConfig(r)
	cold := k.RandomConfig(r)
	// A two-observation reservation puts warm into the session's
	// history; a later source must continue at ordinal 2 and charge no
	// compile for it.
	if _, err := sess.Reserve([]space.Config{warm}, 2); err != nil {
		t.Fatal(err)
	}
	first, err := sess.At(warm, 0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := sess.At(warm, 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSessionSource(sess, []space.Config{warm, cold}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := src.Measure(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Value != next || s.Value == first {
		t.Fatalf("warm config restarted its noise stream: got %v", s.Value)
	}
	if s.Compile != 0 {
		t.Fatalf("already-compiled config charged compile %v", s.Compile)
	}
	cs, err := src.Measure(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Compile <= 0 {
		t.Fatal("fresh config carried no compile charge")
	}
	// Ordinal 1 of warm is session ordinal 3, which the next
	// reservation owns.
	for _, ord := range []int{1, -1} {
		if _, err := src.Measure(0, ord); err == nil {
			t.Fatalf("ordinal %d outside the reservation accepted", ord)
		}
	}
	if _, err := NewSessionSource(sess, []space.Config{warm, warm}, 1); err == nil {
		t.Fatal("duplicate configurations accepted")
	}
	if _, err := NewSessionSource(nil, []space.Config{warm}, 1); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, err := NewSessionSource(sess, []space.Config{warm}, 0); err == nil {
		t.Fatal("empty reservation accepted")
	}
}

// TestSessionSourcesOnOneConfigReserveDisjointOrdinals builds two
// sources over the same configuration on one session before either
// measures anything: they must read disjoint noise ordinals, and only
// the first may charge the compile.
func TestSessionSourcesOnOneConfigReserveDisjointOrdinals(t *testing.T) {
	k, err := space.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := measure.NewSession(k, 19)
	if err != nil {
		t.Fatal(err)
	}
	cfg := k.BaselineConfig()
	const n = 3
	a, err := NewSessionSource(sess, []space.Config{cfg}, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSessionSource(sess, []space.Config{cfg}, n)
	if err != nil {
		t.Fatal(err)
	}
	for ord := 0; ord < n; ord++ {
		sa, err := a.Measure(0, ord)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Measure(0, ord)
		if err != nil {
			t.Fatal(err)
		}
		wantA, err := sess.At(cfg, ord)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := sess.At(cfg, n+ord)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Value != wantA || sb.Value != wantB {
			t.Fatalf("ordinal %d: sources read %v and %v, want session ordinals %d and %d (%v, %v)",
				ord, sa.Value, sb.Value, ord, n+ord, wantA, wantB)
		}
		if sb.Compile != 0 {
			t.Fatalf("second source charged compile %v at ordinal %d", sb.Compile, ord)
		}
		if (sa.Compile > 0) != (ord == 0) {
			t.Fatalf("first source charged compile %v at ordinal %d", sa.Compile, ord)
		}
	}
	if sess.Runs() != 2*n || sess.Compiles() != 1 {
		t.Fatalf("session history runs=%d compiles=%d, want %d and 1", sess.Runs(), sess.Compiles(), 2*n)
	}
}

// TestLedgerCompaction drives the engine past compactChunk folded
// entries and checks every ledger contract across the compaction
// boundary: Cost and CostThrough stay bit-identical to the serial
// chain, checkpoints below the released region read from cum, and
// scheduling/ordinals keep advancing.
func TestLedgerCompaction(t *testing.T) {
	const total = 3*compactChunk + 157
	indices := make([]int, total)
	for i := range indices {
		indices[i] = i % 37
	}
	wantVals, wantCost := serialExpectation(&synthSource{compile: 1.5}, indices)
	e := New(&synthSource{compile: 1.5}, Options{Workers: 4})

	// Several batches so compaction interleaves with scheduling.
	chunk := compactChunk/2 + 11
	var chain float64
	seq := 0
	for start := 0; start < total; start += chunk {
		end := start + chunk
		if end > total {
			end = total
		}
		obs, err := e.ObserveBatch(indices[start:end])
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			if o.Value != wantVals[seq] {
				t.Fatalf("seq %d value %v, want %v", seq, o.Value, wantVals[seq])
			}
			chain += o.Compile
			chain += o.Value
			seq++
		}
		if got := e.CostThrough(seq - 1); got != chain {
			t.Fatalf("CostThrough(%d) = %v, want chain %v", seq-1, got, chain)
		}
	}
	if got := e.Cost(); got != wantCost {
		t.Fatalf("cost %v after compaction, want %v", got, wantCost)
	}
	// Checkpoints deep inside the released region still resolve.
	probe := compactChunk + 3
	_, cost := serialExpectation(&synthSource{compile: 1.5}, indices[:probe+1])
	if got := e.CostThrough(probe); got != cost {
		t.Fatalf("CostThrough(%d) in released region = %v, want %v", probe, got, cost)
	}
	// Every scheduled observation has folded: the ledger is quiescent.
	if _, err := e.SnapshotLedger(); err != nil {
		t.Fatalf("ledger not quiescent after the last batch: %v", err)
	}
	if got := e.Scheduled(0); got != (total+36)/37 {
		t.Fatalf("Scheduled(0) = %d", got)
	}
}
