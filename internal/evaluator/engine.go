//alic:deterministic
package evaluator

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alic/internal/workpool"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent measurements (0 = GOMAXPROCS,
	// 1 = serial). Results are bit-identical for every value; Workers
	// changes wall-clock time only.
	Workers int
	// Latency simulates per-measurement profiling latency by sleeping
	// before each Measure call — the simulator measures in
	// microseconds where real compile+run cycles take seconds, so
	// benchmarks and demos use this to reproduce the measurement-bound
	// regime the engine is built for.
	Latency time.Duration
}

// request is one scheduled observation.
type request struct {
	seq   int
	index int
	ord   int
}

// charge is the cost ledger entry of one scheduled observation.
type charge struct {
	compile float64
	run     float64
	done    bool
}

// Engine measures observation batches over a Source and keeps the
// §4.3 cost ledger. The zero value is not usable; construct with New.
// An Engine has no goroutines of its own: ObserveBatch measures on the
// caller's goroutine or the shared worker pool and returns once every
// scheduled observation has completed.
type Engine struct {
	src     Source
	opts    Options
	workers int
	closed  atomic.Bool

	mu        sync.Mutex
	next      map[int]int // next ordinal per item (scheduled count)
	base      int         // seq of charges[0]: folded entries are compacted away
	charges   []charge    // indexed by seq - base
	cum       []float64   // cum[seq] = ledger through seq (valid below prefix)
	prefix    int         // first seq whose charge is not yet folded
	prefixSum float64     // ledger folded in seq order up to prefix
}

// compactChunk is how many folded ledger entries accumulate before
// charges below the prefix are released; long-running learners then
// hold only the unfolded tail (plus the 8-byte cum checkpoint per
// observation) instead of a full charge record per observation ever
// scheduled.
const compactChunk = 4096

// New constructs an engine over the source.
func New(src Source, opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		src:     src,
		opts:    opts,
		workers: workers,
		next:    make(map[int]int),
	}
}

// Close makes every later ObserveBatch fail with ErrClosed. A batch
// already measuring completes and is accounted. Close is idempotent.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return nil
}

// schedule assigns each index a global sequence number, its per-item
// ordinal, and a ledger slot, all under one lock — the step that
// makes results independent of completion order and charges each
// item's compile cost to its first scheduled observation only.
func (e *Engine) schedule(indices []int) ([]request, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	reqs := make([]request, len(indices))
	for j, idx := range indices {
		if idx < 0 {
			return nil, fmt.Errorf("evaluator: negative pool index %d", idx)
		}
		ord := e.next[idx]
		e.next[idx] = ord + 1
		reqs[j] = request{seq: e.base + len(e.charges), index: idx, ord: ord}
		e.charges = append(e.charges, charge{})
		e.cum = append(e.cum, 0)
	}
	return reqs, nil
}

// Scheduled returns how many observations of item i have been
// scheduled.
func (e *Engine) Scheduled(i int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.next[i]
}

// measure performs one scheduled observation and records its charge.
func (e *Engine) measure(rq request) Observation {
	if e.opts.Latency > 0 {
		time.Sleep(e.opts.Latency)
	}
	s, err := e.src.Measure(rq.index, rq.ord)
	if err != nil {
		s = Sample{}
	}
	e.record(rq.seq, s)
	return Observation{
		Seq: rq.seq, Index: rq.index, Ord: rq.ord,
		Value: s.Value, Compile: s.Compile, Err: err,
	}
}

// skip abandons a scheduled observation (zero charge) so the ledger
// prefix can keep advancing past it.
func (e *Engine) skip(rq request) Observation {
	e.record(rq.seq, Sample{})
	return Observation{Seq: rq.seq, Index: rq.index, Ord: rq.ord, Err: ErrSkipped}
}

// record completes seq's ledger entry and folds every newly
// contiguous entry into the prefix sum — strictly in seq order, so
// the accumulated cost never depends on completion order. Each entry
// adds compile before run, reproducing the serial accumulator's exact
// float-addition chain (a zero compile add is a bitwise no-op).
func (e *Engine) record(seq int, s Sample) {
	e.mu.Lock()
	c := &e.charges[seq-e.base]
	c.compile, c.run, c.done = s.Compile, s.Value, true
	for e.prefix < e.base+len(e.charges) && e.charges[e.prefix-e.base].done {
		e.prefixSum += e.charges[e.prefix-e.base].compile
		e.prefixSum += e.charges[e.prefix-e.base].run
		e.cum[e.prefix] = e.prefixSum
		e.prefix++
	}
	// Folded entries are only ever read back through cum; release them
	// once a chunk has accumulated.
	if e.prefix-e.base >= compactChunk {
		e.charges = append(e.charges[:0:0], e.charges[e.prefix-e.base:]...)
		e.base = e.prefix
	}
	e.mu.Unlock()
}

// CostThrough returns the cost ledger folded through sequence number
// seq only — the accumulator value the serial loop had right after
// seq's observation. It lets a consumer folding results in scheduling
// order report cost checkpoints that are bit-identical to the serial
// chain. A seq at or beyond the folded prefix yields the folded total.
func (e *Engine) CostThrough(seq int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case seq < 0 || e.prefix == 0:
		return 0
	case seq >= e.prefix:
		return e.prefixSum
	}
	return e.cum[seq]
}

// Cost returns the cumulative evaluation cost in simulated seconds:
// every completed observation's run time plus each measured item's
// compile time exactly once, folded in scheduling order so the sum is
// deterministic.
func (e *Engine) Cost() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prefixSum
}

// ObserveBatch schedules one observation per entry of indices (an item
// may appear several times for repeated observations), measures them —
// possibly in parallel — and returns the observations in submission
// order. The returned values and the cost charged are bit-identical at
// every worker count. On failure it returns the partially measured
// batch together with the first error in submission order;
// observations skipped after the failure carry ErrSkipped.
//
// CPU-bound measurement (no simulated latency) is sharded over the
// shared scoring pool (capped process-wide at GOMAXPROCS, inline
// fallback under nesting), so many engines — e.g. one per experiment
// repetition — share one bounded pool instead of oversubscribing the
// machine. Latency-bound measurement instead runs on dedicated
// goroutines gated by the Workers cap: the sleeps are not CPU work, so
// they must neither be clamped to the core count nor occupy
// scoring-pool workers.
func (e *Engine) ObserveBatch(indices []int) ([]Observation, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	reqs, err := e.schedule(indices)
	if err != nil {
		return nil, err
	}
	out := make([]Observation, len(reqs))
	var failed atomic.Bool
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if failed.Load() {
				out[i] = e.skip(reqs[i])
				continue
			}
			out[i] = e.measure(reqs[i])
			if out[i].Err != nil {
				failed.Store(true)
			}
		}
	}
	if e.opts.Latency > 0 && e.workers > 1 {
		workpool.DynamicFor(e.workers, len(reqs), func(i int) { body(i, i+1) })
	} else {
		workpool.ParallelFor(e.workers, len(reqs), body)
	}
	// Report the first *real* failure in submission order: a slower
	// shard may have skipped an earlier index after a later one
	// failed, and ErrSkipped must not mask the actual cause.
	var firstErr error
	for i := range out {
		if out[i].Err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = out[i].Err
		}
		if !errors.Is(out[i].Err, ErrSkipped) {
			return out, out[i].Err
		}
	}
	return out, firstErr
}
