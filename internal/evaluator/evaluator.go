// Package evaluator is the batched evaluation engine of the library:
// the layer every measurement of the active-learning loop flows
// through. The paper's cost model (§4.3) counts compile + run time as
// the dominant expense of iterative compilation, and in a real
// deployment those measurements — not the model math — are the
// wall-clock bottleneck, so this is the layer that has to scale with
// cores (or profiling hosts).
//
// # Architecture
//
//	core.Learner ─┐
//	tuner.Search ─┴─ObserveBatch──▶ Engine
//	                                 │ ordinal + the §4.3 cost ledger
//	                                 ▼
//	                               Source (pure Measure(i, ord))
//	                                 ├─ DatasetSource  (§4.5 corpus)
//	                                 ├─ SessionSource  (ordinals reserved on a measure.Session)
//	                                 └─ SpaceSource    (space.Measurer)
//
// A Source is the measurement primitive: a concurrency-safe function
// of (pool item, observation ordinal). The Engine owns everything
// stateful — it assigns each scheduled observation a global sequence
// number and a per-item ordinal at scheduling time, and it keeps the
// cost ledger, the only one in the library: a measure.Session records
// which ordinals have been taken but charges nothing. Because the
// simulated profiling environment draws observation (i, ord) from its
// own noise stream, the values an engine produces are a pure function
// of the scheduling order, never of the completion order or the
// worker count.
//
// # Determinism contract
//
// ObserveBatch is bit-identical to a serial measurement loop at every
// worker count: values are pure in (item, ordinal), observations come
// back in submission order, and the cost ledger is folded in sequence
// order — the same float-addition chain a serial accumulator performs.
//
// # Cost accounting
//
// Cost follows §4.3 of the paper: every observation charges its
// observed runtime, plus the item's compile time exactly once. The
// compile charge is decided when an observation is *scheduled*, so
// repeated observations of a configuration — within a batch or across
// batches — pay run time only. Model-update overhead is excluded, as
// in the paper: it is small and near-constant across the compared
// approaches.
package evaluator

import "errors"

// Sample is one raw measurement returned by a Source: the observed
// runtime plus the compile cost to charge for it (non-zero only for
// an item's first scheduled observation — the Source decides using
// the ordinal it is given).
type Sample struct {
	// Value is the observed runtime in simulated seconds. It is also
	// the observation's run cost (§4.3 charges the wall-clock time of
	// every profiling run).
	Value float64
	// Compile is the compile cost to charge with this observation;
	// zero when the item's binary already exists.
	Compile float64
}

// Source supplies raw measurements for an Engine. Measure must be
// safe for concurrent use and pure in (i, ord): the engine may invoke
// it from many goroutines in any order, and repeated calls with the
// same arguments must return the same sample.
type Source interface {
	// Measure returns observation ord (0-based, assigned by the
	// engine in scheduling order) of pool item i.
	Measure(i, ord int) (Sample, error)
}

// Observation is one completed measurement.
type Observation struct {
	// Seq is the engine-global scheduling sequence number.
	// Observations scheduled earlier have smaller Seq.
	Seq int
	// Index is the pool item measured.
	Index int
	// Ord is the item's observation ordinal (how many observations of
	// the item were scheduled before this one).
	Ord int
	// Value is the observed runtime (zero when Err is set).
	Value float64
	// Compile is the compile cost charged with this observation (zero
	// unless this was the item's first scheduled observation).
	Compile float64
	// Err reports a failed or skipped measurement.
	Err error
}

// Repeat expands an acquisition batch into the per-observation index
// list ObserveBatch consumes: each item repeated n times, in batch
// order — the dispatch shape the learner's seeding and acquisition
// rounds and the tuner's verification all share.
func Repeat(items []int, n int) []int {
	out := make([]int, 0, len(items)*n)
	for _, idx := range items {
		for j := 0; j < n; j++ {
			out = append(out, idx)
		}
	}
	return out
}

// Sentinel errors.
var (
	// ErrClosed reports use of an engine after Close.
	ErrClosed = errors.New("evaluator: engine closed")
	// ErrSkipped marks observations abandoned because an earlier
	// observation of the same batch failed.
	ErrSkipped = errors.New("evaluator: observation skipped after earlier failure")
)
