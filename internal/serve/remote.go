package serve

import (
	"fmt"
	"math"
	"sync"

	"alic/internal/evaluator"
)

// RemoteSource implements evaluator.Source over observations posted by
// external agents — the Mpeis-style deployment where a fleet of devices
// measures (config, runtime, compile-cost) tuples off-process and feeds
// them into a centrally hosted learner session.
//
// The source keeps an append-only log of posted observations per pool
// item; observation (i, ord) is the ord-th value ever posted for item
// i. Records are never deleted, so Measure is pure in (i, ord) — the
// engine contract that makes §4.3 cost accounting order-free — and
// compile cost rides only on ordinal zero, charged once per item by the
// engine ledger.
//
// Backpressure: the queue bounds posted-but-not-yet-consumed
// observations. Post returns ErrQueueFull once the bound is hit; the
// HTTP layer translates that into 429 + Retry-After.
type RemoteSource struct {
	mu     sync.Mutex
	cond   *sync.Cond
	obs    map[int][]remoteObs
	served map[int]int // ordinals consumed by Measure, per item
	depth  int         // posted - consumed (the bounded queue)
	limit  int
	closed bool
	posted int64
}

type remoteObs struct {
	value   float64
	compile float64
}

// NewRemoteSource builds a source bounding the queue of unconsumed
// observations at queueCap (<= 0 selects the server default).
func NewRemoteSource(queueCap int) *RemoteSource {
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	r := &RemoteSource{
		obs:    make(map[int][]remoteObs),
		served: make(map[int]int),
		limit:  queueCap,
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Post appends one measured observation for pool item i. The ordinal
// is implicit: the n-th post for an item becomes observation (i, n).
// upTo caps the item's posts at the ordinals its pending round takes
// (First+Count; 0 for an item outside the pending round), so no post
// can queue for a later round. A post past the cap, or with a negative
// or non-finite value or compile cost, fails with ErrBadObservation:
// the values flow into the §4.3 ledger and the session budget.
func (r *RemoteSource) Post(item int, value, compile float64, upTo int) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrNotAccepting
	}
	if !validCost(value) || !validCost(compile) {
		r.mu.Unlock()
		return fmt.Errorf("%w: item %d: value %v, compile %v (want finite and >= 0)",
			ErrBadObservation, item, value, compile)
	}
	if have := len(r.obs[item]); have >= upTo {
		r.mu.Unlock()
		if upTo == 0 {
			return fmt.Errorf("%w: item %d is not in the pending round", ErrBadObservation, item)
		}
		return fmt.Errorf("%w: item %d already has the %d posts its pending round takes", ErrBadObservation, item, upTo)
	}
	if r.depth >= r.limit {
		r.mu.Unlock()
		return ErrQueueFull
	}
	r.obs[item] = append(r.obs[item], remoteObs{value: value, compile: compile})
	r.depth++
	r.posted++
	r.mu.Unlock()
	r.cond.Broadcast()
	return nil
}

// validCost reports whether a posted runtime or compile cost may enter
// the ledger.
func validCost(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Have returns how many observations have been posted for an item.
func (r *RemoteSource) Have(item int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.obs[item])
}

// Posted returns the total number of accepted observations.
func (r *RemoteSource) Posted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.posted
}

// Depth returns the current number of posted-but-unconsumed
// observations.
func (r *RemoteSource) Depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.depth
}

// Measure implements evaluator.Source. It waits until the requested
// ordinal has been posted; the serve scheduler only folds a round once
// every pending ordinal is available, so in steady state this never
// blocks — the wait is a fallback for posts racing the ready check,
// unblocked by Close when a session is torn down mid-round.
func (r *RemoteSource) Measure(i, ord int) (evaluator.Sample, error) {
	r.mu.Lock()
	for len(r.obs[i]) <= ord && !r.closed {
		r.cond.Wait()
	}
	if len(r.obs[i]) <= ord {
		r.mu.Unlock()
		return evaluator.Sample{}, ErrNotAccepting
	}
	o := r.obs[i][ord]
	if ord >= r.served[i] {
		r.depth -= ord + 1 - r.served[i]
		r.served[i] = ord + 1
	}
	r.mu.Unlock()
	s := evaluator.Sample{Value: o.value}
	if ord == 0 {
		s.Compile = o.compile
	}
	return s, nil
}

// Close rejects further posts and unblocks any Measure waiting on an
// observation that will never arrive. Idempotent.
func (r *RemoteSource) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
}
