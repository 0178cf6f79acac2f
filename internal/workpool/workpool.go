// Package workpool provides the deterministic parallel loops behind
// the parallelism that pays in this system: concurrent measurements
// (the evaluator engine's batches) and concurrent learning runs (the
// experiment harness). ParallelFor shards CPU-bound index ranges over
// one process-wide pool, so nested use (the harness running many
// learners, each measuring a batch) never oversubscribes the machine:
// total pool workers never exceed GOMAXPROCS, and submissions that
// find no idle worker run inline on the caller. DynamicFor pulls
// indices on dedicated goroutines, for work whose durations vary or
// that waits on latency rather than CPU.
//
//alic:deterministic
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is a lazily-started, fixed-size set of goroutines fed through
// an unbuffered channel.
type pool struct {
	once  sync.Once
	tasks chan func()
}

// shared is the process-wide pool.
var shared pool

func (p *pool) start() {
	p.once.Do(func() {
		// Unbuffered on purpose: a send succeeds only when a worker is
		// actually idle in its receive. A buffer would absorb
		// submissions while every worker is blocked waiting on nested
		// sub-shards, deadlocking nested ParallelFor calls; with no
		// buffer those submissions fall through to the inline path
		// instead.
		p.tasks = make(chan func())
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				for task := range p.tasks {
					task()
				}
			}()
		}
	})
}

// submit hands the task to an idle pool worker, or runs it inline when
// every worker is busy. The inline fallback (plus the unbuffered
// channel) makes submission deadlock-free under arbitrary nesting.
func (p *pool) submit(task func()) {
	select {
	case p.tasks <- task:
	default:
		task()
	}
}

// ParallelFor splits [0, n) into at most `workers` contiguous shards
// and runs body on each shard concurrently, returning when all shards
// are done. workers <= 0 means GOMAXPROCS.
//
// Determinism contract: body must write only to index-addressed
// locations disjoint across shards (no shared accumulators). Shard
// boundaries never reorder arithmetic *within* an index, so any
// per-index result is bit-identical for every worker count; reductions
// across indices must be performed by the caller in index order.
func ParallelFor(workers, n int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	shared.start()
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		s, e := start, end
		shared.submit(func() {
			defer wg.Done()
			body(s, e)
		})
	}
	wg.Wait()
}

// DynamicFor runs body(i) for every i in [0, n) on up to `workers`
// dedicated goroutines that pull the next index dynamically — the
// balancing ParallelFor's static contiguous shards cannot give when
// per-index durations vary widely, or when the work is latency-bound
// (sleeps, I/O) and must not be clamped to the CPU-sized shared pool.
// workers <= 0 means GOMAXPROCS. The same determinism contract as
// ParallelFor applies: body must write only to index-addressed
// locations.
func DynamicFor(workers, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}
