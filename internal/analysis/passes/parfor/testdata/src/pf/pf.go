// Package pf exercises the parfor analyzer: writes from a
// ParallelFor body closure must be indexed by the closure's shard
// parameters; nesting and captured-channel sends are flagged.
package pf

import "alic/internal/workpool"

type counter struct{ n int }

func racyAccumulate(xs []float64) float64 {
	total := 0.0
	workpool.ParallelFor(4, len(xs), func(start, end int) {
		for i := start; i < end; i++ {
			total += xs[i] // want `write to captured "total" is not indexed`
		}
	})
	return total
}

func incCaptured(n int) int {
	count := 0
	workpool.ParallelFor(2, n, func(start, end int) {
		count++ // want `write to captured "count" is not indexed`
	})
	return count
}

func structField(c *counter, n int) {
	workpool.ParallelFor(2, n, func(start, end int) {
		c.n = end // want `write to captured "c" is not indexed`
	})
}

func channelFanout(ch chan int, n int) {
	workpool.ParallelFor(2, n, func(start, end int) {
		ch <- start // want "send on a captured channel from a ParallelFor body"
	})
}

func nested(n int) {
	workpool.ParallelFor(2, n, func(start, end int) {
		workpool.ParallelFor(2, end-start, func(s, e int) { // want "nested ParallelFor inside a ParallelFor body"
			_ = s
		})
	})
}

func nestedAllowed(n int) {
	workpool.ParallelFor(2, n, func(start, end int) {
		//alic:allow parfor fixture: the inline-fallback pool tolerates nesting
		workpool.ParallelFor(2, end-start, func(s, e int) { // want-suppressed "nested ParallelFor inside a ParallelFor body"
			_ = s
		})
	})
}

// shardedWrite is the sanctioned shape: every write lands at an index
// derived from the shard parameters.
func shardedWrite(out, xs []float64) {
	workpool.ParallelFor(4, len(xs), func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = 2 * xs[i]
		}
	})
}

// derivedIndex writes through a local derived from the shard
// parameters: taint propagation accepts the indirection.
func derivedIndex(out []float64, slots []int) {
	workpool.ParallelFor(2, len(slots), func(start, end int) {
		for k := start; k < end; k++ {
			slot := slots[k]
			out[slot] = 1
		}
	})
}

// dynamicShard covers the DynamicFor entry point's per-index body.
func dynamicShard(out []float64) {
	workpool.DynamicFor(2, len(out), func(i int) {
		out[i] = float64(i)
	})
}

// localState writes only closure-local variables.
func localState(n int) {
	workpool.ParallelFor(2, n, func(start, end int) {
		sum := 0
		for i := start; i < end; i++ {
			sum += i
		}
		_ = sum
	})
}
