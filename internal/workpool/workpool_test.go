package workpool

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 1000
		hits := make([]int32, n)
		ParallelFor(workers, n, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestNestedParallelFor pins the deadlock-freedom contract: a body
// running on a pool worker may itself call ParallelFor. With a
// buffered task channel this case hangs (sub-shards sit in the buffer
// while every worker blocks in its outer wait); the unbuffered channel
// plus inline fallback must complete it.
func TestNestedParallelFor(t *testing.T) {
	outer, inner := 8, 8
	var total int64
	ParallelFor(0, outer, func(start, end int) {
		for i := start; i < end; i++ {
			//alic:allow parfor deliberately nested: regression test for the inline-fallback deadlock fix
			ParallelFor(0, inner, func(s, e int) {
				atomic.AddInt64(&total, int64(e-s))
			})
		}
	})
	if total != int64(outer*inner) {
		t.Fatalf("nested total %d, want %d", total, outer*inner)
	}
}
