package workpool

import (
	"sync/atomic"
	"testing"
)

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		for _, n := range []int{0, 1, 7, 100} {
			seen := make([]int32, n)
			Do(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}
