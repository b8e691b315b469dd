// Package workpool runs indexed work items over a bounded goroutine pool.
package workpool

import (
	"runtime"
	"sync"
)

// Do runs f(0..n-1) over at most workers goroutines; workers <= 0 means
// runtime.NumCPU(), and a single worker runs inline. Each index is
// processed exactly once; f must only write to per-index state, which
// makes the result independent of the pool size.
func Do(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}
