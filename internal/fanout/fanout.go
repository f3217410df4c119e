// Package fanout is the one batch fan-out behind pitex.Engine.QueryAll,
// serve's batch queries and analytics.Run's chunk pool: n indices spread
// over a fixed set of goroutines, each with its own worker state.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run hands every index in [0, n) to exactly one of at most workers
// goroutines, in increasing order, and returns once all of them have
// returned. newWorker is called once per goroutine, on the caller's
// goroutine, so a worker can carry per-goroutine state such as an engine
// clone; the function it returns is called with each index that goroutine
// claims. workers <= 0 means 4.
//
// Run always drains: it never abandons an index, so a cancelled caller
// makes its function return early for the indices left (a batch marks
// them with ctx.Err()) and leaks no goroutine.
func Run(n, workers int, newWorker func() func(i int)) {
	if workers <= 0 {
		workers = 4
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		do := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}
