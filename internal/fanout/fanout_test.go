package fanout

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunClaimsEveryIndexOnce: every index is handed out exactly once, to
// no more goroutines than asked for (and never more than there are
// indices), whatever the worker count.
func TestRunClaimsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers, wantWorkers int }{
		{0, 3, 0}, {1, 3, 1}, {10, 3, 3}, {10, 0, 4}, {100, 1, 1},
	} {
		seen := make([]atomic.Int32, tc.n)
		workers := 0
		Run(tc.n, tc.workers, func() func(int) {
			workers++
			return func(i int) { seen[i].Add(1) }
		})
		if workers != tc.wantWorkers {
			t.Errorf("n=%d workers=%d: %d goroutines, want %d", tc.n, tc.workers, workers, tc.wantWorkers)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestRunDrainsAfterCancel: cancelling the caller mid-run (here, when the
// first index completes) still hands every later index to a worker, so a
// batch can mark those rows with ctx.Err() instead of running them, and
// Run returns.
func TestRunDrainsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, 7)
	Run(len(errs), 1, func() func(int) {
		return func(i int) {
			if errs[i] = ctx.Err(); i == 0 {
				cancel()
			}
		}
	})
	if errs[0] != nil {
		t.Fatalf("index 0 ran cancelled: %v", errs[0])
	}
	for i, err := range errs[1:] {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("index %d after cancellation: err = %v, want context.Canceled", i+1, err)
		}
	}
}
