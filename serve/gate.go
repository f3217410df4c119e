package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pitex/obsv"
)

// Admission errors. Handlers map all three to 503 Service Unavailable so
// load balancers retry elsewhere.
var (
	// ErrOverloaded reports that the admission bound (PoolSize +
	// QueueDepth outstanding requests) was hit; the request was shed
	// without waiting.
	ErrOverloaded = errors.New("serve: pool overloaded, request shed")
	// ErrQueueTimeout reports that an admitted request waited longer than
	// QueueTimeout for a free slot.
	ErrQueueTimeout = errors.New("serve: timed out waiting for a free engine")
	// ErrPoolClosed reports that the server was closed.
	ErrPoolClosed = errors.New("serve: pool closed")

	// errWaitAborted marks a queue wait ended by the requester's own
	// context. It wraps the context error, so errors.Is still matches
	// context.Canceled / DeadlineExceeded; the cache uses the marker to
	// tell caller-specific failures (retryable by other callers) from
	// shared verdicts like a query timeout (which bind every waiter).
	errWaitAborted = errors.New("serve: request context ended while waiting for an engine")
)

// PoolStats is a point-in-time snapshot of a server's admission gate.
// Its counters run for the server's whole life, across hot-swaps.
type PoolStats struct {
	Size     int   `json:"size"`
	InUse    int64 `json:"in_use"`
	Waiting  int64 `json:"waiting"`
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
	Timeouts int64 `json:"timeouts"`
}

// gate is the admission primitive of both servers: a slot per worker, a
// bounded queue behind the slots with a timed wait, and a close latch.
// Each server has one for its whole life (serverCore.gate), in front of
// every generation's scratch. All methods are safe for concurrent use.
type gate struct {
	// slots holds one token per request in service.
	slots chan struct{}
	// bound caps outstanding requests (in service plus queued); admitted
	// counts them.
	bound    int64
	admitted atomic.Int64
	// timeout caps the queue wait (<= 0 waits until cancellation).
	timeout time.Duration

	closeOnce sync.Once
	closed    chan struct{}

	inUse    atomic.Int64
	waiting  atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
}

// newGate returns a gate of size slots (at least 1) and queueDepth queue
// places (a negative depth queues nothing); queueTimeout <= 0 waits until
// cancellation.
func newGate(size, queueDepth int, queueTimeout time.Duration) *gate {
	size, queueDepth = max(size, 1), max(queueDepth, 0)
	return &gate{
		slots:   make(chan struct{}, size),
		bound:   int64(size + queueDepth),
		timeout: queueTimeout,
		closed:  make(chan struct{}),
	}
}

// enter admits one request to a slot; the caller must leave after it
// succeeds. It fails with ErrPoolClosed once the gate is closed, with an
// errWaitAborted-wrapped ctx.Err() when the caller's context has ended or
// ends while queued, with ErrOverloaded beyond the bound and with
// ErrQueueTimeout when the queue wait runs out.
func (g *gate) enter(ctx context.Context) error {
	if err := g.open(); err != nil {
		return err
	}
	// A request whose context is already dead (client disconnected, hedge
	// lost) must not occupy a slot. Marked caller-specific so deduplicated
	// followers retry rather than inherit the failure.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", errWaitAborted, err)
	}
	if !g.admit() {
		g.rejected.Add(1)
		return ErrOverloaded
	}
	// Fast path: a free slot means no timer to arm and no racing select
	// (a timer firing simultaneously with a release could otherwise time
	// a request out despite available capacity).
	select {
	case g.slots <- struct{}{}:
	default:
		if err := g.wait(ctx); err != nil {
			g.admitted.Add(-1)
			return err
		}
	}
	g.inUse.Add(1)
	g.served.Add(1)
	return nil
}

// admit counts one more outstanding request unless the bound is reached.
// It never counts past the bound, even for a moment, so a request shed
// here cannot make a concurrent one see the gate fuller than it is.
func (g *gate) admit() bool {
	for {
		n := g.admitted.Load()
		if n >= g.bound {
			return false
		}
		if g.admitted.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// wait queues an admitted request for a slot, bounded by the queue
// timeout, the caller's context and the close latch.
func (g *gate) wait(ctx context.Context) error {
	var timeoutC <-chan time.Time
	if g.timeout > 0 {
		t := time.NewTimer(g.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	g.waiting.Add(1)
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-timeoutC:
		// The timer can fire in the same instant a slot frees, with the
		// select picking at random; don't shed while capacity sits idle.
		select {
		case g.slots <- struct{}{}:
			return nil
		default:
		}
		g.timeouts.Add(1)
		return ErrQueueTimeout
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", errWaitAborted, ctx.Err())
	case <-g.closed:
		return ErrPoolClosed
	}
}

// leave releases the slot a successful enter took.
func (g *gate) leave() {
	g.inUse.Add(-1)
	<-g.slots
	g.admitted.Add(-1)
}

// open reports ErrPoolClosed once the gate is closed.
func (g *gate) open() error {
	select {
	case <-g.closed:
		return ErrPoolClosed
	default:
		return nil
	}
}

// close refuses queued waiters and future requests; requests holding a
// slot finish normally. Idempotent.
func (g *gate) close() {
	g.closeOnce.Do(func() { close(g.closed) })
}

// stats snapshots the gate counters.
func (g *gate) stats() PoolStats {
	return PoolStats{
		Size:     cap(g.slots),
		InUse:    g.inUse.Load(),
		Waiting:  g.waiting.Load(),
		Served:   g.served.Load(),
		Rejected: g.rejected.Load(),
		Timeouts: g.timeouts.Load(),
	}
}

// stack is one generation's idle request scratch: engine clones on a
// Server, estimator sets on a ShardServer. Scratch is costly to build and
// not safe to share, so a request borrows one behind the gate and returns
// it to the stack of the generation it ran on, most recently returned
// first so the next request finds it warm. A hot-swap publishes a new
// generation with a stack of its own; the old one is garbage once the
// requests holding its scratch finish.
type stack[T any] struct {
	// build makes scratch when none is idle.
	build func() T
	mu    sync.Mutex
	idle  []T
}

func (s *stack[T]) push(v T) {
	s.mu.Lock()
	s.idle = append(s.idle, v)
	s.mu.Unlock()
}

// pop borrows the most recently returned scratch, or builds one.
func (s *stack[T]) pop() T {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		v := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return s.build()
}

// borrow is both servers' admission path: enter the core's gate, end sp
// (the caller's admission span), borrow scratch from the generation's
// stack, run fn on it and return it to that stack. The gate bounds the
// borrowers of all generations together, so a stack never holds more
// scratch than the gate has slots. A panic in fn unwinds past the
// return: scratch left in an unknown state is dropped, never reused.
func borrow[T any](ctx context.Context, c *serverCore, sp *obsv.Span, scratch *stack[T], fn func(T) error) error {
	err := c.gate.enter(ctx)
	sp.End()
	if err != nil {
		return err
	}
	defer c.gate.leave()
	v := scratch.pop()
	err = fn(v)
	scratch.push(v)
	return err
}
