package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pitex"
)

// Pool errors. Handlers map ErrOverloaded and ErrQueueTimeout to
// 503 Service Unavailable so load balancers retry elsewhere.
var (
	// ErrOverloaded reports that the pool's admission bound (PoolSize +
	// QueueDepth outstanding requests) was hit; the request was shed
	// without waiting.
	ErrOverloaded = errors.New("serve: pool overloaded, request shed")
	// ErrQueueTimeout reports that an admitted request waited longer than
	// QueueTimeout for a free engine.
	ErrQueueTimeout = errors.New("serve: timed out waiting for a free engine")
	// ErrPoolClosed reports that the pool was shut down.
	ErrPoolClosed = errors.New("serve: pool closed")

	// errWaitAborted marks a queue wait ended by the requester's own
	// context. It wraps the context error, so errors.Is still matches
	// context.Canceled / DeadlineExceeded; the cache uses the marker to
	// tell caller-specific failures (retryable by other callers) from
	// shared verdicts like a query timeout (which bind every waiter).
	errWaitAborted = errors.New("serve: request context ended while waiting for an engine")
)

// PoolStats is a point-in-time snapshot of pool activity.
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
// Pool puts one in front of its engine clones; ShardServer puts one in
// front of its estimations. All methods are safe for concurrent use.
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

func newGate(size, queueDepth int, queueTimeout time.Duration) *gate {
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

// Pool manages N Engine.Clone workers over one shared offline index with
// checkout/checkin, context-aware cancellation and admission control. All
// methods are safe for concurrent use.
type Pool struct {
	gate *gate
	// engines holds the idle clones; the gate admits at most one request
	// per clone, so a request past the gate never waits here.
	engines chan *pitex.Engine

	// indexBytes is the offline index footprint shared by every engine in
	// the pool, captured at construction (clones share the prototype's
	// index, so one number describes them all). shardStats is the per-shard
	// breakdown, nil for online strategies. effectiveEpsilon is the
	// prototype's IndexEffectiveEpsilon at construction, epsilon its
	// configured ε.
	indexBytes       int64
	shardStats       []pitex.IndexShardStat
	effectiveEpsilon float64
	epsilon          float64
}

// NewPool clones the prototype engine size times (sharing its offline
// index) and returns a ready pool. queueDepth bounds how many requests may
// wait beyond the size in service; queueTimeout caps the wait for a free
// engine (<= 0 means wait until cancellation).
func NewPool(proto *pitex.Engine, size, queueDepth int, queueTimeout time.Duration) *Pool {
	if size < 1 {
		size = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &Pool{
		gate:             newGate(size, queueDepth, queueTimeout),
		engines:          make(chan *pitex.Engine, size),
		indexBytes:       proto.IndexMemoryBytes(),
		shardStats:       proto.IndexShardStats(),
		effectiveEpsilon: proto.IndexEffectiveEpsilon(),
		epsilon:          proto.Options().Epsilon,
	}
	for i := 0; i < size; i++ {
		p.engines <- proto.Clone()
	}
	return p
}

// Size returns the number of engine workers.
func (p *Pool) Size() int { return cap(p.engines) }

// IndexBytes returns the estimated in-memory size of the offline index
// shared by the pool's engines (0 for online strategies).
func (p *Pool) IndexBytes() int64 { return p.indexBytes }

// EffectiveEpsilon returns the ε the pool's index delivers (Eq. 7 at its
// θ), captured at construction; 0 for online strategies.
func (p *Pool) EffectiveEpsilon() float64 { return p.effectiveEpsilon }

// ShardStats returns the per-shard index breakdown captured at
// construction (nil for online strategies; one row for monolithic
// indexes).
func (p *Pool) ShardStats() []pitex.IndexShardStat { return p.shardStats }

// Do checks an engine out of the pool, runs fn with it, and checks it back
// in. It fails fast with ErrOverloaded when the admission bound is hit,
// with ErrQueueTimeout after the queue timeout, with ctx.Err() when the
// caller gives up first, and with ErrPoolClosed after Close.
func (p *Pool) Do(ctx context.Context, fn func(*pitex.Engine) error) error {
	if err := p.gate.enter(ctx); err != nil {
		return err
	}
	defer p.gate.leave()
	en := <-p.engines
	defer func() { p.engines <- en }()
	return fn(en)
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats { return p.gate.stats() }

// Close shuts the pool down: queued waiters and future Do calls fail with
// ErrPoolClosed; requests already holding an engine finish normally.
func (p *Pool) Close() { p.gate.close() }

// DrainAndClose retires the pool in the background: it waits until no
// request is in service or queued — the hot-swap case, where requests that
// entered before the pool pointer moved finish on the old generation —
// then closes. maxWait bounds the wait; when it elapses the pool closes
// anyway and stragglers fail with ErrPoolClosed, so a wedged query cannot
// pin a retired engine (and its index) forever.
func (p *Pool) DrainAndClose(maxWait time.Duration) {
	go func() {
		deadline := time.Now().Add(maxWait)
		for time.Now().Before(deadline) {
			if p.gate.admitted.Load() == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		p.Close()
	}()
}
