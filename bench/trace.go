package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pitex"
	"pitex/internal/bestfirst"
	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// span is one timed call into a layer, recorded from outside: the
// benchmark times the public function (or decorates the public interface)
// at the layer's boundary. Times are nanoseconds since the trace began.
type span struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
	// Parent is the span that caused this one (0 for a boundary replay's
	// outermost span); Req is the op index, shared by every span of one
	// request and by the same request's spans in other boundary replays.
	Parent int   `json:"parent"`
	Req    int   `json:"req"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanReqCap bounds how many requests per boundary replay leave spans in
// the trace file; metrics use every op regardless.
const spanReqCap = 2000

// tracer keeps spans in memory until the run ends. The traced phase runs
// one request at a time, so "the current request" and "the in-flight
// scatter" are process-wide facts the decorators can read without any
// context plumbing through the program under test.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span

	req, reqSpan, scatter atomic.Int64
	// rpcs and wireBytes count /shard/estimate calls and their request +
	// response body bytes, at the shard handlers.
	rpcs, wireBytes atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when the request is past the
// recording cap).
func (t *tracer) begin(name string, parent, req int) int {
	if req >= spanReqCap {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now})
	return id
}

// add records a span whose interval was observed elsewhere.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// request opens the outermost span of op req at a boundary and makes it
// current; the returned func closes it.
func (t *tracer) request(name string, req int) func() {
	id := t.begin(name, 0, req)
	t.req.Store(int64(req))
	t.reqSpan.Store(int64(id))
	return func() { t.end(id) }
}

// snapshot copies the spans recorded so far, in ID order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON: {"workload":..., "spans":[...]}.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// innerEstimator is what every index estimator the engine builds offers.
type innerEstimator interface {
	bestfirst.Estimator
	bestfirst.FrontierEstimator
}

// tracedEstimator decorates the estimator under a bench-built explorer:
// it times every call (L4), counts frontier calls and their widths, and
// captures a few frontier inputs.
type tracedEstimator struct {
	inner innerEstimator
	tr    *tracer

	busy          time.Duration
	frontierCalls int64
	frontierWidth int64
	// captured holds the sibling posteriors of the first few frontier
	// calls, for the sampling-layer micro-measurement.
	captured [][][]float64
}

// frontierCaptureCap bounds the captured frontier inputs.
const frontierCaptureCap = 32

func (e *tracedEstimator) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	id := e.tr.begin("rrindex.estimate", int(e.tr.reqSpan.Load()), int(e.tr.req.Load()))
	start := time.Now()
	r := e.inner.EstimateProber(u, prober)
	e.busy += time.Since(start)
	e.tr.end(id)
	return r
}

func (e *tracedEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	if len(posteriors) > 1 && len(e.captured) < frontierCaptureCap {
		cp := make([][]float64, len(posteriors))
		for i, p := range posteriors {
			cp[i] = append([]float64(nil), p...)
		}
		e.captured = append(e.captured, cp)
	}
	id := e.tr.begin("rrindex.estimate", int(e.tr.reqSpan.Load()), int(e.tr.req.Load()))
	start := time.Now()
	r := e.inner.EstimateFrontier(u, posteriors, stop)
	e.busy += time.Since(start)
	e.tr.end(id)
	e.frontierCalls++
	e.frontierWidth += int64(len(posteriors))
	return r
}

// scatterCall is one captured EstimateRemote input.
type scatterCall struct {
	user  int
	probe pitex.RemoteProbe
}

// tracedRemote decorates the RemoteEstimator a coordinator engine
// scatters through. Scatters of one query are sequential and the traced
// phase runs one query at a time, so plain fields suffice — but pool
// clones share the decorator, hence the mutex.
type tracedRemote struct {
	inner pitex.RemoteEstimator
	tr    *tracer

	mu       sync.Mutex
	busy     time.Duration
	captured []scatterCall
}

// scatterCaptureCap bounds the captured scatter inputs.
const scatterCaptureCap = 600

func (r *tracedRemote) EstimateRemote(ctx context.Context, user int, probe pitex.RemoteProbe) (pitex.RemoteEstimate, error) {
	id := r.tr.begin("distrib.scatter", int(r.tr.reqSpan.Load()), int(r.tr.req.Load()))
	r.tr.scatter.Store(int64(id))
	start := time.Now()
	est, err := r.inner.EstimateRemote(ctx, user, probe)
	d := time.Since(start)
	r.tr.end(id)
	r.mu.Lock()
	r.busy += d
	if len(r.captured) < scatterCaptureCap {
		r.captured = append(r.captured, scatterCall{user, probe})
	}
	r.mu.Unlock()
	return est, err
}

// scattered returns the cumulative time spent inside scatters.
func (r *tracedRemote) scattered() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// scatters returns the captured scatter inputs.
func (r *tracedRemote) scatters() []scatterCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]scatterCall(nil), r.captured...)
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// shardMiddleware wraps a ShardServer.Handler: every /shard/estimate call
// becomes a span under the in-flight scatter and adds to the RPC and wire
// byte counts.
func (t *tracer) shardMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/estimate" {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin("serve.shard_handler", int(t.scatter.Load()), int(t.req.Load()))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.end(id)
		t.rpcs.Add(1)
		t.wireBytes.Add(r.ContentLength + cw.n)
	})
}
