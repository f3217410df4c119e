package obsv

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Tracer owns a fixed ring of recently finished traces and mints new
// ones. Both server binaries keep one and expose its Handler as
// /tracez.
type Tracer struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	count int
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 128

// NewTracer returns a tracer retaining the last capacity finished
// traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]*Trace, capacity)}
}

// StartTrace begins a trace with a freshly minted ID. Safe on a nil
// tracer (returns nil, and every downstream span call no-ops).
func (tr *Tracer) StartTrace(name string) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{id: formatID(newID()), name: name, start: time.Now(), tracer: tr}
}

// Join begins a trace adopting a propagated trace ID (minting one if
// traceID is empty), used by shard servers on receipt of X-Pitex-Trace.
func (tr *Tracer) Join(traceID, name string) *Trace {
	if tr == nil {
		return nil
	}
	if traceID == "" {
		traceID = formatID(newID())
	}
	return &Trace{id: traceID, name: name, start: time.Now(), tracer: tr}
}

// record keeps a finished trace in the ring; its exported form is built
// only when the ring is read.
func (tr *Tracer) record(t *Trace) {
	tr.mu.Lock()
	tr.buf[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.buf)
	if tr.count < len(tr.buf) {
		tr.count++
	}
	tr.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (tr *Tracer) Snapshot() []TraceData {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	traces := make([]*Trace, 0, tr.count)
	for i := 1; i <= tr.count; i++ {
		traces = append(traces, tr.buf[(tr.next-i+len(tr.buf))%len(tr.buf)])
	}
	tr.mu.Unlock()
	out := make([]TraceData, len(traces))
	for i, t := range traces {
		out[i] = t.Data()
	}
	return out
}

// Handler returns the /tracez HTTP handler: the retained traces as
// {"traces":[...]}, newest first.
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"traces": tr.Snapshot()})
	})
}
