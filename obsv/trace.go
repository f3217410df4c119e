package obsv

import (
	"context"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// TraceHeader is the wire header carrying "traceID-spanID" from the
// coordinator to shard servers, so one query's spans correlate across
// processes.
const TraceHeader = "X-Pitex-Trace"

// FormatTraceHeader renders the header value. spanID may be empty.
func FormatTraceHeader(traceID, spanID string) string {
	if spanID == "" {
		return traceID
	}
	return traceID + "-" + spanID
}

// ParseTraceHeader splits a header value back into its IDs. IDs are hex
// strings, so the separator is unambiguous.
func ParseTraceHeader(v string) (traceID, spanID string, ok bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", "", false
	}
	traceID, spanID, _ = strings.Cut(v, "-")
	if !validHexID(traceID) || (spanID != "" && !validHexID(spanID)) {
		return "", "", false
	}
	return traceID, spanID, true
}

func validHexID(s string) bool {
	if s == "" || len(s) > 32 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// newID mints a random non-zero 64-bit ID. IDs need to be unique, not
// unpredictable, so the runtime's per-thread generator mints them with no
// system call and no allocation; the hex form is rendered only when a
// header or an exported trace needs it.
func newID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// formatID renders an ID as 16 lower-case hex digits.
func formatID(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// maxSpansPerTrace bounds one trace's span list: a best-first query can
// run hundreds of estimations, each with scatter/RPC children, and an
// unbounded trace would turn a slow query into a memory problem. Spans
// past the cap are counted, not recorded.
const maxSpansPerTrace = 512

// attr is one span attribute.
type attr struct {
	key   string
	value any
}

// Span is one timed stage of a trace. A nil *Span is a valid no-op
// receiver, so un-traced code paths cost one pointer check.
type Span struct {
	tr     *Trace
	name   string
	id     uint64
	parent uint64 // 0 for a root-level span
	start  time.Time

	mu      sync.Mutex
	dur     time.Duration
	ended   bool
	sealed  bool // the trace finished: attributes are frozen
	attrs   []attr
	attrBuf [2]attr // backs attrs up to two entries
}

// SetAttr attaches one key/value to the span (last write per key wins).
// Once the span's trace has finished it is a no-op.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, attr{key, value})
}

// End records the span's duration; only the first End counts.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// ID returns the span's hex ID ("" for nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return formatID(s.id)
}

// StartChild opens a child span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(name, s.id)
}

// data exports the span; one still open reports its duration so far.
func (s *Span) data() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := SpanData{
		Name:          s.name,
		SpanID:        formatID(s.id),
		StartUnixNano: s.start.UnixNano(),
		DurationNs:    int64(s.dur),
	}
	if s.parent != 0 {
		sd.ParentID = formatID(s.parent)
	}
	if !s.ended {
		sd.DurationNs = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			sd.Attrs[a.key] = a.value
		}
	}
	return sd
}

// Trace is one request's span collection. Create one with
// Tracer.StartTrace (or Join, on the receiving side of a propagated
// header); a nil *Trace no-ops every method.
type Trace struct {
	id     string
	name   string
	start  time.Time
	tracer *Tracer

	mu      sync.Mutex
	spans   []*Span
	dropped int
	done    bool
	dur     time.Duration // set by Finish
	// first and firstSlot back the first span and the span list's first
	// entry, so a one-span trace (a cache hit) is one allocation.
	first     Span
	firstSlot [1]*Span
}

// ID returns the trace's hex ID ("" for nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a root-level span.
func (t *Trace) StartSpan(name string) *Span {
	return t.startSpan(name, 0)
}

// startSpan opens a span under parent (0 for root level). A full or
// finished trace returns nil before building anything: past the cap a
// span costs one counter increment.
func (t *Trace) startSpan(name string, parent uint64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil
	}
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return nil
	}
	sp := &t.first
	if len(t.spans) == 0 {
		t.spans = t.firstSlot[:0]
	} else {
		sp = new(Span)
	}
	sp.tr, sp.name, sp.id, sp.parent, sp.start = t, name, newID(), parent, time.Now()
	t.spans = append(t.spans, sp)
	return sp
}

// SpanData is the exported (JSON) form of a span.
type SpanData struct {
	Name          string         `json:"name"`
	SpanID        string         `json:"span_id"`
	ParentID      string         `json:"parent_id,omitempty"`
	StartUnixNano int64          `json:"start_unix_nano"`
	DurationNs    int64          `json:"duration_ns"`
	Attrs         map[string]any `json:"attrs,omitempty"`
}

// TraceData is the exported (JSON) form of a finished trace, the shape
// /tracez serves and ?trace=1 inlines.
type TraceData struct {
	TraceID       string     `json:"trace_id"`
	Name          string     `json:"name"`
	StartUnixNano int64      `json:"start_unix_nano"`
	DurationNs    int64      `json:"duration_ns"`
	DroppedSpans  int        `json:"dropped_spans,omitempty"`
	Spans         []SpanData `json:"spans"`
}

// Finish seals the trace and records it into its tracer's ring. Spans
// still open are closed at the trace's end time; afterwards no span
// opens and no attribute changes, so the recorded trace reads the same
// whenever it is exported. Only the first Finish counts.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	now := time.Now()
	t.dur = now.Sub(t.start)
	spans := t.spans
	t.mu.Unlock()
	for _, sp := range spans {
		sp.mu.Lock()
		if !sp.ended {
			sp.ended = true
			sp.dur = now.Sub(sp.start)
		}
		sp.sealed = true
		sp.mu.Unlock()
	}
	if t.tracer != nil {
		t.tracer.record(t)
	}
}

// Data returns the exported form, built on every call: only /tracez and
// ?trace=1 ask for it, so a trace nobody reads never pays for it. Before
// Finish it reports the trace so far.
func (t *Trace) Data() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	td := TraceData{
		TraceID:       t.id,
		Name:          t.name,
		StartUnixNano: t.start.UnixNano(),
		DurationNs:    int64(t.dur),
		DroppedSpans:  t.dropped,
	}
	if !t.done {
		td.DurationNs = int64(time.Since(t.start))
	}
	spans := t.spans
	t.mu.Unlock()
	td.Spans = make([]SpanData, len(spans))
	for i, sp := range spans {
		td.Spans[i] = sp.data()
	}
	return td
}

type traceCtxKey struct{}
type spanCtxKey struct{}

// ContextWithTrace attaches a trace to ctx; it survives
// context.WithoutCancel, so serving layers that decouple estimation
// from client cancellation keep their correlation.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// SpanFrom returns the current span attached to ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a span as a child of ctx's current span (root-level
// when there is none) and returns the span plus a derived context with
// it as current. When ctx carries no trace it returns (nil, ctx)
// unchanged — zero cost on un-traced paths.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	t := TraceFrom(ctx)
	if t == nil {
		return nil, ctx
	}
	var sp *Span
	if parent := SpanFrom(ctx); parent != nil {
		sp = parent.StartChild(name)
	} else {
		sp = t.StartSpan(name)
	}
	if sp == nil {
		return nil, ctx
	}
	return sp, context.WithValue(ctx, spanCtxKey{}, sp)
}
