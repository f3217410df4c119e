package obsv

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type testResp struct {
	status int
	header http.Header
	body   string
}

type testServer struct{ s *httptest.Server }

func newTestServer(t *testing.T, h http.Handler) *testServer {
	t.Helper()
	s := httptest.NewServer(h)
	t.Cleanup(s.Close)
	return &testServer{s: s}
}

func (ts *testServer) get(t *testing.T, path string) testResp {
	t.Helper()
	resp, err := http.Get(ts.s.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return testResp{status: resp.StatusCode, header: resp.Header, body: string(body)}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.StartTrace("query")
	if trace.ID() == "" || len(trace.ID()) != 16 {
		t.Fatalf("trace ID = %q, want 16 hex chars", trace.ID())
	}
	root := trace.StartSpan("root")
	root.SetAttr("user", 42)
	child := root.StartChild("rpc")
	child.SetAttr("endpoint", "http://shard")
	child.End()
	root.End()
	trace.Finish()
	td := trace.Data()

	if td.TraceID != trace.ID() || td.Name != "query" {
		t.Fatalf("TraceData = %+v", td)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(td.Spans))
	}
	if td.Spans[0].Name != "root" || td.Spans[0].ParentID != "" {
		t.Fatalf("root span = %+v", td.Spans[0])
	}
	if td.Spans[1].ParentID != td.Spans[0].SpanID {
		t.Fatalf("child parent = %q, want %q", td.Spans[1].ParentID, td.Spans[0].SpanID)
	}
	if td.Spans[1].Attrs["endpoint"] != "http://shard" {
		t.Fatalf("child attrs = %+v", td.Spans[1].Attrs)
	}
	if td.Spans[0].DurationNs < td.Spans[1].DurationNs {
		t.Fatal("root shorter than child")
	}
}

func TestTraceFinishIdempotent(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.StartTrace("q")
	trace.StartSpan("s").End()
	trace.Finish()
	trace.Finish()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("double Finish recorded %d traces, want 1", got)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.StartTrace("big")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		sp := trace.StartSpan("s")
		sp.End()
		if i >= maxSpansPerTrace && sp != nil {
			t.Fatal("span past cap was not dropped")
		}
	}
	trace.Finish()
	td := trace.Data()
	if len(td.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want %d", len(td.Spans), maxSpansPerTrace)
	}
	if td.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", td.DroppedSpans)
	}
}

// TestStartSpanPastCapAllocs: once a trace holds maxSpansPerTrace spans,
// opening another builds nothing — no span, no ID — and only counts it.
func TestStartSpanPastCapAllocs(t *testing.T) {
	trace := NewTracer(1).StartTrace("full")
	root := trace.StartSpan("root")
	for i := 1; i < maxSpansPerTrace; i++ {
		trace.StartSpan("s")
	}
	if got := testing.AllocsPerRun(100, func() {
		if trace.StartSpan("over") != nil || root.StartChild("over") != nil {
			t.Fatal("span past cap was not dropped")
		}
	}); got != 0 {
		t.Fatalf("StartSpan on a full trace allocates %v times, want 0", got)
	}
	trace.Finish()
	if td := trace.Data(); len(td.Spans) != maxSpansPerTrace || td.DroppedSpans != 202 {
		t.Fatalf("spans = %d, dropped = %d, want %d and 202", len(td.Spans), td.DroppedSpans, maxSpansPerTrace)
	}
}

// TestFinishSeals: after Finish the recorded trace no longer changes —
// a late span is not opened, a late attribute is dropped, a late End
// does not move a duration — so the ring and ?trace=1 export the same
// document whenever they are read.
func TestFinishSeals(t *testing.T) {
	tr := NewTracer(2)
	trace := tr.StartTrace("sealed")
	sp := trace.StartSpan("s")
	sp.SetAttr("a", 1)
	sp.SetAttr("b", "x")
	sp.SetAttr("a", 2) // last write wins
	open := trace.StartSpan("open")
	trace.Finish()
	before := trace.Data()

	sp.SetAttr("late", true)
	open.End()
	if trace.StartSpan("late") != nil || sp.StartChild("late") != nil {
		t.Fatal("a finished trace opened a span")
	}
	after := tr.Snapshot()
	if len(after) != 1 || !reflect.DeepEqual(after[0], before) {
		t.Fatalf("ring holds %+v, want %+v", after, before)
	}
	if got := before.Spans[0].Attrs; len(got) != 2 || got["a"] != 2 || got["b"] != "x" {
		t.Fatalf("attrs = %v, want a=2 b=x", got)
	}
	if before.Spans[1].DurationNs > before.DurationNs {
		t.Fatalf("open span closed at %d ns, after the trace's %d", before.Spans[1].DurationNs, before.DurationNs)
	}
	for _, sd := range before.Spans {
		if len(sd.SpanID) != 16 || !validHexID(sd.SpanID) || sd.ParentID != "" {
			t.Fatalf("span IDs = %q / %q", sd.SpanID, sd.ParentID)
		}
	}
}

// TestTraceConcurrentFinish: spans opened, annotated and ended from
// several goroutines while the trace finishes and the ring is read, the
// way hedged shard RPCs can outlive their request. Run under -race.
func TestTraceConcurrentFinish(t *testing.T) {
	tr := NewTracer(4)
	trace := tr.StartTrace("racy")
	root := trace.StartSpan("root")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.StartChild("rpc")
				sp.SetAttr("i", i)
				_ = sp.ID()
				sp.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = trace.Data()
			_ = tr.Snapshot()
		}
	}()
	trace.Finish()
	sealed := trace.Data()
	wg.Wait()
	if got := trace.Data(); !reflect.DeepEqual(got, sealed) {
		t.Fatalf("trace changed after Finish: %d spans, then %d", len(sealed.Spans), len(got.Spans))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	trace := tr.StartTrace("x") // nil tracer → nil trace
	if trace != nil {
		t.Fatal("nil tracer returned non-nil trace")
	}
	sp := trace.StartSpan("s")
	sp.SetAttr("k", "v")
	sp.End()
	sp.StartChild("c").End()
	if trace.ID() != "" || sp.ID() != "" {
		t.Fatal("nil IDs should be empty")
	}
	trace.Finish()
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot should be nil")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.StartTrace("ctx")
	ctx := ContextWithTrace(context.Background(), trace)
	if TraceFrom(ctx) != trace {
		t.Fatal("TraceFrom lost the trace")
	}
	// Survives WithoutCancel, the serve-layer decoupling path.
	if TraceFrom(context.WithoutCancel(ctx)) != trace {
		t.Fatal("trace did not survive WithoutCancel")
	}

	sp, ctx2 := StartSpan(ctx, "outer")
	if sp == nil || SpanFrom(ctx2) != sp {
		t.Fatal("StartSpan did not attach span")
	}
	inner, _ := StartSpan(ctx2, "inner")
	inner.End()
	sp.End()
	trace.Finish()
	td := trace.Data()
	if len(td.Spans) != 2 || td.Spans[1].ParentID != td.Spans[0].SpanID {
		t.Fatalf("ctx spans = %+v", td.Spans)
	}

	// No trace in context: zero-cost path.
	nsp, nctx := StartSpan(context.Background(), "none")
	if nsp != nil || nctx != context.Background() {
		t.Fatal("un-traced StartSpan should return (nil, same ctx)")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		trace := tr.StartTrace(strings.Repeat("t", i+1))
		trace.Finish()
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d traces, want 3", len(snap))
	}
	// Newest first: names ttttt, tttt, ttt.
	if snap[0].Name != "ttttt" || snap[2].Name != "ttt" {
		t.Fatalf("snapshot order = %q, %q, %q", snap[0].Name, snap[1].Name, snap[2].Name)
	}
}

func TestTracerJoin(t *testing.T) {
	tr := NewTracer(4)
	j := tr.Join("deadbeefcafef00d", "remote")
	if j.ID() != "deadbeefcafef00d" {
		t.Fatalf("Join ID = %q", j.ID())
	}
	j2 := tr.Join("", "minted")
	if j2.ID() == "" {
		t.Fatal("Join with empty ID should mint one")
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	h := FormatTraceHeader("deadbeefcafef00d", "0123456789abcdef")
	tid, sid, ok := ParseTraceHeader(h)
	if !ok || tid != "deadbeefcafef00d" || sid != "0123456789abcdef" {
		t.Fatalf("round-trip = (%q, %q, %v)", tid, sid, ok)
	}
	tid, sid, ok = ParseTraceHeader("deadbeefcafef00d")
	if !ok || tid != "deadbeefcafef00d" || sid != "" {
		t.Fatalf("trace-only = (%q, %q, %v)", tid, sid, ok)
	}
	for _, bad := range []string{"", "UPPERHEX-abc", "zzzz", strings.Repeat("a", 40)} {
		if _, _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("ParseTraceHeader(%q) accepted", bad)
		}
	}
}

func TestTracezHandler(t *testing.T) {
	tr := NewTracer(4)
	trace := tr.StartTrace("served")
	trace.StartSpan("stage").End()
	trace.Finish()

	srv := newTestServer(t, tr.Handler())
	resp := srv.get(t, "/")
	if resp.status != http.StatusOK {
		t.Fatalf("status = %d", resp.status)
	}
	var out struct {
		Traces []TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(resp.body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || out.Traces[0].Name != "served" || len(out.Traces[0].Spans) != 1 {
		t.Fatalf("tracez = %+v", out)
	}
}

func TestLoggerTraceCorrelation(t *testing.T) {
	var sb strings.Builder
	logger, err := NewLogger(&sb, "json")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(4)
	trace := tr.StartTrace("log")
	ctx := ContextWithTrace(context.Background(), trace)
	logger.InfoContext(ctx, "hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, sb.String())
	}
	if rec["trace_id"] != trace.ID() {
		t.Fatalf("trace_id = %v, want %s", rec["trace_id"], trace.ID())
	}
	if rec["k"] != "v" || rec["msg"] != "hello" {
		t.Fatalf("record = %+v", rec)
	}

	sb.Reset()
	logger.Info("no-trace")
	if strings.Contains(sb.String(), "trace_id") {
		t.Fatal("un-traced log line carried trace_id")
	}

	if _, err := NewLogger(io.Discard, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := NewLogger(io.Discard, "text"); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTrace is the per-request cost of the two commonest traces,
// started, filled, finished and recorded but never exported: a serve
// cache hit (one span with one attribute under the two context values
// the handler derives) and a shard server's estimate (two spans, five
// attributes, a joined trace ID).
func BenchmarkTrace(b *testing.B) {
	tr := NewTracer(0)
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trace := tr.StartTrace("selling-points")
			sp, _ := StartSpan(ContextWithTrace(context.Background(), trace), "cache")
			sp.SetAttr("hit", true)
			sp.End()
			trace.Finish()
		}
	})
	b.Run("shard-estimate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trace := tr.Join("deadbeefcafef00d", "shard-estimate")
			acq := trace.StartSpan("acquire")
			acq.SetAttr("waiting", int64(0))
			acq.End()
			sp := trace.StartSpan("partials")
			sp.SetAttr("user", i)
			sp.SetAttr("generation", uint64(0))
			sp.SetAttr("owned", 1)
			sp.SetAttr("width", 3)
			sp.End()
			trace.Finish()
		}
	})
}
