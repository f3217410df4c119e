package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"pitex/internal/faultinject"
	"pitex/obsv"
)

// serverCore is the request pipeline Server and ShardServer both embed:
// the metrics plane and trace ring behind /metrics and /tracez, the
// /healthz and /readyz probes, the panic counter, the deadline-budget
// check, and the handler chain that runs every route's shared prologue
// and error mapping.
type serverCore struct {
	metrics *Metrics
	// tracer retains the last N finished request traces for /tracez.
	tracer *obsv.Tracer
	// panics counts recovered panics: each one is a bug answered with a
	// 500 instead of a dead process, and the counter is the alarm that
	// finds it.
	panics *obsv.Counter
	// strategy names the serving strategy; latency labels are
	// "endpoint/strategy".
	strategy   string
	start      time.Time
	generation func() uint64
	// open reports ErrPoolClosed once the server is closed; both probes
	// then answer 503.
	open func() error
	// ready adds the server's fields to a /readyz document, or says why
	// the server cannot serve yet.
	ready func(doc map[string]any) error
}

// initCore builds the core and registers the metrics every server exports:
// build info, uptime, the serving generation and the panic counter.
func (c *serverCore) initCore(strategy string, generation func() uint64, open func() error, ready func(map[string]any) error) {
	c.metrics = NewMetrics()
	c.tracer = obsv.NewTracer(0)
	c.strategy = strategy
	c.start = time.Now()
	c.generation, c.open, c.ready = generation, open, ready
	reg := c.metrics.Registry()
	obsv.RegisterBuildInfo(reg)
	reg.GaugeFunc("pitex_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(c.start).Seconds() })
	reg.GaugeFunc("pitex_index_generation", "Index generation currently serving requests.",
		func() float64 { return float64(generation()) })
	c.panics = reg.Counter("pitex_panics_total",
		"Panics recovered from request execution and sweep jobs (each is a bug).")
}

// newMux returns a mux serving the core's /metrics, /tracez, /healthz
// and /readyz.
func (c *serverCore) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", c.metrics.Registry().Handler())
	mux.Handle("GET /tracez", c.tracer.Handler())
	mux.HandleFunc("/healthz", c.probe("ok", func(doc map[string]any) error {
		doc["uptime_seconds"] = time.Since(c.start).Seconds()
		return nil
	}))
	mux.HandleFunc("/readyz", c.probe("ready", c.ready))
	return mux
}

// probe answers a health probe: 503 "closed" once the server is closed,
// 503 with extra's error, else status with the strategy, the serving
// generation and extra's fields. /healthz is liveness; /readyz answers
// 200 only when the server can actually serve, and load balancers and
// the distrib health tracker key on it to tell "up" from "serving".
func (c *serverCore) probe(status string, extra func(doc map[string]any) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.open() != nil {
			writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"status": "closed"})
			return
		}
		doc := map[string]any{"status": status, "strategy": c.strategy, "generation": c.generation()}
		if err := extra(doc); err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, doc)
	}
}

// handler is one route's body: it writes its own success response and
// returns any failure for the chain to write.
type handler func(w http.ResponseWriter, r *http.Request) error

// route is one endpoint's place in the request pipeline.
type route struct {
	// label is the endpoint half of the route's latency label; "" leaves
	// the route unobserved.
	label string
	// fault is the faultinject point evaluated once per request; "" for
	// none.
	fault string
	// gate, when set, refuses the request with 503 once closed, before
	// anything else runs.
	gate *gate
}

// corruptKey marks a request whose fault point asked for a corrupted
// response payload.
type corruptKey struct{}

// corrupted reports whether the chain's fault point asked for r's payload
// to be corrupted.
func corrupted(r *http.Request) bool { return r.Context().Value(corruptKey{}) != nil }

// chain wraps h in the request pipeline: the closed-gate refusal, the
// route's fault point, panic recovery into a 500, error mapping through
// httpError, and the latency observation. Bind it once at registration;
// on the success path it allocates nothing.
func (c *serverCore) chain(rt route, h handler) http.HandlerFunc {
	label := rt.label
	if label != "" {
		label += "/" + c.strategy
	}
	run := func(w http.ResponseWriter, r *http.Request) (err error) {
		defer c.recoverTo(r.URL.Path, &err)
		if rt.gate != nil {
			if err := rt.gate.open(); err != nil {
				return err
			}
		}
		if rt.fault != "" {
			out := faultinject.Eval(r.Context(), rt.fault)
			if out.Err != nil {
				return withStatus(http.StatusInternalServerError, out.Err)
			}
			if out.Corrupt {
				r = r.WithContext(context.WithValue(r.Context(), corruptKey{}, true))
			}
		}
		return h(w, r)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if err := run(w, r); err != nil {
			httpError(w, err)
		}
		if label != "" {
			c.metrics.Observe(label, time.Since(start))
		}
	}
}

// recoverTo converts a panic into an errComputeAborted error in *err (a
// 500 at the HTTP layer) plus a pitex_panics_total tick, instead of a dead
// process. Defer it directly: the chain does for every route, and so do
// the pool-worker and batch closures, whose goroutines have no recover
// above them.
func (c *serverCore) recoverTo(what string, err *error) {
	if r := recover(); r != nil {
		c.panics.Inc()
		*err = fmt.Errorf("%w: %s panicked: %v", errComputeAborted, what, r)
	}
}

// ErrDeadlineBudget reports a request shed by deadline-aware admission:
// its remaining context budget was below the endpoint's observed median
// latency, so the answer could not possibly arrive in time — rejecting
// before admission keeps a doomed request from occupying a worker.
// Mapped to 503 with a Retry-After header.
var ErrDeadlineBudget = errors.New("serve: remaining deadline below observed median latency")

// admitBudget is deadline-aware admission: reject a request whose
// context is already expired, or whose remaining budget is below the
// observed p50 under label, before it occupies a worker. Both verdicts
// are wrapped caller-specific (errWaitAborted) — a deduplicated follower
// with a healthier deadline retries rather than inheriting them.
func (c *serverCore) admitBudget(ctx context.Context, label string) error {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	remain := time.Until(dl)
	if remain <= 0 {
		return fmt.Errorf("%w: %w", errWaitAborted, context.DeadlineExceeded)
	}
	if p50, ok := c.metrics.P50(label); ok && remain < p50 {
		return fmt.Errorf("%w: %w (%v left, p50 %v)", errWaitAborted, ErrDeadlineBudget, remain, p50)
	}
	return nil
}

// statusError carries a status httpError cannot infer from the error
// itself: 409 generation skew, 404 unknown job, 405, 501, or 500 for a
// server-side failure.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func withStatus(status int, err error) error { return &statusError{status: status, err: err} }

// rawQueryHas reports whether a raw URL query sets key to a non-empty
// first value, without parsing the query into a map.
func rawQueryHas(raw, key string) bool {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(kv, "="); k == key {
			return v != ""
		}
	}
	return false
}

// httpError maps subsystem errors onto HTTP statuses: an explicit
// statusError wins, then shed/closed → 503 (retry elsewhere), deadline →
// 504, client gone → 499-style 503, panicked computation → 500, and
// anything else is bad input → 400.
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var se *statusError
	switch {
	case errors.As(err, &se):
		status = se.status
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQueueTimeout),
		errors.Is(err, ErrDeadlineBudget),
		errors.Is(err, ErrPoolClosed), errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, errComputeAborted):
		// A server-side fault (panicked estimation), not a client error.
		status = http.StatusInternalServerError
	}
	writeError(w, status, err)
}

// writeError emits a JSON error with an explicit status — the one error
// writer of both servers.
func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		// Shed load is transient by construction (queue full, admission
		// shed, budget too thin, draining): tell well-behaved clients when
		// to come back instead of letting them hammer the queue.
		w.Header().Set("Retry-After", "1")
	}
	writeJSONStatus(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus emits v as a JSON document under status.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
