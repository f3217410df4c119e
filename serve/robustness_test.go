package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pitex"
	"pitex/analytics"
	"pitex/distrib"
)

// waitGoroutines polls until the process is back to at most want live
// goroutines (httptest teardown and drained pools settle asynchronously).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines never settled to <= %d (now %d):\n%s",
				want, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerCloseLeaksNoGoroutines: a full coordinator stack — shard
// servers, fleet client with its reconciler, coordinator pool — must
// tear down to the baseline goroutine count on Close.
func TestServerCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	net, model := fig2NetModel(t)
	ss, err := NewShardServer(net, model, fig2Options(pitex.StrategyIndexPruned, 1), ShardConfig{TotalShards: 1})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	ts := httptest.NewServer(ss.Handler())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := distrib.Dial(ctx, [][]string{{ts.URL}},
		distrib.Options{ReconcileInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	en, err := pitex.NewRemoteEngine(net, model, fig2Options(pitex.StrategyIndexPruned, 1), client)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	coord, err := NewCoordinator(en, client, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if _, _, err := coord.SellingPoints(ctx, 1, 2, 1, nil); err != nil {
		t.Fatalf("SellingPoints: %v", err)
	}
	if _, err := coord.ApplyUpdates(setBatch(0.45)); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}

	coord.Close() // also closes the fleet client (and its reconciler)
	ss.Close()
	ts.Close()
	// Allow a small slack for runtime-internal goroutines; a leaked
	// reconciler or pool worker per test run would blow far past it.
	waitGoroutines(t, before+2)
}

// TestClientCloseIsIdempotent: Close twice, then once more through the
// coordinator path, without panics or hangs.
func TestClientCloseIsIdempotent(t *testing.T) {
	_, ts := startFig2ShardServer(t, 0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := distrib.Dial(ctx, [][]string{{ts.URL}}, distrib.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	client.Close()
	client.Close()
}

// TestAdmitBudgetSheds: once the latency histogram knows the median, a
// request whose remaining deadline cannot cover it is rejected up front
// with ErrDeadlineBudget instead of occupying a pool engine.
func TestAdmitBudgetSheds(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	label := "selling-points/" + srv.strategy

	// One budget for the cold and the warm check: far above scheduling
	// noise, so it cannot run out before admitBudget reads it (a budget
	// already spent is refused on every histogram), and far below the
	// planted median.
	const budget, median = time.Second, 10 * time.Second
	// Below the sample floor the gate stays open: no shedding on a cold
	// histogram.
	if err := srv.admitBudget(contextWithBudget(t, budget), label); err != nil {
		t.Fatalf("cold-histogram admission rejected: %v", err)
	}
	for i := 0; i < p50MinSamples; i++ {
		srv.metrics.Observe(label, median)
	}
	err = srv.admitBudget(contextWithBudget(t, budget), label)
	if !errors.Is(err, ErrDeadlineBudget) {
		t.Fatalf("under-budget admission err = %v, want ErrDeadlineBudget", err)
	}
	if !errors.Is(err, errWaitAborted) {
		t.Fatalf("budget rejection must be caller-specific (errWaitAborted), got %v", err)
	}
	if err := srv.admitBudget(contextWithBudget(t, 6*median), label); err != nil {
		t.Fatalf("well-budgeted admission rejected: %v", err)
	}
	// No deadline at all: always admitted.
	if err := srv.admitBudget(context.Background(), label); err != nil {
		t.Fatalf("deadline-free admission rejected: %v", err)
	}
}

func contextWithBudget(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestDeadlineBudget503: over HTTP the budget rejection surfaces as 503
// with a Retry-After hint — a retryable condition, not a client error.
func TestDeadlineBudget503(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned),
		pitex.ServeOptions{PoolSize: 1, QueryTimeout: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	label := "selling-points/" + srv.strategy
	for i := 0; i < p50MinSamples; i++ {
		srv.metrics.Observe(label, 500*time.Millisecond)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/selling-points?user=1&k=2")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("under-budget query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After")
	}
}

// TestRecoverQueryCountsPanics: a panic inside query execution turns
// into an errComputeAborted error and a pitex_panics_total increment —
// never a crashed process.
func TestRecoverQueryCountsPanics(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	qerr := func() (qret error) {
		defer srv.recoverTo("query", &qret)
		panic("estimator bug")
	}()
	if !errors.Is(qerr, errComputeAborted) {
		t.Fatalf("recovered panic err = %v, want errComputeAborted", qerr)
	}
	if got := srv.panics.Value(); got != 1 {
		t.Fatalf("pitex_panics_total = %d, want 1", got)
	}
}

// TestSweepPanicFailsJob: a panicking sweep fails its job (JobFailed,
// not a dead process) and feeds the server's panic counter through the
// chained OnPanic observer.
func TestSweepPanicFailsJob(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	before := srv.panics.Value()
	var observed atomic.Bool
	job, err := srv.StartSweep(analytics.Options{
		K: 2, ChunkSize: 4, Workers: 1,
		// Panics on its very first (pre-worker) invocation inside Run —
		// a stand-in for a bug anywhere in the sweep pipeline.
		OnProgress: func(analytics.Progress) { panic("observer bug") },
		OnPanic:    func(any) { observed.Store(true) },
	})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	if err := job.Wait(); err == nil {
		t.Fatal("panicking sweep reported success")
	}
	if got := srv.panics.Value(); got != before+1 {
		t.Fatalf("pitex_panics_total moved %d -> %d, want +1", before, got)
	}
	if !observed.Load() {
		t.Fatal("caller-supplied OnPanic was not chained")
	}
}
