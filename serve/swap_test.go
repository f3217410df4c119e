package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pitex"
)

// TestHotSwapNeverServesStaleResult is the satellite acceptance test: a
// query cached before an update must not be served after the swap, even
// though purge and key-generation are separate mechanisms.
func TestHotSwapNeverServesStaleResult(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ctx := context.Background()

	before, cached, err := srv.SellingPoints(ctx, 0, 2, 1, nil)
	if err != nil || cached {
		t.Fatalf("first query: cached=%v err=%v", cached, err)
	}
	if _, cached, _ = srv.SellingPoints(ctx, 0, 2, 1, nil); !cached {
		t.Fatal("repeat query not cached")
	}

	// Cut user 0 off from the {w3,w4} component entirely.
	var batch pitex.UpdateBatch
	batch.DeleteEdge(0, 1)
	batch.DeleteEdge(0, 2)
	stats, err := srv.ApplyUpdates(&batch)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if stats.Generation != 1 || srv.Generation() != 1 {
		t.Fatalf("generation %d/%d, want 1", stats.Generation, srv.Generation())
	}

	after, cached, err := srv.SellingPoints(ctx, 0, 2, 1, nil)
	if err != nil {
		t.Fatalf("post-swap query: %v", err)
	}
	if cached {
		t.Fatal("post-swap query served from the pre-update cache")
	}
	if after.Influence >= before.Influence {
		t.Fatalf("influence did not drop after isolating the user: %v -> %v",
			before.Influence, after.Influence)
	}
	// And the post-swap answer is itself cacheable under the new
	// generation.
	if _, cached, _ = srv.SellingPoints(ctx, 0, 2, 1, nil); !cached {
		t.Fatal("post-swap repeat not cached")
	}
}

// TestServerAnswersDuringSwap hammers the query path while updates land
// concurrently: every request must succeed — on the old generation or the
// new one — and the race detector guards the swap machinery.
func TestServerAnswersDuringSwap(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	srv, err := New(en, pitex.ServeOptions{PoolSize: 4, QueueDepth: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := srv.SellingPoints(context.Background(), user, 2, 1, nil); err != nil {
					errs <- err
					return
				}
			}
		}(w % 7)
	}
	probs := []float64{0.3, 0.6, 0.45, 0.7}
	for _, p := range probs {
		var batch pitex.UpdateBatch
		batch.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: p})
		if _, err := srv.ApplyUpdates(&batch); err != nil {
			t.Fatalf("ApplyUpdates: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("query failed during swap: %v", err)
	default:
	}
	if got := srv.Generation(); got != uint64(len(probs)) {
		t.Fatalf("generation %d, want %d", got, len(probs))
	}
	if st := srv.Stats(); st.Generation != uint64(len(probs)) {
		t.Fatalf("stats generation %d", st.Generation)
	}
}

// TestPoolCountersSurviveSwap: the admission counters are the server's,
// not a generation's. Served, Rejected and Timeouts, in Stats and on
// /metrics, never fall across ApplyUpdates.
func TestPoolCountersSurviveSwap(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueueDepth: 1, QueueTimeout: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	for u := 0; u < 3; u++ {
		if _, _, err := srv.SellingPoints(ctx, u, 2, 1, nil); err != nil {
			t.Fatalf("query %d: %v", u, err)
		}
	}
	// One request times out in the queue while another is shed past it.
	release := block(t, srv, 1)
	waiter := make(chan error, 1)
	go func() { waiter <- doOn(srv, ctx, func(*pitex.Engine) error { return nil }) }()
	for srv.Stats().Pool.Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := doOn(srv, ctx, func(*pitex.Engine) error { return nil }); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("request past the bound = %v, want ErrOverloaded", err)
	}
	if err := <-waiter; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued request = %v, want ErrQueueTimeout", err)
	}
	release()

	series := func() map[string]float64 {
		out := map[string]float64{}
		fams := scrape(t, ts.URL+"/metrics")
		for _, name := range []string{"pitex_pool_served_total", "pitex_pool_rejected_total", "pitex_pool_timeouts_total"} {
			fam, ok := fams[name]
			if !ok || len(fam.Samples) != 1 {
				t.Fatalf("/metrics has no single %s sample", name)
			}
			out[name] = fam.Samples[0].Value
		}
		return out
	}
	before, beforeSeries := srv.Stats().Pool, series()
	if before.Served != 4 || before.Rejected != 1 || before.Timeouts != 1 {
		t.Fatalf("before the swap: %+v, want served 4, rejected 1, timeouts 1", before)
	}
	var batch pitex.UpdateBatch
	batch.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.6})
	if _, err := srv.ApplyUpdates(&batch); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	after, afterSeries := srv.Stats().Pool, series()
	if after.Served < before.Served || after.Rejected < before.Rejected || after.Timeouts < before.Timeouts {
		t.Fatalf("pool counters fell across the swap: %+v -> %+v", before, after)
	}
	for name, v := range beforeSeries {
		if afterSeries[name] < v {
			t.Errorf("%s fell across the swap: %v -> %v", name, v, afterSeries[name])
		}
	}
}

// TestSwapKeepsPoolSizeBound: PoolSize bounds the engines running at once
// across a hot-swap too. A request holding the only engine of the old
// generation keeps its place: one arriving after the swap waits for it
// rather than running beside it on the new generation.
func TestSwapKeepsPoolSizeBound(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	var running, peak atomic.Int64
	hold := func(until <-chan struct{}) func(*pitex.Engine) error {
		return func(*pitex.Engine) error {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if until != nil {
				<-until
			} else {
				time.Sleep(20 * time.Millisecond)
			}
			running.Add(-1)
			return nil
		}
	}
	ctx := context.Background()
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() { first <- doOn(srv, ctx, hold(release)) }()
	for running.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var batch pitex.UpdateBatch
	batch.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.6})
	if _, err := srv.ApplyUpdates(&batch); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	second := make(chan error, 1)
	go func() { second <- doOn(srv, ctx, hold(nil)) }()
	time.Sleep(50 * time.Millisecond) // time to start beside the first, were it let in
	close(release)
	for _, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatalf("do: %v", err)
		}
	}
	if p := peak.Load(); p > 1 {
		t.Fatalf("%d engines ran at once across the swap at PoolSize 1", p)
	}
}

// TestAdminUpdateDelayMatRecount: a DELAYMAT update recounts every
// graph, and /admin/update and pitex_graphs_repaired_total say so — θ
// graphs repaired of θ, a repaired fraction of 1 — instead of reporting a
// full rebuild beside zero graphs repaired.
func TestAdminUpdateDelayMatRecount(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyDelay)
	var theta int64
	for _, st := range en.IndexShardStats() {
		theta += st.Theta
	}
	srv, err := New(en, pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/admin/update", "application/json",
		strings.NewReader(`{"delete_edges":[{"from":5,"to":6}]}`))
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	var out struct {
		Repaired    int64   `json:"graphs_repaired"`
		Total       int64   `json:"graphs_total"`
		Fraction    float64 `json:"repaired_fraction"`
		FullRebuild bool    `json:"full_rebuild"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST update status %d", resp.StatusCode)
	}
	if out.Repaired != theta || out.Total != theta || out.Fraction != 1 || !out.FullRebuild {
		t.Fatalf("update response %+v, want all %d graphs recounted", out, theta)
	}
	f := scrape(t, ts.URL+"/metrics")["pitex_graphs_repaired_total"]
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != float64(theta) {
		t.Fatalf("pitex_graphs_repaired_total = %+v, want %d", f, theta)
	}
}

func TestAdminUpdateEndpoint(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// GET is rejected.
	resp, err := http.Get(ts.URL + "/admin/update")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
	if ct, allow := resp.Header.Get("Content-Type"), resp.Header.Get("Allow"); ct != "application/json" || allow != http.MethodPost {
		t.Fatalf("GET 405 Content-Type %q, Allow %q; want application/json, POST", ct, allow)
	}

	// Malformed and empty bodies are 400s, and so is a body naming a
	// generation: the server picks its own.
	for _, body := range []string{"{not json", `{"unknown_field": 1}`, `{}`, `{"generation":3,"add_users":1}`} {
		resp, err := http.Post(ts.URL+"/admin/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q status %d, want 400", body, resp.StatusCode)
		}
	}

	// A real update: add two users and wire one into the graph.
	body, _ := json.Marshal(map[string]any{
		"add_users": 2,
		"insert_edges": []map[string]any{
			{"from": 0, "to": 7, "probs": []map[string]any{{"topic": 0, "prob": 0.8}}},
		},
	})
	resp, err = http.Post(ts.URL+"/admin/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	var out struct {
		Generation int     `json:"generation"`
		UsersAdded int     `json:"users_added"`
		Repaired   float64 `json:"repaired_fraction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST update status %d", resp.StatusCode)
	}
	if out.Generation != 1 || out.UsersAdded != 2 {
		t.Fatalf("update response %+v", out)
	}

	// The new user is immediately queryable over HTTP.
	resp, err = http.Get(ts.URL + "/selling-points?user=7&k=2")
	if err != nil {
		t.Fatalf("GET selling-points: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query for new user status %d", resp.StatusCode)
	}

	// A failed update (deleting a nonexistent edge) changes nothing.
	body, _ = json.Marshal(map[string]any{
		"delete_edges": []map[string]any{{"from": 6, "to": 0}},
	})
	resp, err = http.Post(ts.URL+"/admin/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST bad delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad delete status %d, want 400", resp.StatusCode)
	}
	if srv.Generation() != 1 {
		t.Fatalf("failed update advanced generation to %d", srv.Generation())
	}

	// healthz and statsz report the generation.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var health struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if health.Generation != 1 {
		t.Fatalf("healthz generation %d", health.Generation)
	}
}

// TestApplyUpdatesAfterClose pins the shutdown latch: an update landing
// after Close must not swap in a fresh open pool and resurrect a server a
// load balancer is draining.
func TestApplyUpdatesAfterClose(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Close()
	var batch pitex.UpdateBatch
	batch.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.5})
	if _, err := srv.ApplyUpdates(&batch); err != ErrPoolClosed {
		t.Fatalf("ApplyUpdates after Close = %v, want ErrPoolClosed", err)
	}
	if srv.Generation() != 0 {
		t.Fatalf("generation advanced to %d on a closed server", srv.Generation())
	}
	if _, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil); err == nil {
		t.Fatal("closed server answered a query")
	}
}

// TestAdminUpdateNegativeAddUsers: negative add_users must reject the
// whole request instead of silently applying the rest of it.
func TestAdminUpdateNegativeAddUsers(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"add_users": -2,
		"insert_edges": []map[string]any{
			{"from": 0, "to": 5, "probs": []map[string]any{{"topic": 0, "prob": 0.5}}},
		},
	})
	resp, err := http.Post(ts.URL+"/admin/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative add_users status %d, want 400", resp.StatusCode)
	}
	if srv.Generation() != 0 {
		t.Fatalf("partial update applied: generation %d", srv.Generation())
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache(64, 4)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		_, _, _ = c.GetOrCompute(ctx, Key{Kind: "q", User: i}, func() (any, error) { return i, nil })
	}
	if st := c.Stats(); st.Entries != 10 {
		t.Fatalf("entries %d, want 10", st.Entries)
	}
	c.Purge()
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("entries %d after purge", st.Entries)
	}
	if st.Evictions != 10 {
		t.Fatalf("evictions %d, want 10", st.Evictions)
	}
	// Purged entries recompute.
	_, cached, _ := c.GetOrCompute(ctx, Key{Kind: "q", User: 3}, func() (any, error) { return 3, nil })
	if cached {
		t.Fatal("hit after purge")
	}
	// Nil cache: purge is a no-op.
	var nilCache *Cache
	nilCache.Purge()
}
