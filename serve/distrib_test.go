package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
)

// startFig2ShardServer launches one in-process shard server owning shard
// s of an S-way Fig. 2 layout.
func startFig2ShardServer(t *testing.T, s, total int) (*ShardServer, *httptest.Server) {
	t.Helper()
	net, model := fig2NetModel(t)
	ss, err := NewShardServer(net, model, fig2Options(pitex.StrategyIndexPruned, total), ShardConfig{
		TotalShards: total, Owned: []int{s},
	})
	if err != nil {
		t.Fatalf("NewShardServer(%d): %v", s, err)
	}
	ts := httptest.NewServer(ss.Handler())
	t.Cleanup(ts.Close)
	return ss, ts
}

// dialFig2Coordinator dials the groups and wraps a remote engine in a
// coordinator Server.
func dialFig2Coordinator(t *testing.T, groups [][]string, dopts distrib.Options, sopts pitex.ServeOptions) (*Server, *distrib.Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := distrib.Dial(ctx, groups, dopts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	net, model := fig2NetModel(t)
	en, err := pitex.NewRemoteEngine(net, model, fig2Options(pitex.StrategyIndexPruned, client.TotalShards()), client)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	coord, err := NewCoordinator(en, client, sopts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, client
}

func getDoc(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode, doc
}

// TestCoordinatorMatchesInProcessSharded is the tentpole's identity
// contract: with every shard healthy, the distributed coordinator answers
// byte-identically to the single-process ShardedEstimator under
// the same S and seeds — influence values, chosen tags, alternatives,
// everything except timing.
func TestCoordinatorMatchesInProcessSharded(t *testing.T) {
	const S = 3
	groups := make([][]string, S)
	for s := 0; s < S; s++ {
		_, ts := startFig2ShardServer(t, s, S)
		groups[s] = []string{ts.URL}
	}
	coord, _ := dialFig2Coordinator(t, groups, distrib.Options{}, pitex.ServeOptions{PoolSize: 2})
	local, err := New(fig2EngineSharded(t, pitex.StrategyIndexPruned, S), pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer local.Close()

	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()
	lt := httptest.NewServer(local.Handler())
	defer lt.Close()

	paths := []string{
		"/selling-points?user=1&k=2",
		"/selling-points?user=0&k=2&m=3",
		"/selling-points?user=2&k=1",
		"/selling-points?user=5&k=3",
	}
	for _, path := range paths {
		cs, cdoc := getDoc(t, ct.URL+path)
		ls, ldoc := getDoc(t, lt.URL+path)
		if cs != http.StatusOK || ls != http.StatusOK {
			t.Fatalf("%s: coordinator %d, local %d (%v / %v)", path, cs, ls, cdoc, ldoc)
		}
		// Timing is the only legitimately different field.
		delete(cdoc, "elapsed")
		delete(ldoc, "elapsed")
		if !reflect.DeepEqual(cdoc, ldoc) {
			t.Fatalf("%s: coordinator answer diverges from in-process:\n  remote: %v\n  local:  %v", path, cdoc, ldoc)
		}
		if _, degraded := cdoc["degraded"]; degraded {
			t.Fatalf("%s: healthy cluster answered degraded", path)
		}
	}
	if st := coord.Stats(); st.Remote == nil || st.Remote.Scatters == 0 {
		t.Fatal("coordinator /statsz carries no remote fleet status")
	}
}

// TestCoordinatorDegradedWhenShardDown: with one shard unreachable the
// coordinator still answers within the shard deadline, carrying the
// achieved (weakened) ε and the missing-shard list, and the degraded
// result is never cached.
func TestCoordinatorDegradedWhenShardDown(t *testing.T) {
	const S = 3
	groups := make([][]string, S)
	var victims []*httptest.Server
	for s := 0; s < S; s++ {
		_, ts := startFig2ShardServer(t, s, S)
		groups[s] = []string{ts.URL}
		victims = append(victims, ts)
	}
	coord, client := dialFig2Coordinator(t, groups,
		distrib.Options{ShardDeadline: 2 * time.Second}, pitex.ServeOptions{PoolSize: 2})
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	victims[2].Close() // shard 2 goes dark

	for round := 0; round < 2; round++ {
		status, doc := getDoc(t, ct.URL+"/selling-points?user=1&k=2")
		if status != http.StatusOK {
			t.Fatalf("round %d: degraded query status %d: %v", round, status, doc)
		}
		deg, ok := doc["degraded"].(map[string]any)
		if !ok {
			t.Fatalf("round %d: no degraded block in %v", round, doc)
		}
		target, achieved := deg["target_epsilon"].(float64), deg["achieved_epsilon"].(float64)
		if target != 0.15 || achieved <= target {
			t.Fatalf("round %d: epsilons target=%v achieved=%v, want achieved > 0.15", round, target, achieved)
		}
		missing, _ := deg["missing_shards"].([]any)
		if len(missing) != 1 || missing[0].(float64) != 2 {
			t.Fatalf("round %d: missing_shards = %v, want [2]", round, missing)
		}
		// Degraded answers must never serve from cache: a recovered shard
		// has to reflect in the very next query.
		if cached := doc["cached"].(bool); cached {
			t.Fatalf("round %d: degraded answer served from cache", round)
		}
		if inf := doc["influence"].(float64); inf < 1 {
			t.Fatalf("round %d: degraded influence %v below floor", round, inf)
		}
	}
	if client.Status().DegradedAnswers == 0 {
		t.Fatal("client counted no degraded answers")
	}
}

// TestCoordinatorHedgesPastSlowReplica: a replica group with a stuck
// primary and a healthy secondary must answer fast and undegraded — the
// hedged retry wins the race.
func TestCoordinatorHedgesPastSlowReplica(t *testing.T) {
	_, fast := startFig2ShardServer(t, 0, 1)
	ssSlow, _ := startFig2ShardServer(t, 0, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/estimate" {
			time.Sleep(1500 * time.Millisecond) // artificial straggler
		}
		ssSlow.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()

	coord, client := dialFig2Coordinator(t,
		[][]string{{slow.URL, fast.URL}},
		distrib.Options{ShardDeadline: 5 * time.Second, HedgeMin: 25 * time.Millisecond},
		pitex.ServeOptions{PoolSize: 2})
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	status, doc := getDoc(t, ct.URL+"/selling-points?user=1&k=2")
	if status != http.StatusOK {
		t.Fatalf("hedged query status %d: %v", status, doc)
	}
	if _, degraded := doc["degraded"]; degraded {
		t.Fatalf("hedged query degraded: %v", doc)
	}
	if client.Status().Hedges == 0 {
		t.Fatal("no hedges fired against the slow primary")
	}
}

func fig2Batch() *pitex.UpdateBatch {
	var b pitex.UpdateBatch
	b.InsertEdge(1, 4, pitex.TopicProb{Topic: 2, Prob: 0.6})
	b.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.5})
	return &b
}

// TestCoordinatorUpdateFanout: one /admin/update on the coordinator must
// repair every shard server, advance the cluster generation, and leave
// the fleet answering byte-identically to a monolithic server that
// applied the same batch.
func TestCoordinatorUpdateFanout(t *testing.T) {
	const S = 3
	groups := make([][]string, S)
	var servers []*ShardServer
	for s := 0; s < S; s++ {
		ss, ts := startFig2ShardServer(t, s, S)
		groups[s] = []string{ts.URL}
		servers = append(servers, ss)
	}
	coord, client := dialFig2Coordinator(t, groups, distrib.Options{}, pitex.ServeOptions{PoolSize: 2})
	local, err := New(fig2EngineSharded(t, pitex.StrategyIndexPruned, S), pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer local.Close()

	if _, err := coord.ApplyUpdates(fig2Batch()); err != nil {
		t.Fatalf("coordinator ApplyUpdates: %v", err)
	}
	if _, err := local.ApplyUpdates(fig2Batch()); err != nil {
		t.Fatalf("local ApplyUpdates: %v", err)
	}
	if g := client.Generation(); g != 1 {
		t.Fatalf("client generation = %d, want 1", g)
	}
	for s, ss := range servers {
		if g := ss.Generation(); g != 1 {
			t.Fatalf("shard server %d at generation %d, want 1", s, g)
		}
	}

	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()
	lt := httptest.NewServer(local.Handler())
	defer lt.Close()
	for _, path := range []string{"/selling-points?user=1&k=2", "/selling-points?user=2&k=2&m=2"} {
		cs, cdoc := getDoc(t, ct.URL+path)
		ls, ldoc := getDoc(t, lt.URL+path)
		if cs != http.StatusOK || ls != http.StatusOK {
			t.Fatalf("%s after update: coordinator %d, local %d", path, cs, ls)
		}
		delete(cdoc, "elapsed")
		delete(ldoc, "elapsed")
		if !reflect.DeepEqual(cdoc, ldoc) {
			t.Fatalf("%s: post-update answers diverge:\n  remote: %v\n  local:  %v", path, cdoc, ldoc)
		}
	}
}

// TestReadyzEndpoints covers the /readyz satellite on both server kinds:
// ready only when actually able to serve, 503 once closed or while
// building.
func TestReadyzEndpoints(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, doc := getDoc(t, ts.URL+"/readyz")
	if status != http.StatusOK || doc["status"] != "ready" {
		t.Fatalf("/readyz = %d %v", status, doc)
	}
	if doc["index_bytes"] == nil {
		t.Fatalf("/readyz on an index strategy reports no index_bytes: %v", doc)
	}
	srv.Close()
	if status, _ := getDoc(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close = %d, want 503", status)
	}

	ss, sts := startFig2ShardServer(t, 0, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ss.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	status, doc = getDoc(t, sts.URL+"/readyz")
	if status != http.StatusOK || doc["status"] != "ready" {
		t.Fatalf("shard /readyz = %d %v", status, doc)
	}
	if status, _ := getDoc(t, sts.URL+"/healthz"); status != http.StatusOK {
		t.Fatal("shard /healthz not 200")
	}
}

// TestShardServerProbesAfterClose: a draining shard server reports
// closed on both probes, like Server, instead of ready while every
// estimate gets 503.
func TestShardServerProbesAfterClose(t *testing.T) {
	ss, ts := startFig2ShardServer(t, 0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ss.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	ss.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		status, doc := getDoc(t, ts.URL+path)
		if status != http.StatusServiceUnavailable || doc["status"] != "closed" {
			t.Errorf("%s after Close = %d %v, want 503 closed", path, status, doc)
		}
	}
}

// TestShardServerGenerationHandling covers the protocol edges: unknown
// generations are refused with 409 (no silent cross-generation mixing),
// and the update endpoint is idempotent for the current generation.
func TestShardServerGenerationHandling(t *testing.T) {
	ss, ts := startFig2ShardServer(t, 0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ss.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	post := func(path string, body any) (int, map[string]any) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc
	}

	// A future generation nobody served: 409.
	status, _ := postEstimate(t, ts.URL, distrib.EstimateRequest{
		User: 1, Generation: 5, Frontier: [][]float64{{0.2, 0.3, 0.5}},
	})
	if status != http.StatusConflict {
		t.Fatalf("estimate at unknown generation = %d, want 409", status)
	}

	// Updates must arrive exactly in sequence.
	wire := distrib.BatchToRequest(fig2Batch(), 3)
	if s, _ := post("/shard/update", wire); s != http.StatusConflict {
		t.Fatalf("out-of-order update = %d, want 409", s)
	}
	wire.Generation = 1
	if s, doc := post("/shard/update", wire); s != http.StatusOK {
		t.Fatalf("in-order update = %d %v, want 200", s, doc)
	}
	if g := ss.Generation(); g != 1 {
		t.Fatalf("generation after update = %d", g)
	}
	// Idempotent retry of the same generation.
	if s, _ := post("/shard/update", wire); s != http.StatusOK {
		t.Fatal("idempotent update retry rejected")
	}
	// The swap window double-buffers the previous generation.
	status, _ = postEstimate(t, ts.URL, distrib.EstimateRequest{
		User: 1, Generation: 0, Frontier: [][]float64{{0.2, 0.3, 0.5}},
	})
	if status != http.StatusOK {
		t.Fatalf("previous-generation estimate = %d, want 200 (double buffer)", status)
	}
}
