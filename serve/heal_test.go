package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
)

// setBatch is a repeatable Fig. 2 mutation (SetEdge is valid any number
// of times, unlike fig2Batch's InsertEdge); distinct probabilities keep
// successive generations distinguishable.
func setBatch(p float64) *pitex.UpdateBatch {
	var b pitex.UpdateBatch
	b.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: p})
	return &b
}

// waitFleetAt polls until every endpoint the client tracks reports the
// wanted generation (the reconciler heals in the background).
func waitFleetAt(t *testing.T, client *distrib.Client, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := client.Status()
		all := true
		for _, g := range st.Groups {
			for _, ep := range g.Endpoints {
				if ep.Generation != want {
					all = false
				}
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged to generation %d: %+v", want, st.Groups)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gateUpdates wraps a shard server so /shard/update (and /shard/resync,
// when gateResync) can be switched off — the shape of an endpoint that
// is reachable but failing its update plane.
func gateUpdates(t *testing.T, ss *ShardServer, blocked *atomic.Bool, gateResync bool) *httptest.Server {
	t.Helper()
	h := ss.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if blocked.Load() && (r.URL.Path == "/shard/update" || (gateResync && r.URL.Path == "/shard/resync")) {
			http.Error(w, `{"error":"injected outage"}`, http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// waitShardsReady blocks until every server's index build finished. Dial
// only needs one ready replica per group, and a replica still building
// answers /shard/update 503 — it would miss the test's first fan-out and
// start the scripted outage already a generation behind.
func waitShardsReady(t *testing.T, servers ...*ShardServer) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, ss := range servers {
		if err := ss.WaitReady(ctx); err != nil {
			t.Fatalf("WaitReady: %v", err)
		}
	}
}

// TestCoordinatorJournalReplayHeals: a replica that misses a fan-out
// (small gap, inside the journal horizon) is healed by the reconciler
// replaying the exact missed bodies — no resync, no restart.
func TestCoordinatorJournalReplayHeals(t *testing.T) {
	ssA, tsA := startFig2ShardServer(t, 0, 1)
	ssB, _ := startFig2ShardServer(t, 0, 1)
	waitShardsReady(t, ssA, ssB)
	var blockB atomic.Bool
	tsB := gateUpdates(t, ssB, &blockB, false)

	coord, client := dialFig2Coordinator(t, [][]string{{tsA.URL, tsB.URL}},
		distrib.Options{ReconcileInterval: 20 * time.Millisecond},
		pitex.ServeOptions{PoolSize: 2})

	if _, err := coord.ApplyUpdates(setBatch(0.45)); err != nil {
		t.Fatalf("ApplyUpdates gen 1: %v", err)
	}
	blockB.Store(true)
	if _, err := coord.ApplyUpdates(setBatch(0.55)); err != nil {
		t.Fatalf("ApplyUpdates gen 2: %v", err) // A applied; B missed it
	}
	st := client.Status()
	if st.LaggingCount != 1 {
		t.Fatalf("lagging endpoints after missed fan-out = %d, want 1", st.LaggingCount)
	}
	blockB.Store(false)

	waitFleetAt(t, client, 2)
	st = client.Status()
	if st.JournalReplays == 0 {
		t.Fatal("fleet converged without a journal replay")
	}
	if st.Resyncs != 0 {
		t.Fatalf("small-gap heal used %d resyncs, want journal replay only", st.Resyncs)
	}
	if st.LaggingCount != 0 {
		t.Fatalf("lagging endpoints after heal = %d, want 0", st.LaggingCount)
	}
	if g := ssB.Generation(); g != 2 {
		t.Fatalf("healed replica at generation %d, want 2", g)
	}
}

// resyncSnapshot fetches one server's GET /shard/resync body raw — the
// byte-identity witness used below.
func resyncSnapshot(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/shard/resync")
	if err != nil {
		t.Fatalf("GET /shard/resync: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /shard/resync: status %d, err %v", resp.StatusCode, err)
	}
	return data
}

// TestCoordinatorResyncPastHorizonHeals: a replica whose gap reaches
// past the journal horizon cannot be replayed — the reconciler copies
// the full state from its in-group sibling instead, and afterwards the
// two replicas serialize byte-identically.
func TestCoordinatorResyncPastHorizonHeals(t *testing.T) {
	ssA, tsA := startFig2ShardServer(t, 0, 1)
	ssB, _ := startFig2ShardServer(t, 0, 1)
	waitShardsReady(t, ssA, ssB)
	var blockB atomic.Bool
	tsB := gateUpdates(t, ssB, &blockB, false)

	coord, client := dialFig2Coordinator(t, [][]string{{tsA.URL, tsB.URL}},
		distrib.Options{
			ReconcileInterval: 20 * time.Millisecond,
			JournalHorizon:    2,
		},
		pitex.ServeOptions{PoolSize: 2})

	if _, err := coord.ApplyUpdates(setBatch(0.45)); err != nil {
		t.Fatalf("ApplyUpdates gen 1: %v", err)
	}
	blockB.Store(true)
	// B misses generations 2..4; a horizon of 2 retains only {3,4}, so
	// replay cannot bridge the gap.
	for i, p := range []float64{0.5, 0.55, 0.6} {
		if _, err := coord.ApplyUpdates(setBatch(p)); err != nil {
			t.Fatalf("ApplyUpdates gen %d: %v", i+2, err)
		}
	}
	blockB.Store(false)

	waitFleetAt(t, client, 4)
	st := client.Status()
	if st.Resyncs == 0 {
		t.Fatal("past-horizon gap healed without a resync")
	}
	if g := ssB.Generation(); g != 4 {
		t.Fatalf("resynced replica at generation %d, want 4", g)
	}
	if a, b := resyncSnapshot(t, tsA.URL), resyncSnapshot(t, tsB.URL); !bytes.Equal(a, b) {
		t.Fatal("replicas not byte-identical after resync")
	}
}

// TestShardResyncEndpoint drives the /shard/resync pair directly: a
// snapshot taken from one server installs on a stale same-layout peer,
// stale snapshots are acknowledged idempotently, and layout mismatches
// are refused.
func TestShardResyncEndpoint(t *testing.T) {
	ssA, tsA := startFig2ShardServer(t, 0, 1)
	ssB, tsB := startFig2ShardServer(t, 0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ssA.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady A: %v", err)
	}
	if err := ssB.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady B: %v", err)
	}

	// Advance A alone to generation 1.
	wire := distrib.BatchToRequest(setBatch(0.45), 1)
	body, _ := json.Marshal(wire)
	resp, err := http.Post(tsA.URL+"/shard/update", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("update A: %v (status %d)", err, resp.StatusCode)
	}
	resp.Body.Close()

	snap := resyncSnapshot(t, tsA.URL)
	post := func(data []byte) (int, distrib.ResyncResponse) {
		t.Helper()
		resp, err := http.Post(tsB.URL+"/shard/resync", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST /shard/resync: %v", err)
		}
		defer resp.Body.Close()
		var rr distrib.ResyncResponse
		_ = json.NewDecoder(resp.Body).Decode(&rr)
		return resp.StatusCode, rr
	}

	if status, rr := post(snap); status != http.StatusOK || rr.Generation != 1 {
		t.Fatalf("install = %d gen %d, want 200 gen 1", status, rr.Generation)
	}
	if g := ssB.Generation(); g != 1 {
		t.Fatalf("B at generation %d after install, want 1", g)
	}
	if !bytes.Equal(snap, resyncSnapshot(t, tsB.URL)) {
		t.Fatal("installed state does not serialize byte-identically to the source")
	}
	// Replaying the same (now stale) snapshot is acknowledged, not applied.
	if status, rr := post(snap); status != http.StatusOK || rr.Generation != 1 {
		t.Fatalf("idempotent reinstall = %d gen %d, want 200 gen 1", status, rr.Generation)
	}
	// A snapshot for a different layout is refused.
	var wrong distrib.ResyncState
	if err := json.Unmarshal(snap, &wrong); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	wrong.TotalShards = 7
	wrong.Generation = 9
	data, _ := json.Marshal(wrong)
	if status, _ := post(data); status != http.StatusConflict {
		t.Fatalf("layout-mismatch install = %d, want 409", status)
	}

	// The healed replica answers estimates at the new generation,
	// identically to the source.
	est := func(url string) distrib.EstimateResponse {
		t.Helper()
		status, resp := postEstimate(t, url, distrib.EstimateRequest{
			User: 1, Generation: 1, Frontier: [][]float64{{0.2, 0.3, 0.5}},
		})
		if status != http.StatusOK {
			t.Fatalf("estimate %s: status %d", url, status)
		}
		return resp
	}
	if a, b := est(tsA.URL), est(tsB.URL); !reflect.DeepEqual(a, b) {
		t.Fatalf("post-resync estimates diverge:\n  A: %v\n  B: %v", a, b)
	}
}

// TestShardResyncRefusesRelabelledSlice: a snapshot slice is installed
// under its label only if it fits that shard of the layout — shard 1's
// index posted as shard 0 would skew every gather, so it is refused.
func TestShardResyncRefusesRelabelledSlice(t *testing.T) {
	ssSrc, tsSrc := startFig2ShardServer(t, 1, 2)
	ssDst, tsDst := startFig2ShardServer(t, 0, 2)
	waitShardsReady(t, ssSrc, ssDst)
	body, _ := json.Marshal(distrib.BatchToRequest(setBatch(0.45), 1))
	resp, err := http.Post(tsSrc.URL+"/shard/update", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("update source: %v (status %d)", err, resp.StatusCode)
	}
	resp.Body.Close()

	var snap distrib.ResyncState
	if err := json.Unmarshal(resyncSnapshot(t, tsSrc.URL), &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if len(snap.Shards) != 1 || snap.Shards[0].Shard != 1 {
		t.Fatalf("source snapshot carries %+v, want shard 1 alone", snap.Shards)
	}
	snap.Shards[0].Shard = 0
	data, _ := json.Marshal(snap)
	resp, err = http.Post(tsDst.URL+"/shard/resync", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST /shard/resync: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("relabelled install = %d, want 400", resp.StatusCode)
	}
	if g := ssDst.Generation(); g != 0 {
		t.Fatalf("refused install published generation %d", g)
	}
}

// TestShardServerCloseDrains: a closed shard server sheds /shard traffic
// with 503 + Retry-After instead of serving from state that may be
// getting torn down.
func TestShardServerCloseDrains(t *testing.T) {
	ss, ts := startFig2ShardServer(t, 0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ss.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	ss.Close()
	ss.Close() // idempotent
	req, _ := distrib.EncodeFrontierRequest(distrib.EstimateRequest{
		User: 1, Frontier: [][]float64{{0.2, 0.3, 0.5}},
	})
	resp, err := http.Post(ts.URL+"/shard/estimate", distrib.FrontierContentType, bytes.NewReader(req))
	if err != nil {
		t.Fatalf("POST after Close: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("estimate after Close = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 after Close carries no Retry-After")
	}
}

// TestMultiShardResyncAndGather: a server owning shards {0, 2} of an
// S = 3 layout, after an update that adds users, hands its snapshot to a
// fresh {0, 2} replica, which then serializes and answers frames exactly
// as the source does. A coordinator over the {0, 2} server plus a {1}
// server answers as the in-process S = 3 engine does, before and after
// the install. A snapshot that omits an owned shard or carries a foreign
// one is a 409; one whose slices swap labels is a 400.
func TestMultiShardResyncAndGather(t *testing.T) {
	const S = 3
	src, tsSrc := startFig2Owned(t, S, 0, 2)
	one, tsOne := startFig2Owned(t, S, 1)
	rep, tsRep := startFig2Owned(t, S, 0, 2)
	waitShardsReady(t, src, one, rep)

	local, err := New(fig2EngineSharded(t, pitex.StrategyIndexPruned, S), pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer local.Close()
	lt := httptest.NewServer(local.Handler())
	defer lt.Close()
	paths := []string{
		"/selling-points?user=1&k=2",
		"/selling-points?user=0&k=2&m=3",
		"/selling-points?user=2&k=1",
		"/selling-points?user=5&k=3",
	}
	answersMatch := func(coord *Server, when string, extra ...string) {
		t.Helper()
		ct := httptest.NewServer(coord.Handler())
		defer ct.Close()
		for _, path := range append(paths, extra...) {
			cs, cdoc := getDoc(t, ct.URL+path)
			ls, ldoc := getDoc(t, lt.URL+path)
			if cs != http.StatusOK || ls != http.StatusOK {
				t.Fatalf("%s %s: coordinator %d, local %d (%v / %v)", when, path, cs, ls, cdoc, ldoc)
			}
			// Timing and cache state are not part of the answer.
			for _, doc := range []map[string]any{cdoc, ldoc} {
				delete(doc, "elapsed")
				delete(doc, "cached")
			}
			if !reflect.DeepEqual(cdoc, ldoc) {
				t.Fatalf("%s %s: coordinator answer diverges from in-process:\n  remote: %v\n  local:  %v", when, path, cdoc, ldoc)
			}
		}
	}

	coord, _ := dialFig2Coordinator(t, [][]string{{tsSrc.URL}, {tsOne.URL}}, distrib.Options{}, pitex.ServeOptions{PoolSize: 2})
	answersMatch(coord, "generation 0")
	batch := func() *pitex.UpdateBatch {
		var b pitex.UpdateBatch
		b.AddUsers(2)
		b.InsertEdge(1, 7, pitex.TopicProb{Topic: 2, Prob: 0.7})
		b.InsertEdge(8, 2, pitex.TopicProb{Topic: 1, Prob: 0.6})
		b.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.5})
		return &b
	}
	if _, err := coord.ApplyUpdates(batch()); err != nil {
		t.Fatalf("coordinator ApplyUpdates: %v", err)
	}
	if _, err := local.ApplyUpdates(batch()); err != nil {
		t.Fatalf("local ApplyUpdates: %v", err)
	}
	grown := []string{"/selling-points?user=7&k=1", "/selling-points?user=8&k=2"}
	answersMatch(coord, "generation 1, before the install", grown...)

	snap := resyncSnapshot(t, tsSrc.URL)
	var base distrib.ResyncState
	if err := json.Unmarshal(snap, &base); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if len(base.Shards) != 2 || base.Shards[0].Shard != 0 || base.Shards[1].Shard != 2 {
		t.Fatalf("source snapshot carries %+v, want shards 0 and 2", base.Shards)
	}
	var foreign distrib.ResyncState
	if err := json.Unmarshal(resyncSnapshot(t, tsOne.URL), &foreign); err != nil {
		t.Fatalf("decode shard 1 snapshot: %v", err)
	}
	post := func(data []byte) int {
		t.Helper()
		resp, err := http.Post(tsRep.URL+"/shard/resync", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST /shard/resync: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []struct {
		name   string
		shards []distrib.ResyncShard
		want   int
	}{
		{"omits shard 2", base.Shards[:1], http.StatusConflict},
		{"carries shard 1", append(slices.Clone(base.Shards), foreign.Shards...), http.StatusConflict},
		{"swaps labels", []distrib.ResyncShard{
			{Shard: 0, Users: base.Shards[1].Users, Index: base.Shards[1].Index},
			{Shard: 2, Users: base.Shards[0].Users, Index: base.Shards[0].Index},
		}, http.StatusBadRequest},
	} {
		wrong := base
		wrong.Shards = bad.shards
		data, _ := json.Marshal(wrong)
		if status := post(data); status != bad.want {
			t.Fatalf("snapshot that %s: install = %d, want %d", bad.name, status, bad.want)
		}
		if g := rep.Generation(); g != 0 {
			t.Fatalf("refused snapshot that %s published generation %d", bad.name, g)
		}
	}

	if status := post(snap); status != http.StatusOK {
		t.Fatalf("install = %d, want 200", status)
	}
	if g := rep.Generation(); g != 1 {
		t.Fatalf("replica at generation %d after install, want 1", g)
	}
	if !bytes.Equal(snap, resyncSnapshot(t, tsRep.URL)) {
		t.Fatal("installed {0, 2} state does not serialize byte-identically to the source")
	}
	for _, user := range []int{1, 7} {
		req := distrib.EstimateRequest{User: user, Generation: 1, Frontier: [][]float64{{0.2, 0.3, 0.5}, {0.6, 0.4, 0}}}
		as, a := postEstimate(t, tsSrc.URL, req)
		bs, b := postEstimate(t, tsRep.URL, req)
		if as != http.StatusOK || bs != http.StatusOK || len(a.Frontier) != 2 || !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d frames differ after install (%d, %d):\n  source:  %v\n  replica: %v", user, as, bs, a, b)
		}
	}

	// A coordinator over the installed replica, on the grown network.
	net, model := fig2NetModel(t)
	grownNet, _, err := net.ApplyBatch(batch())
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := distrib.Dial(ctx, [][]string{{tsRep.URL}, {tsOne.URL}}, distrib.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	en, err := pitex.NewRemoteEngine(grownNet, model, fig2Options(pitex.StrategyIndexPruned, S), client)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	after, err := NewCoordinator(en, client, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer after.Close()
	answersMatch(after, "generation 1, after the install", grown...)
}
