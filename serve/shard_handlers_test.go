package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
)

// startFig2Shards builds a shard server owning ALL shards of a 2-way
// layout under the given strategy.
func startFig2Shards(t *testing.T, s pitex.Strategy, track bool) (*ShardServer, *httptest.Server) {
	t.Helper()
	net, model := fig2NetModel(t)
	opts := fig2Options(s, 2)
	opts.TrackUpdates = track
	ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: 2})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ss.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	ts := httptest.NewServer(ss.Handler())
	t.Cleanup(ts.Close)
	return ss, ts
}

func TestShardServerStatszAndInfo(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)

	status, stats := getDoc(t, ts.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("/statsz = %d", status)
	}
	for _, key := range []string{"generation", "shards", "owned", "strategy", "latency"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/statsz missing %q: %v", key, stats)
		}
	}

	resp, err := http.Get(ts.URL + "/shard/info")
	if err != nil {
		t.Fatalf("GET /shard/info: %v", err)
	}
	defer resp.Body.Close()
	var info distrib.InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	if !info.Ready || info.TotalShards != 2 || len(info.Shards) != 2 || info.TotalUsers != 7 {
		t.Fatalf("info = %+v", info)
	}
	for _, si := range info.Shards {
		if si.Theta <= 0 || si.Graphs <= 0 {
			t.Fatalf("shard row %+v lacks θ/graphs", si)
		}
	}
}

// TestShardServerDelayStrategy: DELAYEST shard servers serve counters
// and generation-keyed repairs but refuse /shard/estimate (the delay
// estimator's RNG stream cannot be replayed across processes).
func TestShardServerDelayStrategy(t *testing.T) {
	for _, track := range []bool{true, false} {
		ss, ts := startFig2Shards(t, pitex.StrategyDelay, track)

		body, _ := json.Marshal(distrib.EstimateRequest{User: 0, Probe: pitex.RemoteProbe{Posterior: []float64{1, 0, 0}}})
		resp, err := http.Post(ts.URL+"/shard/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("track=%v: POST estimate: %v", track, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("track=%v: DELAYEST estimate = %d, want 501", track, resp.StatusCode)
		}

		resp, err = http.Get(ts.URL + "/shard/counters?user=0")
		if err != nil {
			t.Fatalf("track=%v: GET counters: %v", track, err)
		}
		var counters distrib.CountersResponse
		err = json.NewDecoder(resp.Body).Decode(&counters)
		resp.Body.Close()
		if err != nil || len(counters.Counts) != 2 {
			t.Fatalf("track=%v: counters = %+v, %v", track, counters, err)
		}
		for _, row := range counters.Counts {
			if row.Theta <= 0 || row.Users <= 0 {
				t.Fatalf("track=%v: counter row %+v", track, row)
			}
		}

		// Repair (track=true) or rebuild (track=false) to generation 1.
		upd, _ := json.Marshal(distrib.BatchToRequest(fig2Batch(), 1))
		resp, err = http.Post(ts.URL+"/shard/update", "application/json", bytes.NewReader(upd))
		if err != nil {
			t.Fatalf("track=%v: POST update: %v", track, err)
		}
		var ur distrib.UpdateResponse
		err = json.NewDecoder(resp.Body).Decode(&ur)
		resp.Body.Close()
		if err != nil || ur.Generation != 1 {
			t.Fatalf("track=%v: update response %+v, %v", track, ur, err)
		}
		if got := ss.Generation(); got != 1 {
			t.Fatalf("track=%v: generation = %d after update", track, got)
		}
		if status, _ := getDoc(t, ts.URL+"/shard/counters?user=0&generation=1"); status != http.StatusOK {
			t.Fatalf("track=%v: post-update counters = %d", track, status)
		}
	}
}

func TestShardServerBadRequests(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/shard/estimate", "{nope"); got != http.StatusBadRequest {
		t.Errorf("malformed estimate body = %d", got)
	}
	if got := post("/shard/estimate", `{"user":99,"probe":{"posterior":[1,0,0]}}`); got != http.StatusBadRequest {
		t.Errorf("out-of-range user = %d", got)
	}
	if got := post("/shard/estimate", `{"user":0,"probe":{}}`); got != http.StatusBadRequest {
		t.Errorf("empty probe = %d", got)
	}
	// The frontier form: rows are one float per topic (3 here), all alike,
	// and never ride with a probe.
	if got := post("/shard/estimate", `{"user":0,"frontier":[[0.2,0.3,0.5],[0.5,0.5]]}`); got != http.StatusBadRequest {
		t.Errorf("ragged frontier = %d", got)
	}
	if got := post("/shard/estimate", `{"user":0,"frontier":[[0.5,0.5],[0.1,0.9]]}`); got != http.StatusBadRequest {
		t.Errorf("frontier rows shorter than the topic count = %d", got)
	}
	if got := post("/shard/estimate", `{"user":0,"frontier":[[0.1,0.2,0.3,0.4]]}`); got != http.StatusBadRequest {
		t.Errorf("frontier row longer than the topic count = %d", got)
	}
	if got := post("/shard/estimate", `{"user":0,"probe":{"posterior":[1,0,0]},"frontier":[[0.2,0.3,0.5]]}`); got != http.StatusBadRequest {
		t.Errorf("probe and frontier together = %d", got)
	}
	if got := post("/shard/estimate", `{"user":0,"probe":{"bound_weights":[1]},"frontier":[[0.2,0.3,0.5]]}`); got != http.StatusBadRequest {
		t.Errorf("half a bound probe and a frontier together = %d", got)
	}
	if got := post("/shard/estimate", `{"user":0,"frontier":[[0.2,0.3,0.5],[0.5,0.25,0.25]]}`); got != http.StatusOK {
		t.Errorf("well-formed frontier = %d", got)
	}
	if got := post("/shard/update", "{nope"); got != http.StatusBadRequest {
		t.Errorf("malformed update body = %d", got)
	}
	if status, _ := getDoc(t, ts.URL+"/shard/counters"); status != http.StatusBadRequest {
		t.Errorf("counters without user = %d", status)
	}
	if status, _ := getDoc(t, ts.URL+"/shard/counters?user=0&generation=zap"); status != http.StatusBadRequest {
		t.Errorf("counters with bad generation = %d", status)
	}
	if status, _ := getDoc(t, ts.URL+"/shard/counters?user=99"); status != http.StatusBadRequest {
		t.Errorf("counters with out-of-range user = %d", status)
	}
}

// TestShardServerAcquire drives the admission gate directly: a free
// slot, a queued wait that times out, shedding beyond QueueDepth, and
// context cancellation while queued.
func TestShardServerAcquire(t *testing.T) {
	net, model := fig2NetModel(t)
	ss, err := NewShardServer(net, model, fig2Options(pitex.StrategyIndexPruned, 1), ShardConfig{
		Workers: 1, QueueDepth: 1, QueueTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	ctx := context.Background()

	release, err := ss.acquire(ctx)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Slot held: the queue admits one waiter, which times out.
	if _, err := ss.acquire(ctx); err != ErrQueueTimeout {
		t.Fatalf("queued acquire err = %v, want ErrQueueTimeout", err)
	}

	// Two concurrent waiters exceed QueueDepth: one of them must be shed
	// with ErrOverloaded (which one depends on arrival order), the other
	// times out in the queue.
	waiting := make(chan error, 1)
	go func() {
		_, err := ss.acquire(ctx)
		waiting <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	shed := false
	for time.Now().Before(deadline) && !shed {
		_, err := ss.acquire(ctx)
		if err == ErrOverloaded {
			shed = true
		}
		select {
		case bgErr := <-waiting:
			if bgErr == ErrOverloaded {
				shed = true
			} else if bgErr != ErrQueueTimeout {
				t.Fatalf("background waiter err = %v", bgErr)
			}
		default:
		}
	}
	if !shed {
		t.Fatal("never shed with a full queue")
	}

	// Context cancellation while queued.
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	ss.cfg.QueueTimeout = time.Minute
	if _, err := ss.acquire(cctx); err != context.Canceled {
		t.Fatalf("cancelled acquire err = %v, want context.Canceled", err)
	}

	release()
	if release2, err := ss.acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	} else {
		release2()
	}
}
