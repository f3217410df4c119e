package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
)

// send issues one request and returns its (closed) response.
func send(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp.Body.Close()
	return resp
}

// TestRouteLatencyLabels pins the latency label of every observed route
// of both servers: one request each, success or refusal, must record
// under "endpoint/STRATEGY". admitBudget reads these labels, so they must
// not move.
func TestRouteLatencyLabels(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ss, sts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	if status, _ := postEstimate(t, sts.URL, distrib.EstimateRequest{User: 0, Frontier: [][]float64{{0.2, 0.3, 0.5}}}); status != http.StatusOK {
		t.Fatalf("estimate = %d", status)
	}
	for _, tc := range []struct {
		label             string
		metrics           *Metrics
		method, url, body string
	}{
		{"selling-points", srv.metrics, "GET", ts.URL + "/selling-points?user=1&k=2", ""},
		{"selling-points-batch", srv.metrics, "GET", ts.URL + "/selling-points?users=1,2&k=2", ""},
		{"audience", srv.metrics, "GET", ts.URL + "/audience?user=1&tags=2,3", ""},
		{"admin-update", srv.metrics, "GET", ts.URL + "/admin/update", ""},
		{"admin-jobs", srv.metrics, "POST", ts.URL + "/admin/jobs", "{nope"},
		{"shard-estimate", ss.metrics, "", "", ""}, // sent above
		{"shard-counters", ss.metrics, "GET", sts.URL + "/shard/counters?user=0", ""},
		{"shard-update", ss.metrics, "POST", sts.URL + "/shard/update", "{nope"},
		{"shard-resync", ss.metrics, "GET", sts.URL + "/shard/resync", ""},
	} {
		if tc.method != "" {
			send(t, tc.method, tc.url, tc.body)
		}
		// The chain records a request after writing its response, so the
		// client can see the answer first: wait briefly for the sample.
		label, deadline := tc.label+"/INDEXEST+", time.Now().Add(2*time.Second)
		for tc.metrics.Snapshot()[label].Count == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if tc.metrics.Snapshot()[label].Count == 0 {
			t.Errorf("%s %s recorded nothing under %q", tc.method, tc.url, label)
		}
	}
}

// TestClosedShardRefusesWithRetryAfter: a draining ShardServer answers
// every state-touching route with 503 and Retry-After: 1, before it looks
// at the body or takes a slot.
func TestClosedShardRefusesWithRetryAfter(t *testing.T) {
	ss, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	ss.Close()
	for _, c := range [][2]string{
		{"POST", "/shard/estimate"}, {"POST", "/shard/update"}, {"GET", "/shard/resync"}, {"POST", "/shard/resync"},
	} {
		resp := send(t, c[0], ts.URL+c[1], "{}")
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Errorf("closed %s %s = %d, Retry-After %q; want 503, 1",
				c[0], c[1], resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if n := ss.gate.served.Load(); n != 0 {
		t.Fatalf("closed shard served %d estimates", n)
	}
}
