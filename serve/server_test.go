package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pitex"
)

func newTestServer(t *testing.T, opts pitex.ServeOptions) *Server {
	t.Helper()
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return out
}

func TestServerSellingPointsAndCacheHit(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := getJSON(t, ts.URL+"/selling-points?user=0&k=2", http.StatusOK)
	if got := fmt.Sprint(out["tags"]); got != "[w3 w4]" {
		t.Errorf("tags = %v, want [w3 w4]", out["tags"])
	}
	if out["cached"] != false {
		t.Errorf("first query cached = %v, want false", out["cached"])
	}
	out = getJSON(t, ts.URL+"/selling-points?user=0&k=2", http.StatusOK)
	if out["cached"] != true {
		t.Errorf("repeat query cached = %v, want true", out["cached"])
	}

	// The hit must be observable via /statsz (acceptance criterion).
	stats := getJSON(t, ts.URL+"/statsz", http.StatusOK)
	cache := stats["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits < 1 {
		t.Errorf("/statsz cache.hits = %v, want >= 1", hits)
	}
	if misses := cache["misses"].(float64); misses < 1 {
		t.Errorf("/statsz cache.misses = %v, want >= 1", misses)
	}
	lat := stats["latency"].(map[string]any)
	if _, ok := lat["selling-points/INDEXEST+"]; !ok {
		t.Errorf("latency histogram missing, have %v", lat)
	}
	// An index strategy must report a positive offline-index footprint.
	if ib := stats["index_bytes"].(float64); ib <= 0 {
		t.Errorf("/statsz index_bytes = %v, want > 0", ib)
	}
}

func TestServerTopMAndPrefix(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := getJSON(t, ts.URL+"/selling-points?user=0&k=2&m=3", http.StatusOK)
	alts, ok := out["alternatives"].([]any)
	if !ok || len(alts) != 3 {
		t.Errorf("alternatives = %v, want 3 entries", out["alternatives"])
	}
	out = getJSON(t, ts.URL+"/selling-points?user=0&k=2&prefix=0", http.StatusOK)
	ids := out["tag_ids"].([]any)
	if len(ids) != 2 || ids[0].(float64) != 0 {
		t.Errorf("prefix answer tag_ids = %v, want [0 ...]", ids)
	}
}

func TestServerAudience(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := getJSON(t, ts.URL+"/audience?user=0&tags=2,3&m=3&samples=2000", http.StatusOK)
	aud, ok := out["audience"].([]any)
	if !ok || len(aud) == 0 {
		t.Fatalf("audience = %v, want non-empty", out["audience"])
	}
	out = getJSON(t, ts.URL+"/audience?user=0&tags=3,2&m=3&samples=2000", http.StatusOK)
	if out["cached"] != true {
		t.Errorf("tag-order-permuted audience cached = %v, want true", out["cached"])
	}
}

// TestAudienceEmptyIsArray: an audience that reaches nobody is "[]"
// whether the tag set's posterior is undefined (tags with disjoint topic
// support) or the cascades die at the user (no out-edges), and rows carry
// snake_case keys like every other document.
func TestAudienceEmptyIsArray(t *testing.T) {
	net, _ := fig2NetModel(t)
	model, err := pitex.NewTagModel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = model.SetTagTopic(0, 0, 0.5)
	_ = model.SetTagTopic(1, 2, 0.5)
	en, err := pitex.NewEngine(net, model, fig2Options(pitex.StrategyIndexPruned, 0))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	srv, err := New(en, pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, query := range []string{"user=0&tags=0,1", "user=6&tags=1"} {
		st, body := getBody(t, ts.URL+"/audience?"+query)
		if want := `"audience":[],`; st != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("/audience?%s = %d %s, want %s", query, st, body, want)
		}
	}
	st, body := getBody(t, ts.URL+"/audience?user=0&tags=1")
	if st != http.StatusOK || !strings.Contains(string(body), `"audience":[{"user":`) || !strings.Contains(string(body), `,"probability":`) {
		t.Errorf("/audience?user=0&tags=1 = %d %s, want rows keyed user and probability", st, body)
	}
}

func TestServerBatch(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 2, QueueDepth: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := getJSON(t, ts.URL+"/selling-points?users=0,1,2&k=2", http.StatusOK)
	rows, ok := out["results"].([]any)
	if !ok || len(rows) != 3 {
		t.Fatalf("results = %v, want 3 rows", out["results"])
	}
	first := rows[0].(map[string]any)
	if first["user"].(float64) != 0 || first["error"] != nil {
		t.Errorf("row 0 = %v", first)
	}
}

// TestServerBatchLargerThanAdmission checks that a batch beyond
// PoolSize+QueueDepth queues through bounded workers instead of shedding
// rows via admission control.
func TestServerBatchLargerThanAdmission(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 2, QueueDepth: 1, QueueTimeout: time.Minute})
	users := make([]int, 40)
	for i := range users {
		users[i] = i % 7
	}
	for _, br := range srv.QueryBatch(context.Background(), users, 2) {
		if br.Err != nil {
			t.Fatalf("user %d: %v", br.User, br.Err)
		}
	}
	if st := srv.Stats(); st.Pool.Rejected != 0 {
		t.Errorf("batch tripped admission control: %+v", st.Pool)
	}
}

// TestServerBatchCancelled: a batch whose context is already cancelled
// answers every row with context.Canceled — a cached user included —
// and takes no engine.
func TestServerBatchCancelled(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 2})
	if _, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	before := srv.Stats().Pool.Served
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	users := []int{0, 1, 2, 3, 4, 5, 6}
	out := srv.QueryBatch(ctx, users, 2)
	if len(out) != len(users) {
		t.Fatalf("got %d rows, want %d", len(out), len(users))
	}
	for i, br := range out {
		if br.User != users[i] || !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("row %d = user %d, err %v; want user %d, context.Canceled", i, br.User, br.Err, users[i])
		}
	}
	if served := srv.Stats().Pool.Served; served != before {
		t.Fatalf("cancelled batch served %d requests", served-before)
	}
}

func TestServerBatchTooLarge(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ids := make([]string, MaxBatchUsers+1)
	for i := range ids {
		ids[i] = fmt.Sprint(i % 7)
	}
	getJSON(t, ts.URL+"/selling-points?k=2&users="+strings.Join(ids, ","), http.StatusBadRequest)
}

func TestServerBadParams(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, url := range []string{
		"/selling-points",                         // missing user
		"/selling-points?user=zzz&k=2",            // bad user
		"/selling-points?user=0&k=bogus",          // bad k
		"/selling-points?user=999&k=2",            // out-of-range user
		"/selling-points?user=0&k=99",             // k > MaxK
		"/selling-points?user=0&k=2&m=0",          // bad m
		"/selling-points?user=0&k=2&m=65",         // m beyond MaxTopM
		"/selling-points?user=0&k=2&m=2&prefix=1", // prefix+top-m
		"/selling-points?users=1,zz&k=2",          // bad batch list
		"/selling-points?users=0,1&k=2&m=2",       // batch+top-m
		"/selling-points?users=0,1&k=2&prefix=1",  // batch+prefix
		"/audience?user=0&tags=",                  // empty tags
		"/audience?tags=1",                        // missing user
		"/audience?user=0&tags=1&m=nope",          // bad m
		"/audience?user=0&tags=1&m=1001",          // m beyond MaxAudienceUsers
	} {
		getJSON(t, ts.URL+url, http.StatusBadRequest)
	}
}

// TestServerPrefixValidationHTTP pins the query-validation fix over the
// HTTP path: malformed prefixes, out-of-range users and k, and audience
// tag sets must 400 with a descriptive error before ever occupying a pool
// engine — pitex.Request.Validate and the engine's one tag-set check run
// before admission — and so must a batch row.
func TestServerPrefixValidationHTTP(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, url, wantErr string
	}{
		{"duplicate", "/selling-points?user=0&k=3&prefix=1,1", "duplicate tag"},
		{"duplicate later", "/selling-points?user=0&k=4&prefix=0,2,0", "duplicate tag"},
		{"oversized", "/selling-points?user=0&k=2&prefix=0,1,2", "exceeds k"},
		{"out of range", "/selling-points?user=0&k=2&prefix=9", "outside [0,4)"},
		{"negative", "/selling-points?user=0&k=2&prefix=-1", "outside [0,4)"},
		{"user out of range", "/selling-points?user=999&k=2", "pitex: user 999 outside [0,7)"},
		{"k zero", "/selling-points?user=0&k=0", "pitex: k = 0 outside [1,4]"},
		{"k too large", "/selling-points?user=0&k=9", "pitex: k = 9 outside [1,4]"},
		{"audience duplicate", "/audience?user=0&tags=3,3&m=3", "duplicate tag"},
		{"audience out of range", "/audience?user=0&tags=1,9&m=3", "outside [0,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := getJSON(t, ts.URL+tc.url, http.StatusBadRequest)
			msg, _ := out["error"].(string)
			if !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", msg, tc.wantErr)
			}
		})
	}
	// None of the rejected requests may have reached an engine.
	if served := srv.Stats().Pool.Served; served != 0 {
		t.Fatalf("pool served %d requests for invalid tag sets", served)
	}
	// A well-formed prefix still answers (and does occupy the pool).
	out := getJSON(t, ts.URL+"/selling-points?user=0&k=2&prefix=2", http.StatusOK)
	ids := out["tag_ids"].([]any)
	if len(ids) != 2 {
		t.Fatalf("valid prefix answer tag_ids = %v", ids)
	}
	// In a batch only the valid row takes an engine; the other carries
	// the same message as a row error.
	before := srv.Stats().Pool.Served
	out = getJSON(t, ts.URL+"/selling-points?users=0,999&k=2", http.StatusOK)
	rows := out["results"].([]any)
	if msg, _ := rows[1].(map[string]any)["error"].(string); msg != "pitex: user 999 outside [0,7)" {
		t.Fatalf("batch row 999 error = %q", msg)
	}
	if served := srv.Stats().Pool.Served - before; served != 1 {
		t.Fatalf("batch of one valid and one invalid user served %d requests, want 1", served)
	}
}

func TestServerHealthzAndClose(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" || out["strategy"] != "INDEXEST+" {
		t.Errorf("healthz = %v", out)
	}
	srv.Close()
	getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable)
	getJSON(t, ts.URL+"/selling-points?user=0&k=2", http.StatusServiceUnavailable)
}

// TestClosedServerRefusesCachedHits: once closed, a server answers 503
// "closed" on the query routes even for a query it has cached, as its
// health probes do.
func TestClosedServerRefusesCachedHits(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	urls := []string{"/selling-points?user=0&k=2", "/audience?user=0&tags=2,3&m=3"}
	for _, u := range urls {
		getJSON(t, ts.URL+u, http.StatusOK)
		if out := getJSON(t, ts.URL+u, http.StatusOK); out["cached"] != true {
			t.Fatalf("%s: repeat not served from the cache: %v", u, out)
		}
	}
	srv.Close()
	for _, u := range urls {
		out := getJSON(t, ts.URL+u, http.StatusServiceUnavailable)
		if msg, _ := out["error"].(string); !strings.Contains(msg, "closed") {
			t.Errorf("%s after Close: error %q, want it to say closed", u, msg)
		}
	}
}

func TestServerQueryTimeout(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueryTimeout: time.Nanosecond})
	_, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil)
	if err == nil {
		t.Fatal("1ns query deadline produced an answer")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/selling-points?user=1&k=2", http.StatusGatewayTimeout)
}

// TestServer64ConcurrentQueries is the acceptance check: >= 64 concurrent
// queries through pool+cache, race-detector-clean, with repeated queries
// hitting the cache.
func TestServer64ConcurrentQueries(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{
		PoolSize:     4,
		QueueDepth:   128,
		QueueTimeout: time.Minute,
	})
	const concurrency = 64
	var wg sync.WaitGroup
	errs := make(chan error, concurrency)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := srv.SellingPoints(context.Background(), i%7, 2, 1, nil)
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if i%7 == 0 && (len(res.Tags) != 2 || res.Tags[0] != 2 || res.Tags[1] != 3) {
				errs <- fmt.Errorf("query %d: tags = %v, want [2 3]", i, res.Tags)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Pool.Rejected != 0 || st.Pool.Timeouts != 0 {
		t.Errorf("pool shed traffic: %+v", st.Pool)
	}
	// 64 requests over 7 distinct users: at most 7 estimations ran; the
	// other 57 were answered by the cache or by in-flight deduplication.
	if st.Cache.Misses > 7 {
		t.Errorf("misses = %d, want <= 7", st.Cache.Misses)
	}
	if st.Cache.Hits+st.Cache.Deduped < concurrency-7 {
		t.Errorf("hits+deduped = %d, want >= %d (stats %+v)",
			st.Cache.Hits+st.Cache.Deduped, concurrency-7, st.Cache)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, pitex.ServeOptions{}); err == nil {
		t.Error("nil engine accepted")
	}
	en := fig2Engine(t, pitex.StrategyLazy)
	if _, err := New(en, pitex.ServeOptions{PoolSize: -1}); err == nil {
		t.Error("negative pool size accepted")
	}
	srv, err := New(en, pitex.ServeOptions{PoolSize: 1, QueueDepth: -1, QueryTimeout: -time.Second})
	if err != nil {
		t.Errorf("QueueDepth/QueryTimeout -1 opt-outs rejected: %v", err)
	} else {
		srv.Close()
	}
}
