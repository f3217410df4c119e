package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/obsv"
)

// scrape fetches url and strictly parses it as Prometheus text.
func scrape(t *testing.T, url string) map[string]*obsv.ParsedFamily {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obsv.ParseText(string(body))
	if err != nil {
		t.Fatalf("%s is not valid Prometheus text: %v\n%s", url, err, body)
	}
	return fams
}

func TestServerMetricsEndpoint(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A query first, so the request-duration histogram has samples.
	if st, _ := getDoc(t, ts.URL+"/selling-points?user=1&k=2"); st != http.StatusOK {
		t.Fatalf("query status %d", st)
	}
	fams := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		"pitex_build_info",
		"pitex_uptime_seconds",
		"pitex_request_duration_seconds",
		"pitex_pool_served_total",
		"pitex_cache_misses_total",
		"pitex_estimator_probes_total",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	hist, ok := fams["pitex_request_duration_seconds"]
	if !ok {
		t.Fatal("no request duration family")
	}
	if hist.Type != "histogram" {
		t.Fatalf("request duration type = %s", hist.Type)
	}
	var sawEndpoint bool
	for _, s := range hist.Samples {
		if s.Labels["endpoint"] == "selling-points" {
			sawEndpoint = true
		}
	}
	if !sawEndpoint {
		t.Error("histogram carries no selling-points endpoint label")
	}
}

func TestShardServerMetricsEndpoint(t *testing.T) {
	_, ts := startFig2ShardServer(t, 0, 2)
	fams := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		"pitex_build_info",
		"pitex_uptime_seconds",
		"pitex_index_generation",
		"pitex_shard_rejected_total",
		"pitex_shard_timeouts_total",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("shard /metrics missing family %s", want)
		}
	}
	// The owned set never changes; /readyz and /statsz report it.
	if _, ok := fams["pitex_shards_owned"]; ok {
		t.Error("shard /metrics still exports the constant pitex_shards_owned")
	}
}

func TestTraceInlineAndTracez(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, doc := getDoc(t, ts.URL+"/selling-points?user=1&k=2&trace=1")
	if st != http.StatusOK {
		t.Fatalf("status %d: %v", st, doc)
	}
	raw, ok := doc["trace"]
	if !ok {
		t.Fatal("?trace=1 response has no trace field")
	}
	blob, _ := json.Marshal(raw)
	var td obsv.TraceData
	if err := json.Unmarshal(blob, &td); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if td.TraceID == "" || len(td.Spans) == 0 {
		t.Fatalf("trace = %+v", td)
	}
	names := map[string]bool{}
	for _, sp := range td.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"cache", "admission", "query"} {
		if !names[want] {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
	if _, ok := doc["explain"]; !ok {
		t.Error("?trace=1 response has no explain field")
	}

	// The same trace must be in the ring.
	resp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tz struct {
		Traces []obsv.TraceData `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tz); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range tz.Traces {
		if tr.TraceID == td.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in /tracez ring", td.TraceID)
	}
}

func TestExplainInline(t *testing.T) {
	srv, err := New(fig2Engine(t, pitex.StrategyIndexPruned), pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// User 0 has real verification work (user 1's containing graphs are
	// all direct hits, so its probe counters are legitimately zero).
	st, doc := getDoc(t, ts.URL+"/selling-points?user=0&k=2&explain=1")
	if st != http.StatusOK {
		t.Fatalf("status %d: %v", st, doc)
	}
	ex, ok := doc["explain"].(map[string]any)
	if !ok {
		t.Fatalf("explain field missing or wrong shape: %v", doc["explain"])
	}
	if ex["strategy"] != pitex.StrategyIndexPruned.String() {
		t.Errorf("explain strategy = %v", ex["strategy"])
	}
	if v, _ := ex["probes_evaluated"].(float64); v <= 0 {
		t.Errorf("explain probes_evaluated = %v, want > 0", ex["probes_evaluated"])
	}
	// The recovery counters are DELAYMAT's: omitted here, present there.
	if _, ok := ex["recovery_attempts"]; ok {
		t.Errorf("recovery_attempts on an %v response: %v", ex["strategy"], ex)
	}
	dsrv, err := New(fig2Engine(t, pitex.StrategyDelay), pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dsrv.Close()
	dts := httptest.NewServer(dsrv.Handler())
	defer dts.Close()
	if st, doc = getDoc(t, dts.URL+"/selling-points?user=0&k=2&explain=1"); st != http.StatusOK {
		t.Fatalf("status %d: %v", st, doc)
	}
	dex, _ := doc["explain"].(map[string]any)
	attempts, _ := dex["recovery_attempts"].(float64)
	cascades, _ := dex["recovery_cascades"].(float64)
	if attempts <= 0 || cascades <= 0 || cascades > attempts {
		t.Errorf("DELAYMAT explain reports %v cascades of %v attempts", dex["recovery_cascades"], dex["recovery_attempts"])
	}
	// Plain responses must not carry the diagnostics.
	st, doc = getDoc(t, ts.URL+"/selling-points?user=0&k=2")
	if st != http.StatusOK {
		t.Fatal("plain query failed")
	}
	if _, ok := doc["explain"]; ok {
		t.Error("explain leaked into an un-flagged response")
	}
	if _, ok := doc["trace"]; ok {
		t.Error("trace leaked into an un-flagged response")
	}
}

// TestTracePropagatesToShards is the acceptance criterion of the PR: a
// traced coordinator query produces shard-rpc spans, and the shard
// servers' /tracez rings hold the same trace ID — proof the header
// crossed the wire.
func TestTracePropagatesToShards(t *testing.T) {
	const S = 2
	groups := make([][]string, S)
	shardURLs := make([]string, S)
	for s := 0; s < S; s++ {
		_, ts := startFig2ShardServer(t, s, S)
		groups[s] = []string{ts.URL}
		shardURLs[s] = ts.URL
	}
	// Cache disabled so the query scatters instead of replaying.
	coord, _ := dialFig2Coordinator(t, groups, distrib.Options{},
		pitex.ServeOptions{PoolSize: 2, CacheCapacity: -1})
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	st, doc := getDoc(t, ct.URL+"/selling-points?user=1&k=3&trace=1")
	if st != http.StatusOK {
		t.Fatalf("status %d: %v", st, doc)
	}
	blob, _ := json.Marshal(doc["trace"])
	var td obsv.TraceData
	if err := json.Unmarshal(blob, &td); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	var rpcSpans int
	for _, sp := range td.Spans {
		if sp.Name == "shard-rpc" {
			rpcSpans++
		}
	}
	if rpcSpans < S {
		t.Fatalf("trace has %d shard-rpc spans, want >= %d (%+v)", rpcSpans, S, td.Spans)
	}
	// The three steps of one estimation are siblings under the caller's
	// span: a gather opened from the scatter span's context would hang
	// under a parent that ended before it began.
	steps := map[string]map[string]int{} // parent span id -> step name -> count
	scatterIDs := map[string]bool{}
	for _, sp := range td.Spans {
		switch sp.Name {
		case "scatter":
			scatterIDs[sp.SpanID] = true
			fallthrough
		case "probe-marshal", "gather":
			if steps[sp.ParentID] == nil {
				steps[sp.ParentID] = map[string]int{}
			}
			steps[sp.ParentID][sp.Name]++
		}
	}
	for parent, n := range steps {
		if scatterIDs[parent] || n["scatter"] == 0 || n["gather"] != n["scatter"] || n["probe-marshal"] != n["scatter"] {
			t.Fatalf("under span %q: %v — want probe-marshal, scatter and gather as siblings, one each per estimation", parent, n)
		}
	}
	// Sibling groups cross as frontier scatters: the span says how many
	// siblings it carried, and EXPLAIN shows every estimation of the query
	// — full sets and partial-set bounds alike, both are frontier rows —
	// among them, in fewer scatters than estimations. (Before bounds rode
	// the frontier only full sets were siblings and every sampled bound
	// was its own scatter.)
	var siblings float64
	for _, sp := range td.Spans {
		if n, ok := sp.Attrs["siblings"].(float64); ok && sp.Name == "scatter" {
			siblings += n
		}
	}
	ex, _ := doc["explain"].(map[string]any)
	rows := ex["full_sets_estimated"].(float64) + ex["partial_bounds_estimated"].(float64)
	if siblings < 2 || ex["remote_siblings"] != siblings || siblings != rows ||
		ex["remote_scatters"].(float64) >= rows || ex["partial_bounds_estimated"].(float64) == 0 {
		t.Fatalf("scatter spans carried %v siblings; explain = %v", siblings, ex)
	}

	for _, u := range shardURLs {
		resp, err := http.Get(u + "/tracez")
		if err != nil {
			t.Fatal(err)
		}
		var tz struct {
			Traces []obsv.TraceData `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		found, widest := false, 0.0
		for _, tr := range tz.Traces {
			if tr.TraceID == td.TraceID {
				found = true
				for _, sp := range tr.Spans {
					if w, ok := sp.Attrs["width"].(float64); ok && sp.Name == "partials" {
						widest = max(widest, w)
					}
				}
			}
		}
		if !found {
			t.Fatalf("shard %s /tracez does not hold trace %s", u, td.TraceID)
		}
		if widest < 2 {
			t.Fatalf("shard %s: no partials span of the trace reports a frontier width (widest %v)", u, widest)
		}
	}
	// The coordinator /metrics includes the distrib client's counters.
	fams := scrape(t, ct.URL+"/metrics")
	for _, name := range []string{"pitex_remote_scatters_total", "pitex_remote_frontier_siblings_total"} {
		if _, ok := fams[name]; !ok {
			t.Errorf("coordinator /metrics missing %s", name)
		}
	}
}

// TestEffectiveEpsilonExposed: the ε the index delivers is the same
// number in /statsz, /metrics and ?explain=1 of an in-process server, and
// a coordinator over a two-server fleet reports its in-process twin's
// value while each shard server reports a positive one of its own.
func TestEffectiveEpsilonExposed(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	gauge := func(url string) float64 {
		t.Helper()
		f, ok := scrape(t, url+"/metrics")["pitex_index_effective_epsilon"]
		if !ok || len(f.Samples) != 1 {
			t.Fatalf("%s/metrics has no pitex_index_effective_epsilon sample", url)
		}
		return f.Samples[0].Value
	}
	explained := func(url string) float64 {
		t.Helper()
		_, doc := getDoc(t, url+"/selling-points?user=1&k=2&explain=1")
		v, _ := doc["explain"].(map[string]any)["effective_epsilon"].(float64)
		return v
	}

	en := fig2Engine(t, pitex.StrategyIndexPruned)
	want := en.IndexEffectiveEpsilon()
	if !(want > 0) {
		t.Fatalf("IndexEffectiveEpsilon = %v, want > 0", want)
	}
	srv, err := New(en, pitex.ServeOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, stats := getDoc(t, ts.URL+"/statsz")
	for name, got := range map[string]float64{
		"/statsz": stats["effective_epsilon"].(float64), "/metrics": gauge(ts.URL), "explain": explained(ts.URL),
	} {
		if !near(got, want) {
			t.Errorf("%s effective ε = %v, engine says %v", name, got, want)
		}
	}

	var urls []string
	for s := 0; s < 2; s++ {
		ss, sts := startFig2ShardServer(t, s, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := ss.WaitReady(ctx)
		cancel()
		if err != nil {
			t.Fatalf("WaitReady: %v", err)
		}
		if g := gauge(sts.URL); !(g > 0) {
			t.Errorf("shard %d gauge = %v, want > 0", s, g)
		}
		if _, doc := getDoc(t, sts.URL+"/statsz"); !(doc["effective_epsilon"].(float64) > 0) {
			t.Errorf("shard %d /statsz effective_epsilon = %v", s, doc["effective_epsilon"])
		}
		urls = append(urls, strings.TrimPrefix(sts.URL, "http://"))
	}
	coord, _ := dialFig2Coordinator(t, [][]string{{urls[0]}, {urls[1]}}, distrib.Options{}, pitex.ServeOptions{PoolSize: 1})
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()
	twin := fig2EngineSharded(t, pitex.StrategyIndexPruned, 2).IndexEffectiveEpsilon()
	for name, got := range map[string]float64{"/metrics": gauge(ct.URL), "explain": explained(ct.URL)} {
		if !near(got, twin) {
			t.Errorf("coordinator %s effective ε = %v, in-process S=2 engine says %v", name, got, twin)
		}
	}
}

// TestReadyzReportsEffectiveEpsilon: /readyz of an in-process server and
// of a shard server names the ε the index delivers, next to the
// configured one, exactly when a θ cap leaves the index looser than
// configured — and says nothing of ε when the index meets it.
func TestReadyzReportsEffectiveEpsilon(t *testing.T) {
	net, model := fig2NetModel(t)
	for _, maxIndex := range []int64{20000, 300} {
		opts := fig2Options(pitex.StrategyIndexPruned, 1)
		opts.MaxIndexSamples = maxIndex
		en, err := pitex.NewEngine(net, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		eff := en.IndexEffectiveEpsilon()
		capped := eff > opts.Epsilon
		if capped != (maxIndex == 300) {
			t.Fatalf("cap %d: effective ε %v against ε %v", maxIndex, eff, opts.Epsilon)
		}
		srv, err := New(en, pitex.ServeOptions{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = ss.WaitReady(ctx)
		cancel()
		if err != nil {
			t.Fatalf("WaitReady: %v", err)
		}
		sts := httptest.NewServer(ss.Handler())
		defer sts.Close()
		for name, url := range map[string]string{"server": ts.URL, "shard server": sts.URL} {
			status, doc := getDoc(t, url+"/readyz")
			got, reported := doc["effective_epsilon"].(float64)
			configured, _ := doc["epsilon"].(float64)
			switch {
			case status != http.StatusOK:
				t.Errorf("cap %d %s: /readyz = %d %v", maxIndex, name, status, doc)
			case reported != capped:
				t.Errorf("cap %d %s: /readyz reports effective_epsilon %v, want reported %v: %v", maxIndex, name, reported, capped, doc)
			case capped && (got != eff || configured != opts.Epsilon):
				t.Errorf("cap %d %s: /readyz ε %v / %v, engine %v / %v", maxIndex, name, got, configured, eff, opts.Epsilon)
			}
		}
	}
}
