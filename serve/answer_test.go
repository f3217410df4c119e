package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
)

// refTagNames are Fig. 2's tag names with characters encoding/json
// escapes (HTML-sensitive <, >, &, and U+2028) or passes through
// (non-ASCII), so a body written any other way than the reference's
// json.Encoder shows up as a byte difference.
var refTagNames = []string{"<w1>", "w2 & co", "café", "日本 w4"}

// refServer serves Fig. 2 under INDEXEST+ with refTagNames.
func refServer(t *testing.T) *Server {
	t.Helper()
	net, model := fig2NetModel(t)
	for w, name := range refTagNames {
		model.SetTagName(w, name)
	}
	en, err := pitex.NewEngine(net, model, fig2Options(pitex.StrategyIndexPruned, 0))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// refAnswer is the /selling-points answer document as a map, encoded
// with json.NewEncoder: the reference every single-query body must equal
// byte for byte.
func refAnswer(t *testing.T, res pitex.Result, user, k, m int, cached, explain bool) []byte {
	t.Helper()
	out := map[string]any{
		"user":      user,
		"k":         k,
		"tags":      res.TagNames,
		"tag_ids":   res.Tags,
		"influence": res.Influence,
		"cached":    cached,
		"elapsed":   res.Elapsed.String(),
	}
	if res.Degraded != nil {
		out["degraded"] = res.Degraded
	}
	if explain {
		out["explain"] = res.Explain
	}
	if m > 1 {
		type alt struct {
			Tags      []string `json:"tags"`
			Influence float64  `json:"influence"`
		}
		alts := make([]alt, len(res.Alternatives))
		for i, a := range res.Alternatives {
			alts[i] = alt{Tags: a.TagNames, Influence: a.Influence}
		}
		out["alternatives"] = alts
	}
	return refEncode(t, out)
}

// refBatch is the users= batch document: a map around typed rows.
func refBatch(t *testing.T, batch []pitex.BatchResult, k int) []byte {
	t.Helper()
	type row struct {
		User      int      `json:"user"`
		Tags      []string `json:"tags,omitempty"`
		TagIDs    []int    `json:"tag_ids,omitempty"`
		Influence float64  `json:"influence,omitempty"`
		Error     string   `json:"error,omitempty"`
	}
	rows := make([]row, len(batch))
	for i, br := range batch {
		rows[i] = row{User: br.User, Tags: br.Result.TagNames, TagIDs: br.Result.Tags, Influence: br.Result.Influence}
		if br.Err != nil {
			rows[i] = row{User: br.User, Error: br.Err.Error()}
		}
	}
	return refEncode(t, map[string]any{"k": k, "results": rows})
}

func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getBody GETs url and returns its status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	return resp.StatusCode, body
}

// TestSellingPointsBodiesMatchMapReference pins every /selling-points
// body byte for byte to a map[string]any document encoded with
// json.NewEncoder: plain, top-m, explain, prefix and batch queries, the
// miss and the hit of each, and a degraded coordinator answer.
func TestSellingPointsBodiesMatchMapReference(t *testing.T) {
	srv := refServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	for _, c := range []struct {
		query   string
		user, k int
		m       int
		prefix  []int
		explain bool
	}{
		{query: "user=1&k=2", user: 1, k: 2, m: 1},
		{query: "user=0&k=2&m=3", user: 0, k: 2, m: 3},
		{query: "user=0&k=3&explain=1", user: 0, k: 3, m: 1, explain: true},
		{query: "user=2&k=2&prefix=3", user: 2, k: 2, m: 1, prefix: []int{3}},
		{query: "k=1&user=3&m=4&explain=1", user: 3, k: 1, m: 4, explain: true},
		{query: "user=%34&k=2&k=9", user: 4, k: 2, m: 1},
	} {
		for round, cached := range []bool{false, true} {
			st, body := getBody(t, ts.URL+"/selling-points?"+c.query)
			if st != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.query, st, body)
			}
			res, hit, err := srv.SellingPoints(ctx, c.user, c.k, c.m, c.prefix)
			if err != nil || !hit {
				t.Fatalf("%s: reference call hit=%v err=%v", c.query, hit, err)
			}
			if want := refAnswer(t, res, c.user, c.k, c.m, cached, c.explain); !bytes.Equal(body, want) {
				t.Fatalf("%s round %d: body differs from the map reference\n got: %s\nwant: %s", c.query, round, body, want)
			}
		}
	}

	users := []int{0, 1, 2, 9, 3}
	st, body := getBody(t, ts.URL+"/selling-points?users=0,1,2,9,3&k=2")
	if st != http.StatusOK {
		t.Fatalf("batch: status %d: %s", st, body)
	}
	if want := refBatch(t, srv.QueryBatch(ctx, users, 2), 2); !bytes.Equal(body, want) {
		t.Fatalf("batch body differs from the map reference\n got: %s\nwant: %s", body, want)
	}
}

// TestDegradedBodyMatchesMapReference: a coordinator missing a shard
// answers with a degraded block, never cached, in the same bytes as the
// map reference (the elapsed time is the body's own: a degraded answer
// is recomputed by every call).
func TestDegradedBodyMatchesMapReference(t *testing.T) {
	const S = 3
	groups := make([][]string, S)
	var victim *httptest.Server
	for s := 0; s < S; s++ {
		_, ts := startFig2ShardServer(t, s, S)
		groups[s] = []string{ts.URL}
		victim = ts
	}
	coord, _ := dialFig2Coordinator(t, groups,
		distrib.Options{ShardDeadline: 2 * time.Second}, pitex.ServeOptions{PoolSize: 2})
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()
	victim.Close()

	st, body := getBody(t, ct.URL+"/selling-points?user=1&k=2&m=2")
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, body)
	}
	var doc struct {
		Elapsed string `json:"elapsed"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	elapsed, err := time.ParseDuration(doc.Elapsed)
	if err != nil {
		t.Fatalf("elapsed %q: %v", doc.Elapsed, err)
	}
	res, cached, err := coord.SellingPoints(context.Background(), 1, 2, 2, nil)
	if err != nil || cached || res.Degraded == nil {
		t.Fatalf("reference call: cached=%v degraded=%v err=%v", cached, res.Degraded, err)
	}
	res.Elapsed = elapsed
	if want := refAnswer(t, res, 1, 2, 2, false, false); !bytes.Equal(body, want) {
		t.Fatalf("degraded body differs from the map reference\n got: %s\nwant: %s", body, want)
	}
}

// TestAudienceBodiesMatchMapReference pins every /audience body byte for
// byte to a map[string]any document encoded with json.NewEncoder: a miss
// and its hit, a permuted tag set, an omitted samples beside samples=0
// (one key), a clamped samples, and the 400 bodies of malformed requests.
func TestAudienceBodiesMatchMapReference(t *testing.T) {
	srv := refServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	for _, c := range []struct {
		query   string
		user    int
		tags    []int
		m       int
		samples int64
		cached  bool
	}{
		{"user=0&tags=2,3&m=3&samples=500", 0, []int{2, 3}, 3, 500, false},
		{"user=0&tags=2,3&m=3&samples=500", 0, []int{2, 3}, 3, 500, true},
		{"user=0&tags=3,2&m=3&samples=500", 0, []int{3, 2}, 3, 500, true},
		{"user=1&tags=0,2", 1, []int{0, 2}, 10, 0, false},
		{"user=1&tags=0,2&samples=0", 1, []int{0, 2}, 10, 0, true},
		{"tags=1&m=4&user=2&samples=250000", 2, []int{1}, 4, MaxAudienceSamples, false},
		{"user=2&tags=1&m=4&samples=100000", 2, []int{1}, 4, MaxAudienceSamples, true},
	} {
		st, body := getBody(t, ts.URL+"/audience?"+c.query)
		if st != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.query, st, body)
		}
		aud, hit, err := srv.Audience(ctx, c.user, c.tags, c.m, c.samples)
		if err != nil || !hit {
			t.Fatalf("%s: reference call hit=%v err=%v", c.query, hit, err)
		}
		want := refEncode(t, map[string]any{"user": c.user, "audience": aud, "cached": c.cached})
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: body differs from the map reference\n got: %s\nwant: %s", c.query, body, want)
		}
	}

	for _, c := range []struct{ query, err string }{
		{"user=0&tags=", `bad tags: empty list`},
		{"tags=1", `bad or missing user`},
		{"user=x&tags=zz", `bad or missing user`},
		{"user=0&tags=1,zz&m=nope", `bad tags: bad entry \"zz\"`},
		{"user=0&tags=1&m=nope&samples=x", `bad m: \"nope\"`},
		{"user=0&tags=1&samples=x", `bad samples: \"x\"`},
		{"user=0&tags=1&m=1001", `serve: m = 1001 exceeds limit 1000`},
		{"user=0&tags=3,3&m=3", `pitex: duplicate tag 3`},
		{"user=0&tags=1,9&m=3", `pitex: tag 9 outside [0,4)`},
	} {
		st, body := getBody(t, ts.URL+"/audience?"+c.query)
		if want := `{"error":"` + c.err + `"}` + "\n"; st != http.StatusBadRequest || string(body) != want {
			t.Fatalf("%s: status %d body %s, want 400 %s", c.query, st, body, want)
		}
	}
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// traceShape checks a decoded trace's keys and ID formats and renders
// its spans as "name<-parent {attrs}" lines in span order, the parent by
// name, with the attribute values that vary run to run masked.
func traceShape(t *testing.T, tr map[string]any) []string {
	t.Helper()
	keys := slices.Sorted(func(yield func(string) bool) {
		for k := range tr {
			if !yield(k) {
				return
			}
		}
	})
	if want := []string{"duration_ns", "name", "spans", "start_unix_nano", "trace_id"}; !slices.Equal(keys, want) {
		t.Fatalf("trace keys = %v, want %v", keys, want)
	}
	if id, _ := tr["trace_id"].(string); !hexID.MatchString(id) {
		t.Fatalf("trace_id = %v", tr["trace_id"])
	}
	spans, _ := tr["spans"].([]any)
	names := map[string]string{}
	for _, s := range spans {
		sp := s.(map[string]any)
		id, _ := sp["span_id"].(string)
		if !hexID.MatchString(id) {
			t.Fatalf("span_id = %v", sp["span_id"])
		}
		names[id] = sp["name"].(string)
	}
	var out []string
	for _, s := range spans {
		sp := s.(map[string]any)
		for k := range sp {
			switch k {
			case "name", "span_id", "parent_id", "start_unix_nano", "duration_ns", "attrs":
			default:
				t.Fatalf("span key %q in %v", k, sp)
			}
		}
		if _, ok := sp["duration_ns"].(float64); !ok {
			t.Fatalf("span without duration_ns: %v", sp)
		}
		if _, ok := sp["start_unix_nano"].(float64); !ok {
			t.Fatalf("span without start_unix_nano: %v", sp)
		}
		parent := ""
		if p, ok := sp["parent_id"]; ok {
			if parent = names[p.(string)]; parent == "" {
				t.Fatalf("span %v has a parent outside the trace", sp)
			}
		}
		attrs, _ := sp["attrs"].(map[string]any)
		var kv []string
		for k, v := range attrs {
			switch k {
			case "queue_depth", "waiting", "endpoint", "elapsed_ms", "bytes":
				v = "*"
			}
			kv = append(kv, fmt.Sprintf("%s=%v", k, v))
		}
		sort.Strings(kv)
		out = append(out, fmt.Sprintf("%s<-%s {%s}", sp["name"], parent, strings.Join(kv, " ")))
	}
	return out
}

// tracez fetches a server's /tracez ring as decoded maps.
func tracez(t *testing.T, base string) []map[string]any {
	t.Helper()
	st, body := getBody(t, base+"/tracez")
	if st != http.StatusOK {
		t.Fatalf("/tracez status %d", st)
	}
	var tz map[string][]map[string]any
	if err := json.Unmarshal(body, &tz); err != nil {
		t.Fatal(err)
	}
	if len(tz) != 1 {
		t.Fatalf("/tracez keys = %v", tz)
	}
	return tz["traces"]
}

// TestTraceDocumentShape pins what ?trace=1 and /tracez decode to: the
// trace and span keys, span names in order, parent links and attributes
// of a miss and a hit on /selling-points and on /audience, and that the
// ring holds the inlined trace as is.
func TestTraceDocumentShape(t *testing.T) {
	srv := refServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want := [][]string{
		{
			"cache<- {hit=false}",
			"admission<-cache {queue_depth=*}",
			"query<-cache {k=2 m=1 strategy=INDEXEST+ user=3}",
		},
		{"cache<- {hit=true}"},
	}
	for round, spans := range want {
		st, body := getBody(t, ts.URL+"/selling-points?user=3&k=2&trace=1")
		if st != http.StatusOK {
			t.Fatalf("status %d: %s", st, body)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if _, ok := doc["explain"]; !ok {
			t.Fatal("?trace=1 body has no explain")
		}
		tr, _ := doc["trace"].(map[string]any)
		if tr["name"] != "selling-points" {
			t.Fatalf("trace name = %v", tr["name"])
		}
		if got := traceShape(t, tr); !slices.Equal(got, spans) {
			t.Fatalf("round %d spans:\n got %q\nwant %q", round, got, spans)
		}
		ring := tracez(t, ts.URL)
		if len(ring) == 0 || !reflect.DeepEqual(ring[0], tr) {
			t.Fatalf("round %d: /tracez newest = %v, want the inlined trace %v", round, ring, tr)
		}
	}

	audience := [][]string{
		{
			"cache<- {hit=false}",
			"admission<-cache {queue_depth=*}",
			"sample<-cache {samples=500 user=0}",
		},
		{"cache<- {hit=true}"},
	}
	for round, spans := range audience {
		st, body := getBody(t, ts.URL+"/audience?user=0&tags=2,3&samples=500&trace=1")
		if st != http.StatusOK {
			t.Fatalf("audience status %d: %s", st, body)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		tr, _ := doc["trace"].(map[string]any)
		if tr["name"] != "audience" {
			t.Fatalf("audience trace name = %v", tr["name"])
		}
		if got := traceShape(t, tr); !slices.Equal(got, spans) {
			t.Fatalf("audience round %d spans:\n got %q\nwant %q", round, got, spans)
		}
		ring := tracez(t, ts.URL)
		if len(ring) == 0 || !reflect.DeepEqual(ring[0], tr) {
			t.Fatalf("audience round %d: /tracez newest = %v, want the inlined trace %v", round, ring, tr)
		}
	}
}

// TestShardTraceShape pins a shard server's /tracez entries for one
// coordinator query: the propagated trace ID, and per estimate an
// acquire and a partials span with their attributes.
func TestShardTraceShape(t *testing.T) {
	const S = 2
	groups := make([][]string, S)
	urls := make([]string, S)
	for s := 0; s < S; s++ {
		_, ts := startFig2ShardServer(t, s, S)
		groups[s], urls[s] = []string{ts.URL}, ts.URL
	}
	coord, _ := dialFig2Coordinator(t, groups, distrib.Options{}, pitex.ServeOptions{PoolSize: 1})
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()
	st, body := getBody(t, ct.URL+"/selling-points?user=1&k=2&trace=1")
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, body)
	}
	var doc struct {
		Trace map[string]any `json:"trace"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	rpc := "shard-rpc<-scatter {endpoint=* path=/shard/estimate}"
	want := []string{
		"cache<- {hit=false}",
		"admission<-cache {queue_depth=*}",
		"query<-cache {k=2 m=1 strategy=INDEXEST+ user=1}",
		"probe-marshal<-query {}", "scatter<-query {groups=2 siblings=3}", rpc, rpc, "gather<-query {}",
		"probe-marshal<-query {}", "scatter<-query {groups=2 siblings=6}", rpc, rpc, "gather<-query {}",
	}
	if got := traceShape(t, doc.Trace); !slices.Equal(got, want) {
		t.Fatalf("coordinator spans:\n got %q\nwant %q", got, want)
	}
	for s, u := range urls {
		var n int
		for _, tr := range tracez(t, u) {
			if tr["trace_id"] != doc.Trace["trace_id"] {
				continue
			}
			n++
			if tr["name"] != "shard-estimate" {
				t.Fatalf("shard %d trace name = %v", s, tr["name"])
			}
			got := traceShape(t, tr)
			if len(got) != 2 || got[0] != "acquire<- {waiting=*}" ||
				!regexp.MustCompile(`^partials<- \{generation=0 owned=1 user=1 width=\d+\}$`).MatchString(got[1]) {
				t.Fatalf("shard %d spans = %q", s, got)
			}
		}
		if n == 0 {
			t.Fatalf("shard %d /tracez holds no span of trace %v", s, doc.Trace["trace_id"])
		}
	}
}
