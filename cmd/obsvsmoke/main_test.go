package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"pitex/obsv"
)

// fakeFleet wires httptest servers that impersonate a coordinator and one
// shard, sharing a trace ID so the propagation check has something real
// to verify; the shard exports shardCounters beside build info, and both
// export an effective ε of 3.6.
func fakeFleet(t *testing.T, traceID string, shardHasTrace bool, shardCounters []string) (coord, shard string) {
	return fakeFleetEpsilon(t, traceID, shardHasTrace, shardCounters, "pitex_index_effective_epsilon 3.6")
}

// fakeFleetEpsilon is fakeFleet with the effective-ε exposition lines
// given (empty for none).
func fakeFleetEpsilon(t *testing.T, traceID string, shardHasTrace bool, shardCounters []string, epsilon string) (coord, shard string) {
	t.Helper()
	metrics := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintln(w, "# TYPE pitex_build_info gauge")
		fmt.Fprintln(w, `pitex_build_info{go_version="go1.24"} 1`)
		if epsilon != "" {
			fmt.Fprintln(w, "# TYPE pitex_index_effective_epsilon gauge")
			fmt.Fprintln(w, epsilon)
		}
	}
	cm := http.NewServeMux()
	cm.HandleFunc("/metrics", metrics)
	cm.HandleFunc("/selling-points", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"trace":{"trace_id":%q,"name":"selling-points","spans":[{"name":"shard-rpc","span_id":"aa"}]}}`, traceID)
	})
	cs := httptest.NewServer(cm)
	t.Cleanup(cs.Close)

	sm := http.NewServeMux()
	sm.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		metrics(w, r)
		for _, name := range shardCounters {
			fmt.Fprintf(w, "# TYPE %s counter\n%s 0\n", name, name)
		}
	})
	sm.HandleFunc("/tracez", func(w http.ResponseWriter, _ *http.Request) {
		id := traceID
		if !shardHasTrace {
			id = "ffffffffffffffff"
		}
		fmt.Fprintf(w, `{"traces":[{"trace_id":%q,"name":"shard-estimate","spans":[]}]}`, id)
	})
	ss := httptest.NewServer(sm)
	t.Cleanup(ss.Close)
	return strings.TrimPrefix(cs.URL, "http://"), strings.TrimPrefix(ss.URL, "http://")
}

func TestRunAllChecksPass(t *testing.T) {
	coord, shard := fakeFleet(t, "deadbeefdeadbeef", true, shardFamilies)
	if err := run(coord, []string{shard}, 1, 2); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunDetectsMissingPropagation(t *testing.T) {
	coord, shard := fakeFleet(t, "deadbeefdeadbeef", false, shardFamilies)
	err := run(coord, []string{shard}, 1, 2)
	if err == nil || !strings.Contains(err.Error(), "not found in any shard /tracez") {
		t.Fatalf("err = %v, want propagation failure", err)
	}
}

// TestRunRequiresShardSheddingCounters: a shard whose /metrics lacks
// either admission counter fails the smoke, naming the missing family.
func TestRunRequiresShardSheddingCounters(t *testing.T) {
	for i, missing := range shardFamilies {
		keep := slices.Delete(slices.Clone(shardFamilies), i, i+1)
		coord, shard := fakeFleet(t, "deadbeefdeadbeef", true, keep)
		err := run(coord, []string{shard}, 1, 2)
		if err == nil || !strings.Contains(err.Error(), "no "+missing) {
			t.Errorf("shard without %s: err = %v, want it named", missing, err)
		}
	}
}

// TestRunRequiresEffectiveEpsilon: an endpoint whose /metrics lacks the
// effective-ε gauge, or reports it as 0, fails the smoke.
func TestRunRequiresEffectiveEpsilon(t *testing.T) {
	for _, tc := range []struct{ lines, want string }{
		{"", "no pitex_index_effective_epsilon"},
		{"pitex_index_effective_epsilon 0", "want > 0"},
	} {
		coord, shard := fakeFleetEpsilon(t, "deadbeefdeadbeef", true, shardFamilies, tc.lines)
		if err := run(coord, []string{shard}, 1, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("exposition %q: err = %v, want %q", tc.lines, err, tc.want)
		}
	}
}

func TestRunDetectsInvalidMetrics(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "pitex_orphan_bucket{le=\"1\"} 3") // bucket without TYPE
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if err := run(strings.TrimPrefix(ts.URL, "http://"), nil, 1, 2); err == nil {
		t.Fatal("malformed exposition accepted")
	}
}

func TestScrapeMetricsRejectsWrongContentType(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, "{}")
	}))
	defer ts.Close()
	if _, err := scrapeMetrics(http.DefaultClient, strings.TrimPrefix(ts.URL, "http://")); err == nil {
		t.Fatal("JSON content-type accepted as Prometheus text")
	}
}

func TestRunRequiresShardRPCSpan(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "# TYPE pitex_build_info gauge")
		fmt.Fprintln(w, "pitex_build_info 1")
		fmt.Fprintln(w, "# TYPE pitex_index_effective_epsilon gauge")
		fmt.Fprintln(w, "pitex_index_effective_epsilon 3.6")
	})
	mux.HandleFunc("/selling-points", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"trace":{"trace_id":"deadbeefdeadbeef","name":"q","spans":[{"name":"query","span_id":"aa"}]}}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	err := run(strings.TrimPrefix(ts.URL, "http://"), nil, 1, 2)
	if err == nil || !strings.Contains(err.Error(), "no shard-rpc span") {
		t.Fatalf("err = %v, want missing shard-rpc failure", err)
	}
}

// Guard the parser the smoke test leans on: the strict obsv parser must
// reject what client_golang's would.
func TestStrictParserBaseline(t *testing.T) {
	if _, err := obsv.ParseText("# TYPE x counter\nx 1\n"); err != nil {
		t.Fatalf("minimal exposition rejected: %v", err)
	}
	if _, err := obsv.ParseText("# TYPE x bogus\nx 1\n"); err == nil {
		t.Fatal("unknown family type accepted")
	}
}
