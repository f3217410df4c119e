package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pitex"
)

// maxHitAllocs bounds one warmed /selling-points or /audience hit
// through Handler(), the httptest recorder's own allocations included.
const maxHitAllocs = 20

// TestSellingPointsHitAllocs: a cache hit through the HTTP handler costs
// about what the lookup it wraps costs — no query map, no per-request
// deadline timer, no map-shaped answer document, a trace that exports
// nothing until it is read.
func TestSellingPointsHitAllocs(t *testing.T) {
	testHitAllocs(t, "/selling-points?user=1&k=2")
}

// TestAudienceHitAllocs: an /audience hit runs the same lookup-first
// path as a /selling-points hit and costs as little.
func TestAudienceHitAllocs(t *testing.T) {
	testHitAllocs(t, "/audience?user=0&tags=2,3&m=3")
}

func testHitAllocs(t *testing.T, url string) {
	t.Helper()
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	hit := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	hit() // warm the cache
	if got := testing.AllocsPerRun(200, hit); got > maxHitAllocs {
		t.Fatalf("warmed hit allocates %.0f times, want <= %d", got, maxHitAllocs)
	}
}

// TestAnswerEncodesLikeMap: the typed answer and batch documents encode
// to the bytes of the map[string]any references for values no Fig. 2
// query produces — influences in exponent range, an empty alternatives
// list, an empty answer, a degraded block beside explain.
func TestAnswerEncodesLikeMap(t *testing.T) {
	full := pitex.Result{
		Tags:      []int{0, 3},
		TagNames:  []string{"<a>&b", "\u2028   ünï"},
		Influence: 1e21,
		Alternatives: []pitex.ScoredTagSet{
			{TagNames: []string{"<a>&b"}, Influence: 1e21},
			{TagNames: []string{"x"}, Influence: 1e-7},
			{Influence: 123456789012345680000},
		},
		Elapsed:  1500 * time.Microsecond,
		Degraded: &pitex.DegradedCoverage{AchievedEpsilon: 1e-7, TargetEpsilon: 0.15, MissingShards: []int{2}},
		Explain:  pitex.Explain{Strategy: "INDEXEST+", FullSetsEstimated: 3},
	}
	for _, c := range []struct {
		res     pitex.Result
		m       int
		cached  bool
		explain bool
	}{
		{full, 3, false, true},
		{full, 1, true, false},
		{pitex.Result{Influence: 1e-7}, 2, true, true}, // m > 1 with no alternatives: "[]"
		{pitex.Result{}, 1, false, false},
	} {
		doc := newAnswer(c.res, 7, 2, c.m, c.cached, c.explain)
		if got, want := refEncode(t, &doc), refAnswer(t, c.res, 7, 2, c.m, c.cached, c.explain); !bytes.Equal(got, want) {
			t.Fatalf("answer encodes differently from the map reference\n got: %s\nwant: %s", got, want)
		}
	}

	batch := []pitex.BatchResult{
		{User: 1, Result: full},
		{User: 2, Result: pitex.Result{Influence: 1e-7}},
		{User: 3, Err: errors.New("pitex: <bad> & worse")},
		{User: 4},
	}
	if got, want := refEncode(t, newBatchAnswer(batch, 2)), refBatch(t, batch, 2); !bytes.Equal(got, want) {
		t.Fatalf("batch encodes differently from the map reference\n got: %s\nwant: %s", got, want)
	}
}

// TestFollowerKeepsQueryDeadline: only a stored hit skips the per-query
// deadline. A request that finds an identical computation in flight
// waits for it under QueryTimeout and fails with the deadline when that
// runs out — over HTTP (a 504) and through the programmatic surface.
func TestFollowerKeepsQueryDeadline(t *testing.T) {
	get := func(url string) func(*Server) error {
		return func(srv *Server) error {
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
			if w.Code != http.StatusGatewayTimeout {
				return fmt.Errorf("status %d, want 504: %s", w.Code, w.Body)
			}
			return nil
		}
	}
	query := Key{Kind: "query", User: 1, K: 2, M: 1}
	for _, c := range []struct {
		name   string
		key    Key
		follow func(*Server) error
	}{
		{"selling-points", query, get("/selling-points?user=1&k=2")},
		{"audience", Key{Kind: "audience", User: 1, M: 10, Samples: pitex.DefaultAudienceSamples, Tags: "2,3"},
			get("/audience?user=1&tags=3,2")},
		{"programmatic", query, func(srv *Server) error {
			_, _, err := srv.SellingPoints(context.Background(), 1, 2, 1, nil)
			if !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("err = %v, want the query deadline", err)
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueryTimeout: 50 * time.Millisecond})
			key := c.key
			key.Gen = srv.Generation()
			// The planted flight ends once the follower is through, or by
			// itself after 2s, so a follower without the deadline fails
			// the test instead of hanging it.
			const flight = 2 * time.Second
			started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				srv.cache.GetOrCompute(context.Background(), key, func() (any, error) {
					close(started)
					select {
					case <-release:
					case <-time.After(flight):
					}
					return nil, errors.New("flight over")
				})
			}()
			<-started
			defer func() { close(release); <-done }()

			start := time.Now()
			if err := c.follow(srv); err != nil {
				t.Fatalf("follower: %v", err)
			}
			if waited := time.Since(start); waited >= flight {
				t.Fatalf("follower waited %v under a 50ms query deadline", waited)
			}
		})
	}
}
