package distrib

import (
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
	"pitex/internal/rng"
	"pitex/internal/rrindex"
)

func TestEndpointCooldownDoubles(t *testing.T) {
	ep := &endpoint{url: "http://x"}
	now := time.Now()
	base := time.Second
	ep.fail(now, base)
	if c, until := ep.cooling(now); !c || until.Sub(now) != base {
		t.Fatalf("first failure cooldown = %v, want %v", until.Sub(now), base)
	}
	ep.fail(now, base)
	if _, until := ep.cooling(now); until.Sub(now) != 2*base {
		t.Fatalf("second failure cooldown = %v, want %v", until.Sub(now), 2*base)
	}
	for i := 0; i < 10; i++ {
		ep.fail(now, base)
	}
	if _, until := ep.cooling(now); until.Sub(now) != base<<5 {
		t.Fatalf("cooldown cap = %v, want %v", until.Sub(now), base<<5)
	}
	ep.succeed()
	if c, _ := ep.cooling(now); c {
		t.Fatal("success did not clear the cooldown")
	}
}

func TestLatWindowQuantile(t *testing.T) {
	var w latWindow
	if _, ok := w.quantile(0.9); ok {
		t.Fatal("empty window reported a quantile")
	}
	for i := 1; i <= 10; i++ {
		w.add(time.Duration(i) * time.Millisecond)
	}
	if d, ok := w.quantile(0.9); !ok || d != 10*time.Millisecond {
		t.Fatalf("p90 of 1..10ms = %v (%v)", d, ok)
	}
	if d, _ := w.quantile(0.5); d != 6*time.Millisecond {
		t.Fatalf("p50 of 1..10ms = %v", d)
	}
	// Overflow the ring: only the last 64 entries count.
	for i := 0; i < 200; i++ {
		w.add(time.Hour)
	}
	if d, _ := w.quantile(0.5); d != time.Hour {
		t.Fatalf("ring did not evict old samples: p50 = %v", d)
	}
}

func TestHedgeDelayClamps(t *testing.T) {
	o := Options{}.withDefaults()
	g := &group{}
	// Cold start: no latency samples → the floor.
	if d := g.hedgeDelay(o); d != o.HedgeMin {
		t.Fatalf("cold-start hedge delay = %v, want %v", d, o.HedgeMin)
	}
	// A slow window clamps to ShardDeadline/2.
	for i := 0; i < 64; i++ {
		g.lat.add(time.Minute)
	}
	if d := g.hedgeDelay(o); d != o.ShardDeadline/2 {
		t.Fatalf("slow-window hedge delay = %v, want %v", d, o.ShardDeadline/2)
	}
}

func TestCandidatesOrdering(t *testing.T) {
	now := time.Now()
	a, b, c := &endpoint{url: "a"}, &endpoint{url: "b"}, &endpoint{url: "c"}
	g := &group{endpoints: []*endpoint{a, b, c}}
	b.fail(now, time.Minute)
	got := g.candidates(now, 0)
	if got[0] != a || got[1] != c || got[2] != b {
		t.Fatalf("cooling endpoint not demoted: %v %v %v", got[0].url, got[1].url, got[2].url)
	}
	// All cooling: the full list still comes back (probing recovers them).
	a.fail(now, time.Minute)
	c.fail(now, time.Minute)
	if got := g.candidates(now, 0); len(got) != 3 {
		t.Fatalf("all-cooling candidates = %d, want 3", len(got))
	}
}

func TestCandidatesExcludeLagging(t *testing.T) {
	now := time.Now()
	a, b, c := &endpoint{url: "a"}, &endpoint{url: "b"}, &endpoint{url: "c"}
	g := &group{endpoints: []*endpoint{a, b, c}}
	a.gen.Store(2)
	b.gen.Store(1) // behind head: would 409 a head-stamped request
	c.gen.Store(2)
	got := g.candidates(now, 2)
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("lagging endpoint not excluded: got %d candidates", len(got))
	}
	// A whole group behind still returns its endpoints — refusing to try
	// anything would turn one missed fan-out into a permanent outage.
	a.gen.Store(1)
	c.gen.Store(1)
	if got := g.candidates(now, 2); len(got) != 3 {
		t.Fatalf("all-lagging candidates = %d, want 3", len(got))
	}
}

func TestCooldownJitterIsDeterministicPerSeed(t *testing.T) {
	cool := func(seed uint64) []time.Duration {
		ep := &endpoint{url: "http://x", jit: rng.New(rng.Mix(seed, 42))}
		now := time.Now()
		var out []time.Duration
		for i := 0; i < 4; i++ {
			ep.fail(now, time.Second)
			_, until := ep.cooling(now)
			out = append(out, until.Sub(now))
		}
		return out
	}
	a, b := cool(7), cool(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different jitter: %v vs %v", a, b)
		}
		base := time.Second << uint(i)
		if a[i] < base || a[i] >= base+base/2 {
			t.Fatalf("jittered cooldown %d = %v outside [%v, %v)", i, a[i], base, base+base/2)
		}
	}
	if c := cool(8); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds gave identical jitter: %v", a)
	}
}

func TestNormalizeURL(t *testing.T) {
	if got := normalizeURL("localhost:8501"); got != "http://localhost:8501" {
		t.Fatalf("normalizeURL = %q", got)
	}
	if got := normalizeURL("https://h:1/"); got != "https://h:1" {
		t.Fatalf("normalizeURL = %q", got)
	}
}

func TestUpdateWireRoundTrip(t *testing.T) {
	var b pitex.UpdateBatch
	b.AddUsers(3)
	b.InsertEdge(1, 2, pitex.TopicProb{Topic: 0, Prob: 0.5})
	b.DeleteEdge(4, 5)
	b.SetEdge(6, 7, pitex.TopicProb{Topic: 1, Prob: 0.25})
	req := BatchToRequest(&b, 7)
	if req.Generation != 7 || req.AddUsers != 3 {
		t.Fatalf("header lost: %+v", req)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded UpdateRequest
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	b2, err := RequestToBatch(decoded)
	if err != nil {
		t.Fatalf("RequestToBatch: %v", err)
	}
	if b2.AddedUsers() != 3 {
		t.Fatalf("AddedUsers = %d", b2.AddedUsers())
	}
	if !reflect.DeepEqual(b2.Inserts(), b.Inserts()) {
		t.Fatalf("inserts differ: %+v vs %+v", b2.Inserts(), b.Inserts())
	}
	if !reflect.DeepEqual(b2.Deletes(), b.Deletes()) {
		t.Fatalf("deletes differ: %+v vs %+v", b2.Deletes(), b.Deletes())
	}
	if !reflect.DeepEqual(b2.Retopics(), b.Retopics()) {
		t.Fatalf("retopics differ: %+v vs %+v", b2.Retopics(), b.Retopics())
	}
	if _, err := RequestToBatch(UpdateRequest{Generation: 1}); err == nil {
		t.Fatal("empty wire batch accepted")
	}
}

// fakeShard serves a minimal /shard/* protocol for client tests: a fixed
// info layout and estimate frames built by rowFor.
func fakeShard(t *testing.T, shards []ShardInfo, totalShards, totalUsers int, rowFor func(shard, width int) []rrindex.Partial) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/info", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(InfoResponse{
			TotalShards: totalShards, TotalUsers: totalUsers,
			Strategy: "INDEXEST+", Ready: true, Shards: shards,
		})
	})
	mux.HandleFunc("/shard/estimate", func(w http.ResponseWriter, r *http.Request) {
		answerFrame(t, w, r, shards, rowFor)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// answerFrame answers an estimate frame of 2-topic rows with one row per
// served shard, as built by rowFor from the request's sibling count.
func answerFrame(t *testing.T, w http.ResponseWriter, r *http.Request, shards []ShardInfo, rowFor func(shard, width int) []rrindex.Partial) {
	body, _ := io.ReadAll(r.Body)
	req, err := DecodeFrontierRequest(body)
	if r.Header.Get("Content-Type") != FrontierContentType || err != nil || req.Validate(2) != nil {
		http.Error(w, "want a frame of 2-topic rows", http.StatusBadRequest)
		return
	}
	var resp EstimateResponse
	for _, s := range shards {
		resp.Frontier = append(resp.Frontier, rowFor(s.Shard, req.Width()))
	}
	frame, err := EncodeFrontierResponse(resp)
	if err != nil {
		t.Errorf("EncodeFrontierResponse: %v", err)
	}
	w.Header().Set("Content-Type", FrontierContentType)
	w.Write(frame)
}

// canned answers every sibling with the one partial its shard holds.
func canned(partials ...rrindex.Partial) func(shard, width int) []rrindex.Partial {
	return func(shard, width int) []rrindex.Partial {
		i := slices.IndexFunc(partials, func(p rrindex.Partial) bool { return p.Shard == shard })
		return slices.Repeat(partials[i:i+1], width)
	}
}

func testProbe() pitex.RemoteProbe {
	return pitex.RemoteProbe{Posterior: []float64{0.5, 0.5}}
}

func TestDialValidatesPartition(t *testing.T) {
	s0 := fakeShard(t, []ShardInfo{{Shard: 0, Users: 100, Theta: 1000}}, 2, 150, nil)
	s1 := fakeShard(t, []ShardInfo{{Shard: 1, Users: 50, Theta: 500}}, 2, 150, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	c, err := Dial(ctx, [][]string{{s0.URL}, {s1.URL}}, Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	if c.TotalShards() != 2 || c.Strategy() != "INDEXEST+" {
		t.Fatalf("client state: S=%d strategy=%s", c.TotalShards(), c.Strategy())
	}
	st := c.Status()
	if st.TotalUsers != 150 || st.TotalTheta != 1500 {
		t.Fatalf("seeded totals: %+v", st)
	}

	// A hole in the partition is rejected.
	if _, err := Dial(ctx, [][]string{{s0.URL}}, Options{}); err == nil {
		t.Fatal("incomplete partition accepted")
	}
	// Overlap is rejected.
	if _, err := Dial(ctx, [][]string{{s0.URL}, {s0.URL}}, Options{}); err == nil {
		t.Fatal("overlapping partition accepted")
	}
	// No groups is rejected.
	if _, err := Dial(ctx, nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	// Groups built over networks of different sizes are rejected.
	other := fakeShard(t, []ShardInfo{{Shard: 1, Users: 90, Theta: 900}}, 2, 190, nil)
	if _, err := Dial(ctx, [][]string{{s0.URL}, {other.URL}}, Options{}); err == nil {
		t.Fatal("groups serving 150 and 190 users accepted")
	}
}

func TestEstimateRemoteHealthyAndDegraded(t *testing.T) {
	p0 := []rrindex.Partial{{Shard: 0, Hits: 10, Samples: 20, Contained: 25, Theta: 1000, Users: 100}}
	p1 := []rrindex.Partial{{Shard: 1, Hits: 5, Samples: 9, Contained: 12, Theta: 500, Users: 50}}
	s0 := fakeShard(t, []ShardInfo{{Shard: 0, Users: 100, Theta: 1000}}, 2, 150, canned(p0...))
	s1 := fakeShard(t, []ShardInfo{{Shard: 1, Users: 50, Theta: 500}}, 2, 150, canned(p1...))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, [][]string{{s0.URL}, {s1.URL}}, Options{ShardDeadline: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)

	want := rrindex.GatherPartials([]rrindex.Partial{p0[0], p1[0]})
	got, err := c.EstimateRemote(ctx, 3, testProbe())
	if err != nil {
		t.Fatalf("EstimateRemote: %v", err)
	}
	if got.Influence != want.Influence || got.Theta != want.Theta || len(got.MissingShards) != 0 {
		t.Fatalf("healthy estimate %+v, want gather %+v", got, want)
	}
	if got.RespondingTheta != got.TotalTheta {
		t.Fatalf("healthy estimate reports partial θ: %+v", got)
	}
	if st := c.Status(); st.Scatters != 1 || st.FrontierSiblings != 1 {
		t.Fatalf("one estimate = %d scatters carrying %d rows, want a width-1 scatter", st.Scatters, st.FrontierSiblings)
	}

	// Kill shard 1's only server: the answer degrades and says so.
	s1.Close()
	degraded, err := c.EstimateRemote(ctx, 3, testProbe())
	if err != nil {
		t.Fatalf("degraded EstimateRemote: %v", err)
	}
	wantDeg := rrindex.GatherPartialsDegraded([]rrindex.Partial{p0[0]}, 150)
	if degraded.Influence != wantDeg.Influence {
		t.Fatalf("degraded influence = %v, want %v", degraded.Influence, wantDeg.Influence)
	}
	if len(degraded.MissingShards) != 1 || degraded.MissingShards[0] != 1 {
		t.Fatalf("missing shards = %v, want [1]", degraded.MissingShards)
	}
	if degraded.RespondingTheta != 1000 || degraded.TotalTheta != 1500 {
		t.Fatalf("degraded θ report: %+v", degraded)
	}
	if st := c.Status(); st.DegradedAnswers == 0 {
		t.Fatal("degraded answer not counted")
	}

	// Both down: a hard error, not a silent floor estimate.
	s0.Close()
	if _, err := c.EstimateRemote(ctx, 3, testProbe()); err == nil {
		t.Fatal("all-shards-down estimate succeeded")
	}
}

func TestFetchGroupFailsOverToReplica(t *testing.T) {
	p0 := []rrindex.Partial{{Shard: 0, Hits: 1, Samples: 1, Contained: 1, Theta: 100, Users: 10}}
	good := fakeShard(t, []ShardInfo{{Shard: 0, Users: 10, Theta: 100}}, 1, 10, canned(p0...))
	// The dead replica listens and immediately closes, producing instant
	// hard errors (no hedge wait involved).
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, [][]string{{dead.URL, good.URL}}, Options{ShardDeadline: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	got, err := c.EstimateRemote(ctx, 1, testProbe())
	if err != nil {
		t.Fatalf("EstimateRemote with dead primary: %v", err)
	}
	if len(got.MissingShards) != 0 {
		t.Fatalf("failover still reported missing shards: %v", got.MissingShards)
	}
	st := c.Status()
	if st.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	if st.Groups[0].Endpoints[0].ConsecutiveFailures == 0 {
		t.Fatal("dead replica has no failure bookkeeping")
	}
}

func TestHedgedRetryWinsOverSlowReplica(t *testing.T) {
	p0 := []rrindex.Partial{{Shard: 0, Hits: 1, Samples: 1, Contained: 1, Theta: 100, Users: 10}}
	var slowHit atomic.Int64
	info := InfoResponse{TotalShards: 1, TotalUsers: 10, Strategy: "INDEXEST+", Ready: true,
		Shards: []ShardInfo{{Shard: 0, Users: 10, Theta: 100}}}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/info" {
			json.NewEncoder(w).Encode(info)
			return
		}
		slowHit.Add(1)
		time.Sleep(2 * time.Second) // stuck straggler, well past the hedge delay
		answerFrame(t, w, r, info.Shards, canned(p0...))
	}))
	t.Cleanup(slow.Close)
	fast := fakeShard(t, info.Shards, 1, 10, canned(p0...))

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := Dial(ctx, [][]string{{slow.URL, fast.URL}}, Options{
		ShardDeadline: 5 * time.Second,
		HedgeMin:      30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	t0 := time.Now()
	got, err := c.EstimateRemote(ctx, 1, testProbe())
	if err != nil {
		t.Fatalf("EstimateRemote: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 1500*time.Millisecond {
		t.Fatalf("hedge did not rescue the query: took %v", elapsed)
	}
	if len(got.MissingShards) != 0 {
		t.Fatalf("hedged answer degraded: %v", got.MissingShards)
	}
	if slowHit.Load() == 0 {
		t.Fatal("slow primary was never tried — hedging untested")
	}
	if c.Status().Hedges == 0 {
		t.Fatal("hedge not counted")
	}
}

// TestEstimateRemoteFrontier drives the batched scatter against canned
// shard rows: a healthy fold equals the per-sibling GatherPartials whatever
// order groups list their shards in, and a group whose rows do not match
// the request — short, or stamped with a shard it does not serve — is
// counted missing and every sibling degrades over the rest, never a panic
// or a positional mis-gather.
func TestEstimateRemoteFrontier(t *testing.T) {
	theta := map[int]int64{0: 1000, 1: 500, 2: 800}
	users := map[int]int{0: 100, 1: 50, 2: 80}
	row := func(shard, width int) []rrindex.Partial {
		out := make([]rrindex.Partial, width)
		for i := range out {
			out[i] = rrindex.Partial{
				Shard: shard, Hits: int64(7*shard + 3*i + 1), Samples: int64(20 + i), Contained: 30 + shard,
				Theta: theta[shard], Users: users[shard],
			}
		}
		return out
	}
	var mode atomic.Int32 // how group 1 misbehaves: 0 healthy, 1 short row, 2 foreign shard id
	// Group 0 lists its shards descending: the client must restore
	// ascending shard order before the positional gather.
	s02 := fakeShard(t, []ShardInfo{{Shard: 2, Users: 80, Theta: 800}, {Shard: 0, Users: 100, Theta: 1000}}, 3, 230, row)
	s1 := fakeShard(t, []ShardInfo{{Shard: 1, Users: 50, Theta: 500}}, 3, 230, func(shard, width int) []rrindex.Partial {
		switch mode.Load() {
		case 1:
			return row(shard, width-1)
		case 2:
			return row(2, width)
		}
		return row(shard, width)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, [][]string{{s02.URL}, {s1.URL}}, Options{ShardDeadline: time.Second, ReconcileInterval: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)

	posteriors := [][]float64{{0.5, 0.5}, {1, 0}, {0.25, 0.75}}
	got, err := c.EstimateRemoteFrontier(ctx, 3, posteriors)
	if err != nil {
		t.Fatalf("EstimateRemoteFrontier: %v", err)
	}
	if len(got) != len(posteriors) {
		t.Fatalf("%d estimates for %d siblings", len(got), len(posteriors))
	}
	for i := range posteriors {
		want := rrindex.GatherPartials([]rrindex.Partial{row(0, 3)[i], row(1, 3)[i], row(2, 3)[i]})
		if got[i].Influence != want.Influence || got[i].Samples != want.Samples || got[i].Theta != want.Theta ||
			got[i].Reachable != want.Reachable || len(got[i].MissingShards) != 0 || got[i].RespondingTheta != got[i].TotalTheta {
			t.Fatalf("sibling %d: healthy estimate %+v, want gather %+v", i, got[i], want)
		}
	}
	if st := c.Status(); st.Scatters != 1 || st.FrontierSiblings != 3 || st.DegradedAnswers != 0 {
		t.Fatalf("after one healthy frontier: %d scatters, %d siblings, %d degraded", st.Scatters, st.FrontierSiblings, st.DegradedAnswers)
	}
	if none, err := c.EstimateRemoteFrontier(ctx, 3, nil); err != nil || none != nil || c.Status().Scatters != 1 {
		t.Fatalf("empty frontier = %v, %v (scatters %d), want no scatter", none, err, c.Status().Scatters)
	}

	for _, bad := range []int32{1, 2} {
		mode.Store(bad)
		before := c.Status().DegradedAnswers
		got, err := c.EstimateRemoteFrontier(ctx, 3, posteriors)
		if err != nil {
			t.Fatalf("mode %d: EstimateRemoteFrontier: %v", bad, err)
		}
		for i := range posteriors {
			want := rrindex.GatherPartialsDegraded([]rrindex.Partial{row(0, 3)[i], row(2, 3)[i]}, 230)
			if got[i].Influence != want.Influence || !reflect.DeepEqual(got[i].MissingShards, []int{1}) ||
				got[i].RespondingTheta != 1800 || got[i].TotalTheta != 2300 {
				t.Fatalf("mode %d sibling %d: estimate %+v, want degraded gather %+v missing [1]", bad, i, got[i], want)
			}
		}
		if d := c.Status().DegradedAnswers - before; d != 3 {
			t.Fatalf("mode %d: %d degraded answers counted for 3 siblings", bad, d)
		}
	}
}
