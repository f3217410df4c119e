package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
)

// genNetModel generates a small network under a tags-tag model. With 80
// tags the sibling group of one expansion exceeds the 64-lane width of a
// masked scan, so the frontier wire form crosses the chunk boundary; with
// 10 a k=3 search stays a few hundred full sets, cheap enough to also run
// one scatter per candidate.
func genNetModel(tb testing.TB, tags int) (*pitex.Network, *pitex.TagModel) {
	tb.Helper()
	net, model, err := pitex.GenerateDatasetSpec(pitex.DatasetSpec{
		Name: "wire", Users: 60, Edges: 420, Topics: 5, Tags: tags,
		TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3,
	}, 7)
	if err != nil {
		tb.Fatalf("GenerateDatasetSpec: %v", err)
	}
	return net, model
}

func wireOptions(s pitex.Strategy, shards int) pitex.Options {
	return pitex.Options{
		Strategy: s, Seed: 5, MaxSamples: 3000, MaxIndexSamples: 4000,
		IndexShards: shards,
	}
}

// wireFleet is an httptest shard fleet plus the client dialed to it.
type wireFleet struct {
	hosts  []*httptest.Server
	client *distrib.Client
}

// startWireFleet launches one shard server per owned set (each its own
// replica group) of a total-way layout and dials the fleet.
func startWireFleet(t *testing.T, net *pitex.Network, model *pitex.TagModel, opts pitex.Options, total int, owned [][]int) *wireFleet {
	t.Helper()
	f := &wireFleet{}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	groups := make([][]string, len(owned))
	for i, own := range owned {
		ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: total, Owned: own})
		if err != nil {
			t.Fatalf("NewShardServer(%v): %v", own, err)
		}
		if err := ss.WaitReady(ctx); err != nil {
			t.Fatalf("WaitReady(%v): %v", own, err)
		}
		ts := httptest.NewServer(ss.Handler())
		t.Cleanup(ts.Close)
		f.hosts = append(f.hosts, ts)
		groups[i] = []string{ts.URL}
	}
	var err error
	f.client, err = distrib.Dial(ctx, groups, distrib.Options{ReconcileInterval: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(f.client.Close)
	return f
}

// perCandidateOnly hides a client's frontier capability, the way any
// decorator that wraps only EstimateRemote does.
type perCandidateOnly struct{ inner pitex.RemoteEstimator }

func (p perCandidateOnly) EstimateRemote(ctx context.Context, user int, probe pitex.RemoteProbe) (pitex.RemoteEstimate, error) {
	return p.inner.EstimateRemote(ctx, user, probe)
}

// searchOf strips a result down to what every remote path must agree on:
// the answer and the exploration counters, without timing or Explain
// (whose estimator-work and remote counters legitimately differ by path).
func searchOf(r pitex.Result) pitex.Result {
	r.Elapsed = 0
	r.Explain = pitex.Explain{}
	return r
}

// answerOf strips a result down to its answer, all a coordinator shares
// with an in-process engine: their rounds differ in width, so their
// search counters do, but the canonical answer order makes the answers
// agree.
func answerOf(r pitex.Result) pitex.Result {
	return pitex.Result{Tags: r.Tags, TagNames: r.TagNames, Influence: r.Influence, Alternatives: r.Alternatives, Degraded: r.Degraded}
}

// TestFrontierWireEquivalence is the tentpole's identity contract on a
// real HTTP fleet: round scatters and one width-1 scatter per row (a
// decorated remote without the capability) run the same search, and
// answer identically to the in-process engine at IndexShards:S, which
// scans exhaustively as the shards do — for both remotable strategies, one shard, three
// single-shard servers, and a server owning two shards; on expansions
// wider than the 64-lane chunk (80 tags, k=1) and on deep searches (10
// tags, k=2 and 3); and again after an update fan-out moved the fleet a
// generation.
func TestFrontierWireEquivalence(t *testing.T) {
	layouts := []struct {
		name  string
		total int
		owned [][]int
	}{
		{"S1", 1, [][]int{{0}}},
		{"S3", 3, [][]int{{0}, {1}, {2}}},
		{"S3-two-on-one", 3, [][]int{{0, 2}, {1}}},
	}
	shapes := []struct {
		name    string
		tags    int
		queries [][2]int // (k, m)
		widest  int64    // a single scatter must carry more siblings than this
	}{
		{"wide", 80, [][2]int{{1, 2}}, 64},
		{"deep", 10, [][2]int{{2, 2}, {3, 1}}, 1},
	}
	for _, strat := range []pitex.Strategy{pitex.StrategyIndex, pitex.StrategyIndexPruned} {
		for _, lay := range layouts {
			for _, shape := range shapes {
				t.Run(strat.String()+"/"+lay.name+"/"+shape.name, func(t *testing.T) {
					net, model := genNetModel(t, shape.tags)
					opts := wireOptions(strat, lay.total)
					fleet := startWireFleet(t, net, model, opts, lay.total, lay.owned)
					batched, err := pitex.NewRemoteEngine(net, model, opts, fleet.client)
					if err != nil {
						t.Fatalf("NewRemoteEngine: %v", err)
					}
					single, err := pitex.NewRemoteEngine(net, model, opts, perCandidateOnly{fleet.client})
					if err != nil {
						t.Fatalf("NewRemoteEngine (decorated): %v", err)
					}
					local, err := pitex.NewEngine(net, model, opts)
					if err != nil {
						t.Fatalf("NewEngine: %v", err)
					}

					compare := func(stage string) {
						t.Helper()
						widest := int64(0)
						for u := 0; u < local.Network().NumUsers(); u += 9 {
							for _, km := range shape.queries {
								k, m := km[0], km[1]
								want, err := local.Query(context.Background(), pitex.Request{User: u, K: k, M: m})
								if err != nil {
									t.Fatalf("%s: local top-m Query(%d,%d,%d): %v", stage, u, k, m, err)
								}
								got, err := batched.Query(context.Background(), pitex.Request{User: u, K: k, M: m})
								if err != nil {
									t.Fatalf("%s: frontier top-m Query(%d,%d,%d): %v", stage, u, k, m, err)
								}
								one, err := single.Query(context.Background(), pitex.Request{User: u, K: k, M: m})
								if err != nil {
									t.Fatalf("%s: per-candidate top-m Query(%d,%d,%d): %v", stage, u, k, m, err)
								}
								if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
									t.Fatalf("%s: user %d k=%d m=%d: frontier wire diverges from in-process:\n got  %+v\n want %+v",
										stage, u, k, m, answerOf(got), answerOf(want))
								}
								if !reflect.DeepEqual(searchOf(one), searchOf(got)) {
									t.Fatalf("%s: user %d k=%d m=%d: per-candidate wire searched differently from the frontier wire:\n got  %+v\n want %+v",
										stage, u, k, m, searchOf(one), searchOf(got))
								}
								// Every estimation of a coordinator query is a weight
								// row — a full set's posterior or a partial set's Lemma 8
								// bound — so the wire counts are derived from the search
								// counters, not hard-coded: all rows cross as siblings
								// (or one scatter each behind the decorator), and a
								// round of one or more expansions costs one scatter.
								// (Before bounds rode the frontier, siblings ==
								// FullSetsEstimated.)
								ex := got.Explain
								rows := ex.FullSetsEstimated + ex.PartialBoundsEstimated
								oneRows := one.Explain.FullSetsEstimated + one.Explain.PartialBoundsEstimated
								if ex.RemoteSiblings != rows || one.Explain.RemoteSiblings != 0 ||
									one.Explain.RemoteScatters != oneRows {
									t.Fatalf("%s: user %d k=%d: %d full sets + %d bounds, %d siblings batched (decorated: %d siblings, %d scatters for %d rows)",
										stage, u, k, ex.FullSetsEstimated, ex.PartialBoundsEstimated, ex.RemoteSiblings,
										one.Explain.RemoteSiblings, one.Explain.RemoteScatters, oneRows)
								}
								if ex.RemoteScatters > ex.FrontierExpansions {
									t.Fatalf("%s: user %d k=%d: %d scatters for %d expansions",
										stage, u, k, ex.RemoteScatters, ex.FrontierExpansions)
								}
								if ex.RemoteScatters > 0 {
									widest = max(widest, (ex.RemoteSiblings+ex.RemoteScatters-1)/ex.RemoteScatters)
								}
								if k == 3 && rows > 1 && ex.RemoteScatters >= rows {
									t.Fatalf("%s: user %d k=3: %d scatters not below %d rows",
										stage, u, ex.RemoteScatters, rows)
								}
							}
						}
						if widest <= shape.widest {
							t.Fatalf("%s: widest frontier scatter carried %d siblings, want > %d", stage, widest, shape.widest)
						}
					}
					compare("generation 0")

					// One update fan-out: both coordinator engines and the local
					// engine apply the batch, the fleet repairs once.
					var batch pitex.UpdateBatch
					n := net.NumUsers()
					batch.AddUsers(2)
					batch.InsertEdge(0, n, pitex.TopicProb{Topic: 1, Prob: 0.6})
					batch.InsertEdge(n, 1, pitex.TopicProb{Topic: 2, Prob: 0.5})
					net.ForEachEdge(func(e pitex.Edge) bool {
						batch.DeleteEdge(e.From, e.To)
						return false
					})
					if batched, _, err = batched.ApplyUpdates(&batch); err != nil {
						t.Fatalf("frontier engine ApplyUpdates: %v", err)
					}
					if single, _, err = single.ApplyUpdates(&batch); err != nil {
						t.Fatalf("per-candidate engine ApplyUpdates: %v", err)
					}
					if local, _, err = local.ApplyUpdates(&batch); err != nil {
						t.Fatalf("local ApplyUpdates: %v", err)
					}
					if _, err := fleet.client.Update(context.Background(), distrib.BatchToRequest(&batch, 1)); err != nil {
						t.Fatalf("Update fan-out: %v", err)
					}
					fleet.client.SetGeneration(1)
					compare("generation 1")

					st := fleet.client.Status()
					if st.FrontierSiblings == 0 || st.DegradedAnswers != 0 {
						t.Fatalf("client status: %d scatters, %d frontier siblings, %d degraded",
							st.Scatters, st.FrontierSiblings, st.DegradedAnswers)
					}
				})
			}
		}
	}
}

// TestFrontierWireDegradedMatchesPerCandidate: with one group down, the
// frontier form degrades sibling by sibling exactly as the per-candidate
// form does — same answer, same missing shards, same θ accounting and
// achieved ε.
func TestFrontierWireDegradedMatchesPerCandidate(t *testing.T) {
	net, model := genNetModel(t, 10)
	opts := wireOptions(pitex.StrategyIndexPruned, 3)
	fleet := startWireFleet(t, net, model, opts, 3, [][]int{{0}, {1}, {2}})
	batched, err := pitex.NewRemoteEngine(net, model, opts, fleet.client)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	single, err := pitex.NewRemoteEngine(net, model, opts, perCandidateOnly{fleet.client})
	if err != nil {
		t.Fatalf("NewRemoteEngine (decorated): %v", err)
	}
	fleet.hosts[1].Close() // shard 1 goes dark

	for _, u := range []int{0, 17, 42} {
		got, err := batched.Query(context.Background(), pitex.Request{User: u, K: 2, M: 2})
		if err != nil {
			t.Fatalf("frontier top-m Query(%d): %v", u, err)
		}
		want, err := single.Query(context.Background(), pitex.Request{User: u, K: 2, M: 2})
		if err != nil {
			t.Fatalf("per-candidate top-m Query(%d): %v", u, err)
		}
		deg := got.Degraded
		if deg == nil || !reflect.DeepEqual(deg.MissingShards, []int{1}) ||
			deg.RespondingTheta <= 0 || deg.RespondingTheta >= deg.TotalTheta ||
			deg.AchievedEpsilon <= deg.TargetEpsilon {
			t.Fatalf("user %d: frontier degraded block = %+v", u, deg)
		}
		if !reflect.DeepEqual(searchOf(got), searchOf(want)) {
			t.Fatalf("user %d: degraded answers diverge:\n frontier      %+v %+v\n per-candidate %+v %+v",
				u, searchOf(got), got.Degraded, searchOf(want), want.Degraded)
		}
	}
	if fleet.client.Status().DegradedAnswers == 0 {
		t.Fatal("client counted no degraded answers")
	}
}

// postEstimate posts one /shard/estimate request as a frame and decodes
// the answer's frame.
func postEstimate(t testing.TB, url string, req distrib.EstimateRequest) (int, distrib.EstimateResponse) {
	t.Helper()
	body, err := distrib.EncodeFrontierRequest(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	resp, err := http.Post(url+"/shard/estimate", distrib.FrontierContentType, bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST /shard/estimate: %v", err)
		return 0, distrib.EstimateResponse{}
	}
	defer resp.Body.Close()
	var out distrib.EstimateResponse
	if resp.StatusCode == http.StatusOK {
		data, err := io.ReadAll(resp.Body)
		if got := resp.Header.Get("Content-Type"); got != distrib.FrontierContentType {
			t.Errorf("estimate answered a frame as %s", got)
		}
		if err == nil {
			out, err = distrib.DecodeFrontierResponse(data)
		}
		if err != nil {
			t.Errorf("decode estimate response: %v", err)
		}
	}
	return resp.StatusCode, out
}

// estimateForms is a single estimate (a width-1 frontier) and a sibling
// batch against genNetModel's 5 topics.
func estimateForms(user int) []distrib.EstimateRequest {
	return []distrib.EstimateRequest{
		{User: user, Frontier: [][]float64{{0.4, 0.1, 0.2, 0.2, 0.1}}},
		{User: user, Frontier: [][]float64{
			{0.4, 0.1, 0.2, 0.2, 0.1}, {0, 0.5, 0.5, 0, 0}, {0.2, 0.2, 0.2, 0.2, 0.2},
		}},
	}
}

// TestShardEstimatorsNeverShared hammers one shard server with single
// and batched requests from many goroutines: under -race a borrowed estimator
// set reached from two requests at once would be reported, every answer
// must equal the quiescent one, and the generation's pool never holds
// more sets than there are workers.
func TestShardEstimatorsNeverShared(t *testing.T) {
	net, model := genNetModel(t, 10)
	const workers = 3
	ss, err := NewShardServer(net, model, wireOptions(pitex.StrategyIndexPruned, 2),
		ShardConfig{TotalShards: 2, Workers: workers, QueueTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	if err := ss.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()

	const users = 6
	want := make([][]distrib.EstimateResponse, users)
	for u := range want {
		for _, req := range estimateForms(u * 7) {
			status, resp := postEstimate(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("quiescent estimate user %d = %d", u*7, status)
			}
			want[u] = append(want[u], resp)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4*workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				u := (g + i) % users
				for f, req := range estimateForms(u * 7) {
					status, resp := postEstimate(t, ts.URL, req)
					if status != http.StatusOK || !reflect.DeepEqual(resp, want[u][f]) {
						t.Errorf("goroutine %d: user %d form %d: status %d, answer %+v, want %+v",
							g, u*7, f, status, resp, want[u][f])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	scratch := ss.state.Load().scratch
	scratch.mu.Lock()
	idle := len(scratch.idle)
	scratch.mu.Unlock()
	if idle < 1 || idle > workers {
		t.Fatalf("stack holds %d idle estimator sets, want 1..%d", idle, workers)
	}
}

// TestShardHotSwapKeepsPreviousPool: a request stamped with the previous
// generation, arriving after a hot-swap, resolves against that
// generation's own estimator pool (warm, not rebuilt) and answers exactly
// as before the swap; the new generation starts with an empty pool of its
// own.
func TestShardHotSwapKeepsPreviousPool(t *testing.T) {
	net, model := genNetModel(t, 10)
	ss, err := NewShardServer(net, model, wireOptions(pitex.StrategyIndexPruned, 1), ShardConfig{TotalShards: 1})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	if err := ss.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()

	forms := estimateForms(3)
	var before []distrib.EstimateResponse
	for _, req := range forms {
		status, resp := postEstimate(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("generation-0 estimate = %d", status)
		}
		before = append(before, resp)
	}
	gen0 := ss.state.Load()
	if len(gen0.scratch.idle) != 1 {
		t.Fatalf("generation 0 pool holds %d sets after sequential requests, want 1", len(gen0.scratch.idle))
	}
	warm := gen0.scratch.idle[0].est

	var batch pitex.UpdateBatch
	batch.InsertEdge(3, net.NumUsers(), pitex.TopicProb{Topic: 0, Prob: 0.9})
	batch.AddUsers(1)
	body, _ := json.Marshal(distrib.BatchToRequest(&batch, 1))
	resp, err := http.Post(ts.URL+"/shard/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /shard/update: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ss.Generation() != 1 {
		t.Fatalf("update = %d, generation %d", resp.StatusCode, ss.Generation())
	}
	gen1 := ss.state.Load()
	if gen1.prev == nil || gen1.prev.scratch != gen0.scratch {
		t.Fatal("double-buffered previous generation lost its estimator pool")
	}
	if gen1.scratch == gen0.scratch || len(gen1.scratch.idle) != 0 {
		t.Fatalf("new generation shares or pre-fills its pool (%d idle)", len(gen1.scratch.idle))
	}

	// The rest of the in-flight query, still stamped generation 0.
	for f, req := range forms {
		status, resp := postEstimate(t, ts.URL, req)
		if status != http.StatusOK || !reflect.DeepEqual(resp, before[f]) {
			t.Fatalf("form %d after swap: status %d, answer %+v, want %+v", f, status, resp, before[f])
		}
	}
	if len(gen0.scratch.idle) != 1 || gen0.scratch.idle[0].est != warm {
		t.Fatal("previous-generation request did not reuse that generation's warm estimator set")
	}
	if len(gen1.scratch.idle) != 0 {
		t.Fatal("previous-generation request touched the new generation's pool")
	}
	// And generation 1 answers from its own.
	req := forms[1]
	req.Generation = 1
	if status, _ := postEstimate(t, ts.URL, req); status != http.StatusOK || len(gen1.scratch.idle) != 1 {
		t.Fatalf("generation-1 estimate = %d, pool holds %d sets", status, len(gen1.scratch.idle))
	}
}

// TestShardEstimateSteadyStateAllocation is the allocation budget of the
// reusable estimators: after warm-up, the estimation step of a request —
// one row or many, on the benchmark's lastfm-shaped graph, whose edge-sized
// probe caches are ~100 KB each — allocates under 16 KB: the response
// rows, never an edge-sized buffer or a user's cut lists.
func TestShardEstimateSteadyStateAllocation(t *testing.T) {
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := pitex.Options{Strategy: pitex.StrategyIndexPruned, Seed: 1, MaxIndexSamples: 20000, IndexShards: 2}
	ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: 2})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	if err := ss.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	st := ss.state.Load()
	uniform := make([]float64, model.NumTopics())
	for z := range uniform {
		uniform[z] = 1 / float64(len(uniform))
	}
	frontier := make([][]float64, 24)
	for i := range frontier {
		row := make([]float64, len(uniform))
		row[i%len(row)], row[(i+3)%len(row)] = 0.5, 0.5
		frontier[i] = row
	}
	forms := []distrib.EstimateRequest{
		{User: 0, Frontier: [][]float64{uniform}},
		{User: 0, Frontier: frontier},
	}
	// The same frontier as a shard decodes it off the wire: its rows land
	// in the borrowed set's scratch, not in fresh memory.
	frame, err := distrib.EncodeFrontierRequest(forms[1])
	if err != nil {
		t.Fatalf("EncodeFrontierRequest: %v", err)
	}
	framed, err := distrib.DecodeFrontierRequest(frame)
	if err != nil {
		t.Fatalf("DecodeFrontierRequest: %v", err)
	}
	forms = append(forms, framed)
	for f, req := range forms {
		run := func() {
			_ = borrow(context.Background(), &ss.serverCore, nil, st.scratch, func(set *estimatorSet) error {
				estimate(st, set, &req)
				return nil
			})
		}
		run() // warm-up: builds the set, the probe caches and user 0's cut lists
		run()
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("form %d: %d bytes per request", f, perRun)
		if perRun >= 16<<10 {
			t.Errorf("form %d: steady-state estimation allocates %d bytes per request, want < 16 KB", f, perRun)
		}
	}
	if n := len(st.scratch.idle); n != 1 {
		t.Fatalf("sequential requests left %d estimator sets, want 1", n)
	}
}

// TestFrameRoundTripMatchesLocalPartialFrontier is the frame's
// differential test: weight rows framed, posted to a real ShardServer,
// scanned and framed back are, field for field, the rows the Partials of
// a local estimator over an independently built in-process index return
// — for both index families, one shard and three, at widths on both
// sides of the 64-lane chunk — and every local row is a record the
// frame's trust-boundary check accepts.
func TestFrameRoundTripMatchesLocalPartialFrontier(t *testing.T) {
	net, model := genNetModel(t, 10)
	src := rng.New(11)
	for _, strat := range []pitex.Strategy{pitex.StrategyIndex, pitex.StrategyIndexPruned} {
		for _, S := range []int{1, 3} {
			opts := wireOptions(strat, S)
			ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: S})
			if err != nil {
				t.Fatalf("NewShardServer: %v", err)
			}
			if err := ss.WaitReady(context.Background()); err != nil {
				t.Fatalf("WaitReady: %v", err)
			}
			ts := httptest.NewServer(ss.Handler())
			bo, err := pitex.IndexBuildOptions(model, opts)
			if err != nil {
				t.Fatalf("IndexBuildOptions: %v", err)
			}
			si, err := rrindex.BuildSharded(net.Graph(), bo, S)
			if err != nil {
				t.Fatalf("BuildSharded(%d): %v", S, err)
			}
			local := rrindex.NewShardedEstimator(si)
			if strat == pitex.StrategyIndexPruned {
				local = rrindex.NewShardedPrunedEstimator(si)
			}
			for _, width := range []int{1, 3, 70} {
				frontier := make([][]float64, width)
				for i := range frontier {
					frontier[i] = make([]float64, model.NumTopics())
					for z := range frontier[i] {
						frontier[i][z] = src.Float64() * src.Float64()
					}
				}
				for u := 0; u < net.NumUsers(); u += 7 {
					status, got := postEstimate(t, ts.URL, distrib.EstimateRequest{User: u, Frontier: frontier})
					if status != http.StatusOK || len(got.Frontier) != S {
						t.Fatalf("%v S=%d width %d user %d: status %d, %d shard rows", strat, S, width, u, status, len(got.Frontier))
					}
					rows := local.Partials(graph.VertexID(u), frontier)
					for s, row := range got.Frontier {
						want := rows[s]
						if !reflect.DeepEqual(row, want) {
							t.Fatalf("%v S=%d width %d user %d shard %d: framed rows diverge from the local scan:\n got  %+v\n want %+v",
								strat, S, width, u, s, row, want)
						}
						if _, err := distrib.EncodeFrontierResponse(distrib.EstimateResponse{Frontier: [][]rrindex.Partial{want}}); err != nil {
							t.Fatalf("%v S=%d user %d shard %d: a local scan's rows fail the record check: %v", strat, S, u, s, err)
						}
					}
				}
			}
			ts.Close()
			ss.Close()
		}
	}
}
