package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/rng"
)

// carryDataset is dataset B (the lastfm-scale headline spec) at a
// quarter scale: ~375 users, so a batch of a few edges leaves most users'
// RR-Graphs untouched.
var carryDataset = pitex.DatasetSpec{Name: "headline", Users: 1500, Edges: 15000,
	Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3}.Scaled(0.25)

// carryEngine builds the INDEXEST+ engine of the carry tests over net at
// S shards. Two calls over one network build the same index.
func carryEngine(tb testing.TB, net *pitex.Network, model *pitex.TagModel, shards int) *pitex.Engine {
	tb.Helper()
	en, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy: pitex.StrategyIndexPruned, Epsilon: 0.7, Delta: 1000, MaxK: 3, Seed: 1,
		MaxSamples: 5000, MaxIndexSamples: 20000, IndexShards: shards,
	})
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	return en
}

// carryNetwork is the carry tests' dataset and every 9th of its users.
func carryNetwork(t *testing.T) (*pitex.Network, *pitex.TagModel, []int) {
	t.Helper()
	net, model, err := pitex.GenerateDatasetSpec(carryDataset, 1)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	var users []int
	for u := 0; u < net.NumUsers(); u += 9 {
		users = append(users, u)
	}
	return net, model, users
}

// warmRequest is one cacheable request: a query (k > 0) or an audience
// profile (tags set).
type warmRequest struct {
	user, k, m int
	prefix     []int
	tags       []int
}

func (r warmRequest) String() string {
	if r.tags != nil {
		return fmt.Sprintf("audience(user=%d, tags=%v)", r.user, r.tags)
	}
	return fmt.Sprintf("query(user=%d, k=%d, m=%d, prefix=%v)", r.user, r.k, r.m, r.prefix)
}

// audienceSamples keeps the audience requests of the carry tests cheap.
const audienceSamples = 300

// warmRequests returns, for each user, plain k = 2 and k = 3 queries, a
// top-3 query, a prefix query and the audience of the user's k = 2
// answer on en.
func warmRequests(t *testing.T, en *pitex.Engine, users []int) []warmRequest {
	t.Helper()
	var out []warmRequest
	for _, u := range users {
		best, err := en.Query(context.Background(), pitex.Request{User: u, K: 2})
		if err != nil {
			t.Fatalf("Query(%d, 2): %v", u, err)
		}
		out = append(out,
			warmRequest{user: u, k: 2, m: 1},
			warmRequest{user: u, k: 3, m: 1},
			warmRequest{user: u, k: 2, m: 3},
			warmRequest{user: u, k: 3, m: 1, prefix: best.Tags[1:]},
			warmRequest{user: u, tags: best.Tags, m: 5})
	}
	return out
}

// reply is what a request's answer must agree on across servers and
// engines: the tags, their IDs and names, the influence, the
// alternatives, or the audience. Elapsed and Explain are left out: the
// first is wall time, the second counts a clone's history (its probe
// cache) as well as the query's own work.
type reply struct {
	res      pitex.Result
	audience []pitex.InfluencedUser
}

func (r reply) String() string {
	if r.audience != nil {
		return fmt.Sprint(r.audience)
	}
	return fmt.Sprintf("%v %v %v alternatives %v", r.res.Tags, r.res.TagNames, r.res.Influence, r.res.Alternatives)
}

func stripped(res pitex.Result) reply {
	res.Elapsed, res.Explain = 0, pitex.Explain{}
	return reply{res: res}
}

// serve answers r through srv, reporting whether it was a cache hit.
func (r warmRequest) serve(t *testing.T, srv *Server) (reply, bool) {
	t.Helper()
	ctx := context.Background()
	if r.tags != nil {
		aud, hit, err := srv.Audience(ctx, r.user, r.tags, r.m, audienceSamples)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		return reply{audience: aud}, hit
	}
	res, hit, err := srv.SellingPoints(ctx, r.user, r.k, r.m, r.prefix)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	return stripped(res), hit
}

// fresh answers r on a new clone of en, which has answered nothing yet.
func (r warmRequest) fresh(t *testing.T, en *pitex.Engine) reply {
	t.Helper()
	c := en.Clone()
	if r.tags != nil {
		aud, err := c.Audience(r.user, r.tags, r.m, audienceSamples)
		if err != nil {
			t.Fatalf("%v on the reference: %v", r, err)
		}
		return reply{audience: aud}
	}
	res, err := c.Query(context.Background(), pitex.Request{User: r.user, K: r.k, M: r.m, Prefix: r.prefix})
	if err != nil {
		t.Fatalf("%v on the reference: %v", r, err)
	}
	return stripped(res)
}

// updateMixBatch is the bench's update-mix batch shape: 10 deletions of
// live edges and 10 insertions of random one-topic edges.
func updateMixBatch(net *pitex.Network, r *rng.Source) *pitex.UpdateBatch {
	var pairs [][2]int
	seen := map[[2]int]bool{}
	net.ForEachEdge(func(e pitex.Edge) bool {
		if k := [2]int{e.From, e.To}; e.Live() && !seen[k] {
			seen[k] = true
			pairs = append(pairs, k)
		}
		return true
	})
	var b pitex.UpdateBatch
	for i := 0; i < 10; i++ {
		j := r.Intn(len(pairs) - i)
		pr := pairs[j]
		pairs[j] = pairs[len(pairs)-1-i]
		b.DeleteEdge(pr[0], pr[1])
	}
	for i := 0; i < 10; {
		from, to := r.Intn(net.NumUsers()), r.Intn(net.NumUsers())
		if from == to {
			continue
		}
		b.InsertEdge(from, to, pitex.TopicProb{Topic: r.Intn(net.NumTopics()), Prob: 0.05 + 0.3*r.Float64()})
		i++
	}
	return &b
}

// leafAndHub returns the first of users with the lowest out-degree and
// the user of the highest out-degree in the network: a strong edge from
// the first to the second adds the leaf to graphs it was in none of
// before, and moves its answers and its audience.
func leafAndHub(net *pitex.Network, users []int) (leaf, hub int) {
	leaf = users[0]
	for _, u := range users {
		if net.OutDegree(u) < net.OutDegree(leaf) {
			leaf = u
		}
	}
	for u := 0; u < net.NumUsers(); u++ {
		if net.OutDegree(u) > net.OutDegree(hub) {
			hub = u
		}
	}
	return leaf, hub
}

// carryBatches is the batch sequence the carry tests apply: the
// update-mix shape, one edge from a leaf to the hub, a user-growth batch
// and the update-mix shape again. Each is built against the network it
// applies to.
func carryBatches(users []int) []func(*pitex.Network) *pitex.UpdateBatch {
	r := rng.New(42)
	mix := func(net *pitex.Network) *pitex.UpdateBatch { return updateMixBatch(net, r) }
	return []func(*pitex.Network) *pitex.UpdateBatch{
		mix,
		func(net *pitex.Network) *pitex.UpdateBatch {
			leaf, hub := leafAndHub(net, users)
			probs := make([]pitex.TopicProb, net.NumTopics())
			for z := range probs {
				probs[z] = pitex.TopicProb{Topic: z, Prob: 0.8}
			}
			var b pitex.UpdateBatch
			b.InsertEdge(leaf, hub, probs...)
			return &b
		},
		func(net *pitex.Network) *pitex.UpdateBatch {
			n := net.NumUsers()
			var b pitex.UpdateBatch
			b.AddUsers(2)
			b.InsertEdge(n, users[0], pitex.TopicProb{Topic: 2, Prob: 0.5})
			b.InsertEdge(users[1], n+1, pitex.TopicProb{Topic: 3, Prob: 0.5})
			return &b
		},
		mix,
	}
}

// TestSwapAnswersMatchFreshEngine is the referee of the cache carried
// across a swap: whatever a server keeps or drops at ApplyUpdates, every
// warmed request answers after each batch as a fresh clone of an engine
// of the same generation, built and updated in lockstep, does.
func TestSwapAnswersMatchFreshEngine(t *testing.T) {
	net, model, users := carryNetwork(t)
	reqs := warmRequests(t, carryEngine(t, net, model, 1), users)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("S%d", shards), func(t *testing.T) {
			srv, err := New(carryEngine(t, net, model, shards), pitex.ServeOptions{PoolSize: 2, CacheCapacity: 4096})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			ref := carryEngine(t, net, model, shards)
			for _, r := range reqs {
				r.serve(t, srv)
			}
			for i, next := range carryBatches(users) {
				b := next(ref.Network())
				if _, err := srv.ApplyUpdates(b); err != nil {
					t.Fatalf("batch %d: server ApplyUpdates: %v", i, err)
				}
				if ref, _, err = ref.ApplyUpdates(b); err != nil {
					t.Fatalf("batch %d: reference ApplyUpdates: %v", i, err)
				}
				for _, r := range reqs {
					got, hit := r.serve(t, srv)
					if want := r.fresh(t, ref); !reflect.DeepEqual(got, want) {
						t.Fatalf("batch %d: %v (cached %v) answers %v, a fresh generation-%d engine %v",
							i, r, hit, got, ref.Generation(), want)
					}
				}
			}
		})
	}
}

// oneEdgeBatch deletes the first live out-edge of the network's
// lowest-numbered user that has one.
func oneEdgeBatch(net *pitex.Network) *pitex.UpdateBatch {
	var b pitex.UpdateBatch
	net.ForEachEdge(func(e pitex.Edge) bool {
		if e.Live() {
			b.DeleteEdge(e.From, e.To)
			return false
		}
		return true
	})
	return &b
}

// getTwice GETs url twice and returns the second body, which a warm cache
// answers.
func getTwice(t *testing.T, url string) []byte {
	t.Helper()
	getBody(t, url)
	st, body := getBody(t, url)
	if st != http.StatusOK || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("GET %s: status %d, body %s; want a cached 200", url, st, body)
	}
	return body
}

// TestSwapCarriesCleanAnswers: after an update on an index strategy, a
// warmed query of a user the batch cannot have changed is still a hit
// with the body it had, a dirty user's query misses, and every audience
// profile misses.
func TestSwapCarriesCleanAnswers(t *testing.T) {
	net, model, users := carryNetwork(t)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("S%d", shards), func(t *testing.T) {
			srv, err := New(carryEngine(t, net, model, shards), pitex.ServeOptions{PoolSize: 2})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			query := func(u int) string { return fmt.Sprintf("%s/selling-points?user=%d&k=2", ts.URL, u) }
			audience := func(u int) string { return fmt.Sprintf("%s/audience?user=%d&tags=4,16&samples=300", ts.URL, u) }
			before := map[int][]byte{}
			for _, u := range users {
				before[u] = getTwice(t, query(u))
				getTwice(t, audience(u))
			}

			stats, err := srv.ApplyUpdates(oneEdgeBatch(net))
			if err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
			dirty := 0
			for u := 0; u < net.NumUsers(); u++ {
				if stats.Dirty(u) {
					dirty++
				}
			}
			if stats.DirtyUsers != dirty || dirty == 0 || dirty == net.NumUsers() {
				t.Fatalf("DirtyUsers = %d, the set holds %d of %d users", stats.DirtyUsers, dirty, net.NumUsers())
			}
			var clean, missed int
			for _, u := range users {
				st, body := getBody(t, query(u))
				switch {
				case st != http.StatusOK:
					t.Fatalf("user %d after the update: status %d: %s", u, st, body)
				case !stats.Dirty(u):
					clean++
					if !bytes.Equal(body, before[u]) {
						t.Fatalf("clean user %d answers %s after the update, %s before", u, body, before[u])
					}
				case !bytes.Contains(body, []byte(`"cached":false`)):
					t.Fatalf("dirty user %d answers from the cache after the update: %s", u, body)
				default:
					missed++
				}
				if _, body := getBody(t, audience(u)); !bytes.Contains(body, []byte(`"cached":false`)) {
					t.Fatalf("user %d's audience answers from the cache after the update: %s", u, body)
				}
			}
			if clean == 0 || missed == 0 {
				t.Fatalf("%d clean and %d dirty warmed users; the test needs both", clean, missed)
			}
			t.Logf("%d of %d users dirty; %d warmed users carried, %d missed", dirty, net.NumUsers(), clean, missed)
		})
	}
}

// TestSwapPurgesWhenEveryUserIsDirty: a batch that adds users, DELAYMAT,
// an online strategy and a coordinator report every user dirty, and their
// swap evicts every cached answer, as a purge does.
func TestSwapPurgesWhenEveryUserIsDirty(t *testing.T) {
	net, model, users := carryNetwork(t)
	users = users[:8]
	engine := func(s pitex.Strategy) *pitex.Engine {
		en, err := pitex.NewEngine(net, model, pitex.Options{
			Strategy: s, Epsilon: 0.7, Delta: 1000, MaxK: 3, Seed: 1,
			MaxSamples: 2000, MaxIndexSamples: 20000,
		})
		if err != nil {
			t.Fatalf("NewEngine(%v): %v", s, err)
		}
		return en
	}
	grow := func(*pitex.Network) *pitex.UpdateBatch {
		var b pitex.UpdateBatch
		b.AddUsers(1)
		return &b
	}
	for _, c := range []struct {
		name  string
		srv   func(t *testing.T) *Server
		batch func(*pitex.Network) *pitex.UpdateBatch
	}{
		{"add-users", func(t *testing.T) *Server { return mustServer(t, carryEngine(t, net, model, 3)) }, grow},
		{"delaymat", func(t *testing.T) *Server { return mustServer(t, engine(pitex.StrategyDelay)) }, oneEdgeBatch},
		{"lazy", func(t *testing.T) *Server { return mustServer(t, engine(pitex.StrategyLazy)) }, oneEdgeBatch},
		{"coordinator", func(t *testing.T) *Server { return carryCoordinator(t, net, model) }, oneEdgeBatch},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := c.srv(t)
			ctx := context.Background()
			for _, u := range users {
				if _, _, err := srv.SellingPoints(ctx, u, 2, 1, nil); err != nil {
					t.Fatalf("SellingPoints(%d): %v", u, err)
				}
			}
			if e := srv.Stats().Cache.Entries; e != int64(len(users)) {
				t.Fatalf("%d cached entries after warming %d users", e, len(users))
			}
			stats, err := srv.ApplyUpdates(c.batch(net))
			if err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
			if n := srv.Engine().Network().NumUsers(); stats.DirtyUsers != n {
				t.Fatalf("DirtyUsers = %d, want every one of %d users", stats.DirtyUsers, n)
			}
			if e := srv.Stats().Cache.Entries; e != 0 {
				t.Fatalf("%d cached entries survive the swap", e)
			}
			for _, u := range users {
				if !stats.Dirty(u) {
					t.Fatalf("user %d is not dirty", u)
				}
				if _, hit, err := srv.SellingPoints(ctx, u, 2, 1, nil); err != nil || hit {
					t.Fatalf("SellingPoints(%d) after the swap: hit=%v err=%v", u, hit, err)
				}
			}
		})
	}
}

// mustServer wraps en in a Server closed at the end of the test.
func mustServer(t *testing.T, en *pitex.Engine) *Server {
	t.Helper()
	srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// carryCoordinator is a coordinator over a one-server fleet holding every
// shard of the 3-way layout of net.
func carryCoordinator(t *testing.T, net *pitex.Network, model *pitex.TagModel) *Server {
	t.Helper()
	opts := carryEngine(t, net, model, 3).Options()
	ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: 3})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	ts := httptest.NewServer(ss.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := distrib.Dial(ctx, [][]string{{ts.URL}}, distrib.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	en, err := pitex.NewRemoteEngine(net, model, opts, client)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	coord, err := NewCoordinator(en, client, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestSwapReadersNeverSeeDirtyPreSwapAnswers runs readers across swaps
// (under -race in CI): a read that starts and ends on one generation must
// answer what that generation computes, so no reader receives a pre-swap
// answer for a user the swap made dirty.
func TestSwapReadersNeverSeeDirtyPreSwapAnswers(t *testing.T) {
	net, model, users := carryNetwork(t)
	const batches = 4
	r := rng.New(7)
	var bs []*pitex.UpdateBatch
	// want[g][i] is generation g's answer for users[i].
	want := make([][]reply, batches+1)
	ref := carryEngine(t, net, model, 3)
	for g := 0; ; g++ {
		for _, u := range users {
			want[g] = append(want[g], warmRequest{user: u, k: 2, m: 1}.fresh(t, ref))
		}
		if g == batches {
			break
		}
		b := updateMixBatch(ref.Network(), r)
		bs = append(bs, b)
		var err error
		if ref, _, err = ref.ApplyUpdates(b); err != nil {
			t.Fatalf("reference ApplyUpdates: %v", err)
		}
	}

	srv := mustServer(t, carryEngine(t, net, model, 3))
	ctx := context.Background()
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n % len(users)
				g0 := srv.Generation()
				res, _, err := srv.SellingPoints(ctx, users[i], 2, 1, nil)
				g1 := srv.Generation()
				if err != nil {
					errs <- err
					return
				}
				if got := stripped(res); g0 == g1 && !reflect.DeepEqual(got, want[g0][i]) {
					errs <- fmt.Errorf("user %d at generation %d answers %v, want %v", users[i], g0, got, want[g0][i])
					return
				}
			}
		}(w)
	}
	for _, b := range bs {
		time.Sleep(20 * time.Millisecond)
		if _, err := srv.ApplyUpdates(b); err != nil {
			t.Fatalf("ApplyUpdates: %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats().Cache; st.Hits == 0 {
		t.Fatalf("readers never hit the cache: %+v", st)
	}
}
