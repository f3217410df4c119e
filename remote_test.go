package pitex

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/rrindex"
)

// fakeRemote answers RemoteEstimate from in-process shards — the
// transportless reference implementation of the distrib client, built
// from the same BuildShard/GatherPartials primitives the real shard
// servers use.
type fakeRemote struct {
	g      *graph.Graph
	pruned bool
	shards []*rrindex.Index
	// all holds every shard too, for the frontier path's Partials.
	all   *rrindex.ShardedIndex
	users []int
	theta int64
	total int
	drop  map[int]bool
	err   error
	calls int
}

func newFakeRemote(t *testing.T, net *Network, model *TagModel, opts Options, S int) *fakeRemote {
	t.Helper()
	bo, err := IndexBuildOptions(model, opts)
	if err != nil {
		t.Fatalf("IndexBuildOptions: %v", err)
	}
	f := &fakeRemote{
		g:      net.Graph(),
		pruned: opts.Strategy == StrategyIndexPruned,
		total:  net.NumUsers(),
	}
	for s := 0; s < S; s++ {
		idx, users, err := rrindex.BuildShard(net.Graph(), bo, S, s)
		if err != nil {
			t.Fatalf("BuildShard(%d): %v", s, err)
		}
		f.shards = append(f.shards, idx)
		f.users = append(f.users, users)
		f.theta += idx.Theta()
	}
	if f.all, err = rrindex.BuildSharded(net.Graph(), bo, S); err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	return f
}

func (f *fakeRemote) EstimateRemote(_ context.Context, user int, probe RemoteProbe) (RemoteEstimate, error) {
	f.calls++
	if f.err != nil {
		return RemoteEstimate{}, f.err
	}
	prober, err := probe.Prober(f.g)
	if err != nil {
		return RemoteEstimate{}, err
	}
	var partials []rrindex.Partial
	var missing []int
	for s, idx := range f.shards {
		if f.drop[s] {
			missing = append(missing, s)
			continue
		}
		var p rrindex.Partial
		if f.pruned {
			p = rrindex.NewPrunedEstimator(idx).Partial(s, f.users[s], graph.VertexID(user), prober)
		} else {
			p = rrindex.NewEstimator(idx).Partial(s, f.users[s], graph.VertexID(user), prober)
		}
		partials = append(partials, p)
	}
	if len(missing) == 0 {
		r := rrindex.GatherPartials(partials)
		return RemoteEstimate{
			Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
			RespondingTheta: r.Theta, TotalTheta: r.Theta,
		}, nil
	}
	r := rrindex.GatherPartialsDegraded(partials, f.total)
	return RemoteEstimate{
		Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
		MissingShards: missing, RespondingTheta: r.Theta, TotalTheta: f.theta,
	}, nil
}

// fakeFrontierRemote adds the batched capability to fakeRemote, from the
// primitives the real pair uses: a sharded estimator's Partials,
// GatherFrontierPartials when complete, per-sibling
// GatherPartialsDegraded otherwise.
type fakeFrontierRemote struct {
	*fakeRemote
	frontierCalls int
}

func (f *fakeFrontierRemote) EstimateRemoteFrontier(_ context.Context, user int, posteriors [][]float64) ([]RemoteEstimate, error) {
	f.frontierCalls++
	if f.err != nil {
		return nil, f.err
	}
	est := rrindex.NewShardedEstimator(f.all)
	if f.pruned {
		est = rrindex.NewShardedPrunedEstimator(f.all)
	}
	var rows [][]rrindex.Partial
	var missing []int
	for s, row := range est.Partials(graph.VertexID(user), posteriors) {
		if f.drop[s] {
			missing = append(missing, s)
			continue
		}
		rows = append(rows, row)
	}
	out := make([]RemoteEstimate, len(posteriors))
	if len(missing) == 0 {
		for i, r := range rrindex.GatherFrontierPartials(rows) {
			out[i] = RemoteEstimate{
				Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
				RespondingTheta: r.Theta, TotalTheta: r.Theta,
			}
		}
		return out, nil
	}
	for i := range out {
		var sibling []rrindex.Partial
		for _, row := range rows {
			sibling = append(sibling, row[i])
		}
		r := rrindex.GatherPartialsDegraded(sibling, f.total)
		out[i] = RemoteEstimate{
			Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
			MissingShards: missing, RespondingTheta: r.Theta, TotalTheta: f.theta,
		}
	}
	return out, nil
}

// stripTiming strips a result down to what every path must agree on:
// everything but timing and the remote-only Explain counters.
func stripTiming(r Result) Result {
	r.Elapsed = 0
	r.Explain.RemoteScatters, r.Explain.RemoteSiblings = 0, 0
	return r
}

// answerOf strips a result down to its answer — tags, influence,
// alternatives, degradation — which is all a coordinator and an
// in-process engine share: their rounds differ in width, so their search
// counters do, but the canonical answer order makes the answers agree.
func answerOf(r Result) Result {
	return Result{Tags: r.Tags, TagNames: r.TagNames, Influence: r.Influence, Alternatives: r.Alternatives, Degraded: r.Degraded}
}

// TestRemoteEngineFrontierPathsAgree pins the wiring of the batched
// adapter on a graph large enough to form real rounds: the prototype
// NewRemoteEngine returns, a Clone of it, and an engine over a remote
// WITHOUT the frontier capability (the per-candidate fallback) run the
// same search — answers and search counters alike, since the adapter
// asks for the same rounds either way — and answer identically to the
// in-process engine, since every index estimate is the full count. It is
// also the regression test for the prototype's explorer once being built
// by hand without the wiring its clones carry.
func TestRemoteEngineFrontierPathsAgree(t *testing.T) {
	spec, err := BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := GenerateDatasetSpec(spec.Scaled(0.04), 5)
	if err != nil {
		t.Fatal(err)
	}
	const S = 3
	for _, strat := range []Strategy{StrategyIndex, StrategyIndexPruned} {
		opts := Options{Strategy: strat, Seed: 3, MaxSamples: 4000, MaxIndexSamples: 6000, IndexShards: S}
		batched := &fakeFrontierRemote{fakeRemote: newFakeRemote(t, net, model, opts, S)}
		proto, err := NewRemoteEngine(net, model, opts, batched)
		if err != nil {
			t.Fatalf("%v: NewRemoteEngine: %v", strat, err)
		}
		clone := proto.Clone()
		plain := newFakeRemote(t, net, model, opts, S)
		fallback, err := NewRemoteEngine(net, model, opts, plain)
		if err != nil {
			t.Fatalf("%v: NewRemoteEngine (no capability): %v", strat, err)
		}
		local, err := NewEngine(net, model, opts)
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", strat, err)
		}
		for u := 0; u < net.NumUsers(); u += 3 {
			for _, km := range [][2]int{{1, 1}, {2, 3}, {3, 1}} {
				k, m := km[0], km[1]
				want, err := local.Query(context.Background(), Request{User: u, K: k, M: m})
				if err != nil {
					t.Fatalf("%v: local top-m Query(%d,%d,%d): %v", strat, u, k, m, err)
				}
				var search Result
				for _, name := range []string{"prototype", "clone", "fallback"} {
					en := map[string]*Engine{"prototype": proto, "clone": clone, "fallback": fallback}[name]
					got, err := en.Query(context.Background(), Request{User: u, K: k, M: m})
					if err != nil {
						t.Fatalf("%v: %s top-m Query(%d,%d,%d): %v", strat, name, u, k, m, err)
					}
					if a, b := answerOf(got), answerOf(want); !reflect.DeepEqual(a, b) {
						t.Fatalf("%v: %s user %d k=%d m=%d:\n got  %+v\n want %+v", strat, name, u, k, m, a, b)
					}
					if name == "prototype" {
						search = stripTiming(got)
					} else if a := stripTiming(got); !reflect.DeepEqual(a, search) {
						t.Fatalf("%v: %s user %d k=%d m=%d searched differently from the prototype:\n got  %+v\n want %+v",
							strat, name, u, k, m, a, search)
					}
					// Every estimation of a coordinator query is a weight row —
					// a full set's posterior or a partial set's Lemma 8 bound —
					// so the wire counts follow from the search counters: all
					// rows cross as siblings (one scatter each on the fallback),
					// and a round of one or more expansions costs one scatter.
					// (Before bounds rode the frontier only full sets crossed:
					// siblings == FullSetsEstimated.)
					ex := got.Explain
					rows := ex.FullSetsEstimated + ex.PartialBoundsEstimated
					switch {
					case name == "fallback" && (ex.RemoteSiblings != 0 || ex.RemoteScatters != rows):
						t.Fatalf("%v: fallback user %d k=%d: %d scatters / %d siblings for %d rows",
							strat, u, k, ex.RemoteScatters, ex.RemoteSiblings, rows)
					case name != "fallback" && ex.RemoteSiblings != rows:
						t.Fatalf("%v: %s user %d k=%d: %d siblings shipped for %d full sets + %d bounds",
							strat, name, u, k, ex.RemoteSiblings, ex.FullSetsEstimated, ex.PartialBoundsEstimated)
					case name != "fallback" && ex.RemoteScatters > ex.FrontierExpansions:
						t.Fatalf("%v: %s user %d k=%d: %d scatters for %d expansions",
							strat, name, u, k, ex.RemoteScatters, ex.FrontierExpansions)
					case name != "fallback" && k == 3 && rows > 1 && ex.RemoteScatters >= rows:
						t.Fatalf("%v: %s user %d k=3: %d scatters not below %d rows",
							strat, name, u, ex.RemoteScatters, rows)
					}
				}
			}
		}
		if batched.frontierCalls == 0 || batched.calls != 0 {
			t.Fatalf("%v: batched remote saw %d frontier / %d per-candidate calls", strat, batched.frontierCalls, batched.calls)
		}
		if plain.calls == 0 {
			t.Fatalf("%v: fallback remote saw no calls", strat)
		}
	}
}

// TestRemoteEngineMatchesLocalOnTies: a coordinator explores in 64-row
// rounds and an in-process engine one expansion at a time, so the two
// find equally influential sets in different orders; the canonical
// answer order must still give both the same answer. Users without
// out-edges are where that matters most: every defined tag set scores the
// same, so the whole answer — top-m and prefix completions — is decided
// by the tie order.
func TestRemoteEngineMatchesLocalOnTies(t *testing.T) {
	spec, err := BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	base, model, err := GenerateDatasetSpec(spec.Scaled(0.04), 5)
	if err != nil {
		t.Fatal(err)
	}
	// The generator gives every user an out-edge; append a few who have
	// none.
	nb := NewNetworkBuilder(base.NumUsers()+6, base.NumTopics())
	base.ForEachEdge(func(e Edge) bool {
		nb.AddEdge(e.From, e.To, e.Topics...)
		return true
	})
	net, err := nb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const S = 3
	opts := Options{Strategy: StrategyIndexPruned, Seed: 3, MaxIndexSamples: 6000, IndexShards: S}
	remote, err := NewRemoteEngine(net, model, opts, &fakeFrontierRemote{fakeRemote: newFakeRemote(t, net, model, opts, S)})
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	local, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var isolated, tiedTops int
	for u := 0; u < net.NumUsers(); u++ {
		if net.OutDegree(u) != 0 {
			continue
		}
		isolated++
		for _, km := range [][2]int{{1, 3}, {2, 3}, {3, 3}} {
			k, m := km[0], km[1]
			want, err := local.Query(context.Background(), Request{User: u, K: k, M: m})
			if err != nil {
				t.Fatalf("local top-m Query(%d,%d,%d): %v", u, k, m, err)
			}
			got, err := remote.Query(context.Background(), Request{User: u, K: k, M: m})
			if err != nil {
				t.Fatalf("remote top-m Query(%d,%d,%d): %v", u, k, m, err)
			}
			if a, b := answerOf(got), answerOf(want); !reflect.DeepEqual(a, b) {
				t.Fatalf("user %d k=%d m=%d:\n remote %+v\n local  %+v", u, k, m, a, b)
			}
			if alt := want.Alternatives; len(alt) > 1 && alt[0].Influence == alt[1].Influence {
				tiedTops++
			}
		}
		want, err := local.Query(context.Background(), Request{User: u, K: 3, Prefix: []int{7}})
		if err != nil {
			t.Fatalf("local prefixed Query(%d): %v", u, err)
		}
		got, err := remote.Query(context.Background(), Request{User: u, K: 3, Prefix: []int{7}})
		if err != nil {
			t.Fatalf("remote prefixed Query(%d): %v", u, err)
		}
		if a, b := answerOf(got), answerOf(want); !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d prefix {7}:\n remote %+v\n local  %+v", u, a, b)
		}
	}
	if isolated == 0 || tiedTops == 0 {
		t.Fatalf("%d users without out-edges, %d tied tops: the fixture exercises no ties", isolated, tiedTops)
	}
}

// TestRemotePrefixRootNeverScattered: a prefix root's Lemma 8 bound can
// prune nothing — nothing is recorded when it is computed — so a
// coordinator checks the prefix for support without a scatter. A prefix
// one tag short of k is then answered in exactly one round: the scatter
// of its full-size children, and no bound row at all.
func TestRemotePrefixRootNeverScattered(t *testing.T) {
	spec, err := BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := GenerateDatasetSpec(spec.Scaled(0.04), 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: StrategyIndexPruned, Seed: 3, MaxIndexSamples: 6000, IndexShards: 2}
	en, err := NewRemoteEngine(net, model, opts, &fakeFrontierRemote{fakeRemote: newFakeRemote(t, net, model, opts, 2)})
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	for u := 0; u < net.NumUsers(); u += 5 {
		res, err := en.Query(context.Background(), Request{User: u, K: 3, Prefix: []int{3, 11}})
		if err != nil {
			t.Fatalf("prefixed Query(%d): %v", u, err)
		}
		if res.Explain.RemoteScatters > 1 || res.Explain.PartialBoundsEstimated != 0 {
			t.Fatalf("user %d: prefix {3, 11} at k=3 took %d scatters and %d bound rows, want at most 1 and 0",
				u, res.Explain.RemoteScatters, res.Explain.PartialBoundsEstimated)
		}
	}
}

// TestRemoteEngineFrontierDegraded: with a shard missing, the batched
// path reports the same degradation — missing shards, θ accounting,
// achieved ε — and the same answer as the per-candidate path.
func TestRemoteEngineFrontierDegraded(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	opts.IndexShards = 3
	results := make([]Result, 2)
	for i, batched := range []bool{true, false} {
		fake := newFakeRemote(t, net, model, opts, 3)
		fake.drop = map[int]bool{1: true}
		var remote RemoteEstimator = fake
		if batched {
			remote = &fakeFrontierRemote{fakeRemote: fake}
		}
		en, err := NewRemoteEngine(net, model, opts, remote)
		if err != nil {
			t.Fatalf("NewRemoteEngine: %v", err)
		}
		if results[i], err = en.Query(context.Background(), Request{User: 0, K: 2, M: 2}); err != nil {
			t.Fatalf("Query(m=2): %v", err)
		}
	}
	if results[0].Degraded == nil || !reflect.DeepEqual(results[0].Degraded.MissingShards, []int{1}) {
		t.Fatalf("batched degraded block = %+v, want shard 1 missing", results[0].Degraded)
	}
	if !reflect.DeepEqual(stripTiming(results[0]), stripTiming(results[1])) {
		t.Fatalf("degraded answers diverge:\n batched       %+v\n per-candidate %+v", results[0], results[1])
	}
}

// TestRemoteEngineMatchesLocal pins the tentpole invariant at the engine
// layer: with every shard responding, a remote engine's answers are
// byte-identical to the in-process sharded engine at the same seeds —
// for both remotable strategies, full-set posteriors and partial-set
// bound rows alike crossing the seam.
func TestRemoteEngineMatchesLocal(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyIndex, StrategyIndexPruned} {
		opts := testEngineOptions(s)
		opts.IndexShards = 3
		local, err := NewEngine(net, model, opts)
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		fake := newFakeRemote(t, net, model, opts, 3)
		remote, err := NewRemoteEngine(net, model, opts, fake)
		if err != nil {
			t.Fatalf("%v: NewRemoteEngine: %v", s, err)
		}
		for u := 0; u < net.NumUsers(); u++ {
			lres, err := local.Query(context.Background(), Request{User: u, K: 2})
			if err != nil {
				t.Fatalf("%v: local Query(%d): %v", s, u, err)
			}
			rres, err := remote.Query(context.Background(), Request{User: u, K: 2})
			if err != nil {
				t.Fatalf("%v: remote Query(%d): %v", s, u, err)
			}
			if rres.Influence != lres.Influence || !reflect.DeepEqual(rres.Tags, lres.Tags) {
				t.Errorf("%v: user %d: remote (%v, %v) != local (%v, %v)",
					s, u, rres.Tags, rres.Influence, lres.Tags, lres.Influence)
			}
			if rres.Degraded != nil {
				t.Errorf("%v: user %d: healthy query reported degraded %+v", s, u, rres.Degraded)
			}
		}
		if fake.calls == 0 {
			t.Fatalf("%v: no estimation reached the remote", s)
		}
	}
}

func TestRemoteEngineDegraded(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	opts.IndexShards = 3
	fake := newFakeRemote(t, net, model, opts, 3)
	fake.drop = map[int]bool{1: true}
	en, err := NewRemoteEngine(net, model, opts, fake)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	res, err := en.Query(context.Background(), Request{User: 0, K: 2})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	deg := res.Degraded
	if deg == nil {
		t.Fatal("one-shard-down query reported no degradation")
	}
	if !reflect.DeepEqual(deg.MissingShards, []int{1}) {
		t.Fatalf("MissingShards = %v, want [1]", deg.MissingShards)
	}
	if deg.TargetEpsilon != opts.Epsilon {
		t.Fatalf("TargetEpsilon = %v, want %v", deg.TargetEpsilon, opts.Epsilon)
	}
	if deg.RespondingTheta <= 0 || deg.RespondingTheta >= deg.TotalTheta {
		t.Fatalf("theta accounting: responding %d of total %d", deg.RespondingTheta, deg.TotalTheta)
	}
	want := opts.Epsilon * math.Sqrt(float64(deg.TotalTheta)/float64(deg.RespondingTheta))
	if deg.AchievedEpsilon != want {
		t.Fatalf("AchievedEpsilon = %v, want %v", deg.AchievedEpsilon, want)
	}
	if res.Influence < 1 {
		t.Fatalf("degraded influence %v below clamp", res.Influence)
	}
}

func TestRemoteEngineRemoteError(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndex)
	opts.IndexShards = 2
	fake := newFakeRemote(t, net, model, opts, 2)
	fake.err = errors.New("fleet on fire")
	en, err := NewRemoteEngine(net, model, opts, fake)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	if _, err := en.Query(context.Background(), Request{User: 0, K: 2}); err == nil || !errors.Is(err, fake.err) {
		t.Fatalf("Query error = %v, want the remote failure", err)
	}
}

func TestNewRemoteEngineValidation(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndex)
	fake := newFakeRemote(t, net, model, opts, 1)
	if _, err := NewRemoteEngine(nil, model, opts, fake); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewRemoteEngine(net, model, opts, nil); err == nil {
		t.Error("nil remote accepted")
	}
	if _, err := NewRemoteEngine(net, model, Options{Epsilon: 2}, fake); err == nil {
		t.Error("invalid options accepted")
	}
	for _, s := range []Strategy{StrategyLazy, StrategyMC, StrategyRR, StrategyTIM, StrategyDelay} {
		if _, err := NewRemoteEngine(net, model, testEngineOptions(s), fake); err == nil {
			t.Errorf("%v accepted for remote serving", s)
		}
	}
	other, err := NewTagModel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRemoteEngine(net, other, opts, fake); err == nil {
		t.Error("topic-count mismatch accepted")
	}
}

func TestRemoteProbeValidateAndProber(t *testing.T) {
	net, _ := fig2Network(t)
	g := net.Graph()
	cases := []struct {
		name  string
		probe RemoteProbe
		ok    bool
	}{
		{"posterior", RemoteProbe{Posterior: []float64{0.2, 0.3, 0.5}}, true},
		{"empty", RemoteProbe{Posterior: []float64{}}, false},
		{"neither", RemoteProbe{}, false},
	}
	for _, c := range cases {
		err := c.probe.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
		prober, err := c.probe.Prober(g)
		if (err == nil) != c.ok {
			t.Errorf("%s: Prober err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && prober == nil {
			t.Errorf("%s: nil prober", c.name)
		}
	}
}

func TestIndexBuildOptions(t *testing.T) {
	_, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	opts.TrackUpdates = true
	bo, err := IndexBuildOptions(model, opts)
	if err != nil {
		t.Fatalf("IndexBuildOptions: %v", err)
	}
	if bo.Seed != opts.Seed || bo.MaxIndexSamples != opts.MaxIndexSamples || !bo.TrackMembers {
		t.Fatalf("derived build options: %+v", bo)
	}
	if bo.Accuracy.Epsilon != opts.Epsilon || bo.Accuracy.Delta != opts.Delta {
		t.Fatalf("derived accuracy: %+v", bo.Accuracy)
	}
	if bo.Accuracy.LogSearchSpace <= 0 {
		t.Fatalf("LogSearchSpace = %v, want > 0", bo.Accuracy.LogSearchSpace)
	}
	if _, err := IndexBuildOptions(nil, opts); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := IndexBuildOptions(model, Options{Epsilon: -1}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestRepairSeed(t *testing.T) {
	if got := RepairSeed(11, 0); got != 11 {
		t.Fatalf("generation 0 seed = %d, want the base seed", got)
	}
	seen := map[uint64]bool{}
	for gen := uint64(0); gen < 8; gen++ {
		s := RepairSeed(11, gen)
		if seen[s] {
			t.Fatalf("seed collision at generation %d", gen)
		}
		seen[s] = true
	}
}
