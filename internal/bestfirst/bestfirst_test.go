package bestfirst

import (
	"context"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"pitex/internal/enumerate"
	"pitex/internal/exact"
	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

func testOptions() sampling.Options {
	return sampling.Options{Epsilon: 0.15, Delta: 200, LogSearchSpace: 3, MaxSamples: 20000}
}

// TestBoundDominanceProperty is the Lemma 8 property test: for random
// models and partial sets W, p+(e|W) must dominate p(e|W') for every
// size-k superset W', and so must its dense branch alone — the weight
// row pzBound, topic by topic, against the posterior of W'. Models
// alternate between sparse (every tag misses some topic, so the AM-GM
// denominator vanishes and pzBound saturates at 1) and dense (every tag
// on every topic: the finite branch, where the prior must enter the
// bound once per set — entering once per tag undercuts the posterior).
func TestBoundDominanceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 8, 16, graph.TopicAssignment{
			NumTopics: 4, TopicsPerEdge: 2, MaxProb: 0.8,
		})
		if err != nil {
			return false
		}
		m := topics.GenerateRandom(r, 8, 4, 2+2*int(seed%2))
		k := 2 + r.Intn(2) // k in {2,3}
		b := NewBounder(g, m, k)

		// Random partial set of size < k.
		partialSize := 1 + r.Intn(k-1)
		perm := r.Perm(8)
		partial := make([]topics.TagID, partialSize)
		for i := range partial {
			partial[i] = topics.TagID(perm[i])
		}
		prober, ok := b.Prepare(partial)

		post := make([]float64, 4)
		inPartial := map[topics.TagID]bool{}
		for _, w := range partial {
			inPartial[w] = true
		}
		violated := false
		enumerate.Combinations(8, k, func(idx []int32) bool {
			// Only supersets of partial.
			matched := 0
			for _, w := range idx {
				if inPartial[topics.TagID(w)] {
					matched++
				}
			}
			if matched != partialSize {
				return true
			}
			full := make([]topics.TagID, k)
			copy(full, idx)
			if !m.PosteriorInto(full, post) {
				return true // p(e|W') = 0 ≤ anything
			}
			if !ok {
				// Bounder says no completion is supported, yet this one is.
				violated = true
				return false
			}
			weights := prober.Weights()
			for z, pz := range post {
				if weights[z] < pz-1e-12 {
					violated = true
					return false
				}
			}
			for e := 0; e < g.NumEdges(); e++ {
				pW := g.EdgeProb(graph.EdgeID(e), post)
				if prober.Prob(graph.EdgeID(e)) < pW-1e-12 || g.EdgeProb(graph.EdgeID(e), weights) < pW-1e-12 {
					violated = true
					return false
				}
			}
			return true
		})
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineBoundAgainstExact checks the online loop's partial-set bound
// against the truth, on graphs small enough for package exact. For a
// random partial set W, the exact influence under the Lemma 8 prober's
// probabilities p+(e|W) must be at least the exact influence of every
// size-k completion of W, and the masked reach count the online loop
// uses must be at least that. Sparse models exercise the saturated
// branch of the bound, dense ones (every tag on every topic) its finite
// branch, where the prior must enter once per set.
func TestOnlineBoundAgainstExact(t *testing.T) {
	const users, edges, numTopics, numTags = 8, 12, 4, 8
	for _, tc := range []struct {
		name         string
		topicsPerTag int
	}{{"sparse", 2}, {"dense", numTopics}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 40; seed++ {
				r := rng.New(seed)
				g, err := graph.ErdosRenyi(r, users, edges, graph.TopicAssignment{
					NumTopics: numTopics, TopicsPerEdge: 2, MaxProb: 0.9,
				})
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				m := topics.GenerateRandom(r, numTags, numTopics, tc.topicsPerTag)
				k := 2 + r.Intn(2)
				u := graph.VertexID(r.Intn(users))
				perm := r.Perm(numTags)
				partial := make([]topics.TagID, 1+r.Intn(k-1))
				for i := range partial {
					partial[i] = topics.TagID(perm[i])
				}
				prober, ok := NewBounder(g, m, k).Prepare(partial)
				if !ok {
					continue // no completion has a posterior (TestBoundDominanceProperty)
				}
				probs := make([]float64, g.NumEdges())
				for e := range probs {
					probs[e] = prober.Prob(graph.EdgeID(e))
				}
				bound, err := exact.Influence(g, u, probs)
				if err != nil {
					t.Fatalf("exact bound: %v", err)
				}
				inPartial := map[topics.TagID]bool{}
				for _, w := range partial {
					inPartial[w] = true
				}
				enumerate.Combinations(numTags, k, func(idx []int32) bool {
					matched := 0
					for _, w := range idx {
						if inPartial[topics.TagID(w)] {
							matched++
						}
					}
					if matched != len(partial) {
						return true
					}
					full := make([]topics.TagID, k)
					copy(full, idx)
					truth, err := exact.InfluenceTagSet(g, m, u, full)
					if err != nil {
						t.Fatalf("exact completion: %v", err)
					}
					if truth > bound+1e-9 {
						t.Fatalf("seed %d u=%d W=%v: completion %v has influence %v above the bound %v",
							seed, u, partial, full, truth, bound)
					}
					return true
				})
				ex := NewExplorer(g, m, nil)
				reach := ex.reachableUnder(u, prober)
				if mask, ok := prober.LiveTopics(); ok {
					if masked := ex.reachableMasked(u, mask); masked != reach {
						t.Fatalf("seed %d u=%d W=%v: masked reach %d, prober reach %d", seed, u, partial, masked, reach)
					}
				}
				if float64(reach) < bound-1e-9 {
					t.Fatalf("seed %d u=%d W=%v: reach count %d below the bound %v", seed, u, partial, reach, bound)
				}
			}
		})
	}
}

func TestBounderUnsupportedPartial(t *testing.T) {
	// Two tags with disjoint topic support: the partial {0} cannot be
	// completed to k=2 if tag 1 is the only other tag.
	m := topics.MustNewModel(2, 2)
	m.SetTagTopic(0, 0, 0.5)
	m.SetTagTopic(1, 1, 0.5)
	b := graph.NewBuilder(2, 2)
	b.AddEdge(0, 1, []graph.TopicProb{{Topic: 0, Prob: 0.5}})
	g := b.MustBuild()
	bounder := NewBounder(g, m, 2)
	if _, ok := bounder.Prepare([]topics.TagID{0}); ok {
		t.Fatal("Prepare reported supported for an uncompletable partial set")
	}
}

func TestBounderEmptySetUsesMaxProb(t *testing.T) {
	// For W = ∅ the dense branch is free to pick the best k tags, and the
	// sparse branch caps at max_z p(e|z); the bound must never exceed the
	// cap and never fall below p(e|W) of the best single tag.
	g := fixture.Graph()
	m := fixture.Model()
	bounder := NewBounder(g, m, 2)
	prober, ok := bounder.Prepare(nil)
	if !ok {
		t.Fatal("empty partial set unsupported")
	}
	for e := 0; e < g.NumEdges(); e++ {
		ub := prober.Prob(graph.EdgeID(e))
		if ub > g.EdgeMaxProb(graph.EdgeID(e))+1e-12 {
			t.Fatalf("edge %d bound %v exceeds max prob %v", e, ub, g.EdgeMaxProb(graph.EdgeID(e)))
		}
	}
}

func TestQueryFindsFig2Optimum(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	lz := sampling.NewLazy(g, testOptions(), rng.New(77))
	ex := NewExplorer(g, m, lz)
	res, err := ex.Run(context.Background(), fixture.U1, 2, 1, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Tags) != 2 || res.Tags[0] != fixture.W3 || res.Tags[1] != fixture.W4 {
		t.Fatalf("W* = %v, want {w3,w4}", res.Tags)
	}
	want, _ := exact.InfluenceTagSet(g, m, fixture.U1, res.Tags)
	if math.Abs(res.Influence-want) > 0.25*want {
		t.Fatalf("influence %v far from exact %v", res.Influence, want)
	}
}

func TestQueryMatchesExhaustiveOnRandomInputs(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 10, 14, graph.TopicAssignment{
			NumTopics: 3, TopicsPerEdge: 1, MaxProb: 0.7,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		m := topics.GenerateRandom(r, 7, 3, 1)
		u := graph.VertexID(r.Intn(10))
		_, exactBest, err := exact.BestTagSet(g, m, u, 2)
		if err != nil {
			t.Fatalf("BestTagSet: %v", err)
		}
		lz := sampling.NewLazy(g, testOptions(), rng.New(seed*131))
		ex := NewExplorer(g, m, lz)
		res, err := ex.Run(context.Background(), u, 2, 1, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		got, err := exact.InfluenceTagSet(g, m, u, res.Tags)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		// The returned set's true influence must be within the theoretical
		// band of the optimum (generous ε here).
		if got < 0.7*exactBest {
			t.Fatalf("seed %d: returned set influence %v « optimum %v", seed, got, exactBest)
		}
	}
}

// TestOnlineBoundsAreReachCounts: a default online explorer bounds its
// partial sets by reach counts — it samples none — and still finds the
// Fig. 2 optimum.
func TestOnlineBoundsAreReachCounts(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	lz := sampling.NewLazy(g, testOptions(), rng.New(99))
	ex := NewExplorer(g, m, lz)
	res, err := ex.Run(context.Background(), fixture.U1, 2, 1, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Tags[0] != fixture.W3 || res.Tags[1] != fixture.W4 {
		t.Fatalf("W* = %v, want {w3,w4}", res.Tags)
	}
	if res.Stats.PartialBoundsEstimated != 0 {
		t.Fatalf("online explorer sampled %d partial bounds", res.Stats.PartialBoundsEstimated)
	}
}

func TestQueryValidation(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	ex := NewExplorer(g, m, sampling.NewLazy(g, testOptions(), rng.New(1)))
	if _, err := ex.Run(context.Background(), 99, 2, 1, nil); err == nil {
		t.Fatal("bad user accepted")
	}
	if _, err := ex.Run(context.Background(), fixture.U1, 0, 1, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ex.Run(context.Background(), fixture.U1, 99, 1, nil); err == nil {
		t.Fatal("k>|Ω| accepted")
	}
}

func TestQueryOnDeadModelReturnsTrivialSet(t *testing.T) {
	// A model where every pair of tags has disjoint support: all size-2
	// posteriors undefined, so any set has influence 1.
	m := topics.MustNewModel(3, 3)
	m.SetTagTopic(0, 0, 0.5)
	m.SetTagTopic(1, 1, 0.5)
	m.SetTagTopic(2, 2, 0.5)
	b := graph.NewBuilder(2, 3)
	b.AddEdge(0, 1, []graph.TopicProb{{Topic: 0, Prob: 0.9}})
	g := b.MustBuild()
	ex := NewExplorer(g, m, sampling.NewLazy(g, testOptions(), rng.New(2)))
	res, err := ex.Run(context.Background(), 0, 2, 1, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Influence != 1 || len(res.Tags) != 2 {
		t.Fatalf("dead-model result = %+v, want influence 1", res)
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	// On a sparse model with many tags, the explorer must estimate far
	// fewer full sets than C(|Ω|,k).
	r := rng.New(17)
	g, err := graph.PreferentialAttachment(r, 200, 1000, 0.1, graph.TopicAssignment{
		NumTopics: 10, TopicsPerEdge: 1, MaxProb: 0.4,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m := topics.GenerateRandom(r, 30, 10, 1)
	opts := testOptions()
	opts.MaxSamples = 2000
	ex := NewExplorer(g, m, sampling.NewLazy(g, opts, rng.New(18)))
	groups := graph.UserGroups(g)
	u := groups[graph.GroupMid][0]
	res, err := ex.Run(context.Background(), u, 3, 1, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total, _ := enumerate.Choose(30, 3) // 4060
	if res.Stats.FullSetsEstimated >= total {
		t.Fatalf("no pruning: estimated %d of %d sets", res.Stats.FullSetsEstimated, total)
	}
	if res.Stats.PrunedUnsupported == 0 {
		t.Fatal("sparse model produced no unsupported prunes")
	}
}

// TestQueryTopMatchesExhaustiveOrder: the top-3 sets by estimated influence
// must be the true top-3 (by exact influence) up to estimation noise.
func TestQueryTopMatchesExhaustiveOrder(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	lz := sampling.NewLazy(g, testOptions(), rng.New(31))
	ex := NewExplorer(g, m, lz)
	res, err := ex.Run(context.Background(), fixture.U1, 2, 3, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.All) != 3 {
		t.Fatalf("got %d results, want 3", len(res.All))
	}
	// Exact values of all 6 pairs, sorted.
	type scored struct {
		tags []topics.TagID
		val  float64
	}
	var all []scored
	enumerate.Combinations(4, 2, func(idx []int32) bool {
		w := []topics.TagID{topics.TagID(idx[0]), topics.TagID(idx[1])}
		v, err := exact.InfluenceTagSet(g, m, fixture.U1, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		all = append(all, scored{tags: w, val: v})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].val > all[j].val })
	// The best set must match exactly; the rest must be within tolerance
	// of the exact top-3 values (ties among the 1.5 pairs permit swaps).
	if res.All[0].Tags[0] != all[0].tags[0] || res.All[0].Tags[1] != all[0].tags[1] {
		t.Fatalf("top-1 = %v, want %v", res.All[0].Tags, all[0].tags)
	}
	for i := 1; i < 3; i++ {
		if math.Abs(res.All[i].Influence-all[i].val) > 0.25*all[i].val {
			t.Fatalf("rank %d influence %v far from exact %v", i, res.All[i].Influence, all[i].val)
		}
	}
}

// TestCompleteMatchesExhaustiveSuperset: a prefixed Run must return the best
// superset of the prefix as found by brute force.
func TestCompleteMatchesExhaustiveSuperset(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	lz := sampling.NewLazy(g, testOptions(), rng.New(37))
	ex := NewExplorer(g, m, lz)
	for _, prefix := range [][]topics.TagID{{0}, {1}, {2}, {3}} {
		res, err := ex.Run(context.Background(), fixture.U1, 2, 1, prefix)
		if err != nil {
			t.Fatalf("prefixed Run(%v): %v", prefix, err)
		}
		// Brute force over supersets.
		bestVal := -1.0
		var bestTags []topics.TagID
		for w := topics.TagID(0); w < 4; w++ {
			if w == prefix[0] {
				continue
			}
			set := []topics.TagID{prefix[0], w}
			if set[0] > set[1] {
				set[0], set[1] = set[1], set[0]
			}
			v, err := exact.InfluenceTagSet(g, m, fixture.U1, set)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			if v > bestVal {
				bestVal = v
				bestTags = set
			}
		}
		got, err := exact.InfluenceTagSet(g, m, fixture.U1, res.Tags)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		if got < 0.95*bestVal {
			t.Errorf("prefix %v: prefixed Run chose %v (%.4f), best is %v (%.4f)",
				prefix, res.Tags, got, bestTags, bestVal)
		}
		// Prefix containment.
		found := false
		for _, w := range res.Tags {
			if w == prefix[0] {
				found = true
			}
		}
		if !found {
			t.Errorf("prefix %v missing from completion %v", prefix, res.Tags)
		}
	}
}

func TestCompleteValidation(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	ex := NewExplorer(g, m, sampling.NewLazy(g, testOptions(), rng.New(41)))
	if _, err := ex.Run(context.Background(), fixture.U1, 2, 1, []topics.TagID{9}); err == nil {
		t.Fatal("out-of-range prefix accepted")
	}
	if _, err := ex.Run(context.Background(), fixture.U1, 3, 1, []topics.TagID{0, 0}); err == nil {
		t.Fatal("duplicate prefix accepted")
	}
	if _, err := ex.Run(context.Background(), fixture.U1, 2, 1, []topics.TagID{0, 1, 2}); err == nil {
		t.Fatal("oversized prefix accepted")
	}
	// Full-size prefix is returned as-is.
	res, err := ex.Run(context.Background(), fixture.U1, 2, 1, []topics.TagID{1, 0})
	if err != nil {
		t.Fatalf("prefixed Run: %v", err)
	}
	if res.Tags[0] != 0 || res.Tags[1] != 1 {
		t.Fatalf("full prefix result = %v", res.Tags)
	}
}

func TestQueryTopValidation(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	ex := NewExplorer(g, m, sampling.NewLazy(g, testOptions(), rng.New(43)))
	if _, err := ex.Run(context.Background(), fixture.U1, 2, 0, nil); err == nil {
		t.Fatal("m=0 accepted")
	}
	// m larger than the number of size-k sets: returns what exists.
	res, err := ex.Run(context.Background(), fixture.U1, 2, 100, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.All) != 6 { // C(4,2)
		t.Fatalf("got %d results, want all 6 pairs", len(res.All))
	}
}
