package rrindex

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// randomGraph builds a sparse random digraph for repair tests: n vertices,
// ~deg out-edges per vertex, single-topic probabilities in [lo, hi).
func randomGraph(n, deg int, lo, hi float64, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		for d := 0; d < deg; d++ {
			to := r.Intn(n)
			if to == v {
				continue
			}
			b.AddEdge(graph.VertexID(v), graph.VertexID(to), []graph.TopicProb{
				{Topic: int32(r.Intn(2)), Prob: lo + (hi-lo)*r.Float64()},
			})
		}
	}
	return b.MustBuild()
}

// applyDelta is a test helper running graph.ApplyDelta and failing on error.
func applyDelta(t *testing.T, g *graph.Graph, d graph.Delta) (*graph.Graph, *graph.DeltaInfo) {
	t.Helper()
	ng, info, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	return ng, info
}

func TestIndexRepairSharesUntouchedGraphs(t *testing.T) {
	g := randomGraph(200, 4, 0.05, 0.3, 1)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:     8, MaxIndexSamples: 2000,
	}
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Retopic one edge.
	ng, info := applyDelta(t, g, graph.Delta{
		RetopicEdges: []graph.EdgeRetopic{{Edge: 0, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}},
	})
	opts.Seed = 9
	next, stats, err := idx.Repair(ng, opts, info.TouchedHeads, 0)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if stats.Invalidated == 0 {
		t.Fatal("no graphs invalidated by a retopiced edge with members")
	}
	if stats.Invalidated >= idx.graphs.size() {
		t.Fatal("every graph invalidated: invalidation is not selective")
	}
	head := g.EdgeTo(0)
	kept, resampled := 0, 0
	for gi := 0; gi < idx.graphs.size(); gi++ {
		// A graph without the touched head keeps its bytes, copied into
		// the new store at its old index; one with it is re-sampled.
		was, now := idx.graphs.view(gi), next.graphs.view(gi)
		if was.Contains(head) {
			resampled++
			continue
		}
		if !sameGraphs([]RRGraph{was}, []RRGraph{now}) {
			t.Fatalf("graph %d lacks touched head %d but its bytes changed", gi, head)
		}
		kept++
	}
	if kept == 0 {
		t.Fatal("repair kept no graphs")
	}
	if resampled != stats.Invalidated {
		t.Fatalf("%d graphs hold the head, stats.Invalidated %d", resampled, stats.Invalidated)
	}
	// Old index untouched and still queryable.
	if idx.g != g || next.g != ng {
		t.Fatal("graph pointers wrong")
	}
	if idx.theta != next.theta {
		t.Fatalf("theta changed without vertex growth: %d -> %d", idx.theta, next.theta)
	}

	// A shard whose postings lack the touched head is not repaired: the
	// next generation holds its very store. The head is the rarest member
	// among the edge heads, so some of eight shards miss it.
	rare := graph.EdgeID(0)
	for e := graph.EdgeID(1); int(e) < g.NumEdges(); e++ {
		if n := idx.NumContaining(g.EdgeTo(e)); n > 0 && n < idx.NumContaining(g.EdgeTo(rare)) {
			rare = e
		}
	}
	rg, rinfo := applyDelta(t, g, graph.Delta{
		RetopicEdges: []graph.EdgeRetopic{{Edge: rare, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}},
	})
	si, err := BuildSharded(g, opts, 8)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	snext, _, err := si.Repair(rg, opts, rinfo.TouchedHeads, 0)
	if err != nil {
		t.Fatalf("sharded Repair: %v", err)
	}
	untouched := 0
	for s, sh := range si.shards {
		if sh.owns(rinfo.TouchedHeads) {
			continue
		}
		untouched++
		if snext.shards[s].graphs != sh.graphs {
			t.Fatalf("untouched shard %d got a new store", s)
		}
	}
	if untouched == 0 || untouched == len(si.shards) {
		t.Fatalf("%d of %d shards untouched; the check needs both kinds", untouched, len(si.shards))
	}
}

// TestIndexRepairMatchesRebuildEstimates checks the acceptance-criteria
// equivalence: estimates from a repaired index stay within estimator
// tolerance of a from-scratch rebuild over the updated graph. Both are
// (1±ε) estimators of the same quantity, so their ratio is bounded by
// (1+ε)/(1-ε); we assert a small absolute-or-relative band, deterministic
// under fixed seeds.
func TestIndexRepairMatchesRebuildEstimates(t *testing.T) {
	// θ is left uncapped: a cap below the Eq. 7 requirement voids the
	// (1±ε) guarantee this test asserts.
	g := randomGraph(300, 4, 0.05, 0.35, 3)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.2, Delta: 200, LogSearchSpace: 2},
		Seed:     11,
	}
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// A mixed batch: delete 3 edges, retopic 2, insert 3.
	d := graph.Delta{
		DeleteEdges: []graph.EdgeID{10, 500, 900},
		RetopicEdges: []graph.EdgeRetopic{
			{Edge: 20, Topics: []graph.TopicProb{{Topic: 1, Prob: 0.5}}},
			{Edge: 700, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.45}}},
		},
		InsertEdges: []graph.EdgeInsert{
			{From: 1, To: 250, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.4}}},
			{From: 250, To: 3, Topics: []graph.TopicProb{{Topic: 1, Prob: 0.4}}},
			{From: 7, To: 9, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.3}}},
		},
	}
	ng, info := applyDelta(t, g, d)
	ropts := opts
	ropts.Seed = 12
	repaired, _, err := idx.Repair(ng, ropts, info.TouchedHeads, 0)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	rebuilt, err := Build(ng, opts)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}

	posterior := []float64{0.6, 0.4}
	ea := NewShardedEstimator(wrapMonolithic(repaired))
	eb := NewShardedEstimator(wrapMonolithic(rebuilt))
	eps := opts.Accuracy.Epsilon
	// Ratio bound when both estimators hold their guarantee, with a little
	// slack because the per-estimate failure probability 1/δ is not zero.
	tol := (1 + eps) / (1 - eps) * 1.05
	for u := 0; u < ng.NumVertices(); u += 17 {
		a := ea.Estimate(graph.VertexID(u), posterior).Influence
		b := eb.Estimate(graph.VertexID(u), posterior).Influence
		lo, hi := math.Min(a, b), math.Max(a, b)
		if hi/lo > tol {
			t.Errorf("u=%d: repaired %.4f vs rebuilt %.4f exceeds (1+ε)/(1-ε)=%.3f", u, a, b, tol)
		}
	}
}

func TestIndexRepairVertexGrowth(t *testing.T) {
	g := randomGraph(150, 3, 0.05, 0.3, 5)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:     21, MaxIndexSamples: 3000,
	}
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const added = 30
	ng, info := applyDelta(t, g, graph.Delta{
		AddVertices: added,
		InsertEdges: []graph.EdgeInsert{
			{From: 0, To: 160, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.5}}},
		},
	})
	opts.Seed = 22
	next, stats, err := idx.Repair(ng, opts, info.TouchedHeads, added)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if next.g.NumVertices() != 180 || len(next.containing) != 180 {
		t.Fatalf("postings not extended: %d", len(next.containing))
	}
	if stats.Retargeted == 0 {
		t.Fatal("no graphs re-targeted onto new vertices")
	}
	// θ grows with |V| when uncapped by MaxIndexSamples? Here the cap
	// binds both sides, so theta must not shrink.
	if next.theta < idx.theta {
		t.Fatalf("theta shrank: %d -> %d", next.theta, idx.theta)
	}
	// Roughly added/newV of graphs should be re-targeted (binomial, wide
	// margin): between 5% and 35% for added/newV = 1/6.
	frac := float64(stats.Retargeted) / float64(next.graphs.size())
	if frac < 0.05 || frac > 0.35 {
		t.Fatalf("retarget fraction %.3f implausible for ΔV/V=%.3f", frac, float64(added)/180)
	}
	// New vertices must appear as targets so their influence is witnessed.
	found := false
	for gi := 0; gi < next.graphs.size(); gi++ {
		if next.graphs.target(gi) >= 150 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no graph targets a new vertex")
	}
	// Uncapped θ growth: recompute with no cap and verify appends happen.
	opts2 := opts
	opts2.MaxIndexSamples = 0
	idx2, err := Build(g, opts2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	next2, stats2, err := idx2.Repair(ng, opts2, info.TouchedHeads, added)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	want := theta(t, opts2, 180)
	if next2.theta != want || stats2.Appended != int(want-idx2.theta) {
		t.Fatalf("theta growth: got %d appended %d, want θ=%d", next2.theta, stats2.Appended, want)
	}
}

// TestRepairUntouchedEstimatesIdentical pins the sharing guarantee: a
// delta whose touched heads intersect none of a user's RR-Graphs leaves
// that user's estimate bit-identical.
func TestRepairUntouchedEstimatesIdentical(t *testing.T) {
	// Two disconnected components: fixture graph (7 vertices) plus an
	// isolated pair 7->8.
	b := graph.NewBuilder(9, 3)
	fg := fixture.Graph()
	for e := 0; e < fg.NumEdges(); e++ {
		ids, probs := fg.EdgeTopics(graph.EdgeID(e))
		tps := make([]graph.TopicProb, len(ids))
		for i := range ids {
			tps[i] = graph.TopicProb{Topic: ids[i], Prob: probs[i]}
		}
		b.AddEdge(fg.EdgeFrom(graph.EdgeID(e)), fg.EdgeTo(graph.EdgeID(e)), tps)
	}
	b.AddEdge(7, 8, []graph.TopicProb{{Topic: 0, Prob: 0.5}})
	g := b.MustBuild()

	opts := buildOpts()
	opts.MaxIndexSamples = 4000
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Mutate only the isolated component.
	ng, info := applyDelta(t, g, graph.Delta{
		RetopicEdges: []graph.EdgeRetopic{{Edge: graph.EdgeID(g.NumEdges() - 1),
			Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}},
	})
	next, _, err := idx.Repair(ng, opts, info.TouchedHeads, 0)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	m := fixture.Model()
	post, ok := m.Posterior([]topics.TagID{2, 3})
	if !ok {
		t.Fatal("posterior")
	}
	for u := 0; u < 7; u++ {
		a := NewShardedEstimator(wrapMonolithic(idx)).Estimate(graph.VertexID(u), post).Influence
		c := NewShardedEstimator(wrapMonolithic(next)).Estimate(graph.VertexID(u), post).Influence
		if a != c {
			t.Fatalf("u=%d: untouched estimate drifted %v -> %v", u, a, c)
		}
	}
}

// TestRepairFlipsGraphKinds drives repair through touched heads whose
// graphs change kind both ways: an edge into a vertex with no in-edges
// turns its one-vertex graphs into multi-vertex ones, deleting a
// vertex's in-edges turns its graphs back into one-vertex ones, and the
// third step reverses both. After every step the postings and the
// one-vertex counts must match a recount over the graphs
// (checkPostings), the store must be compact, and every row must equal
// the reference over all θ graphs.
func TestRepairFlipsGraphKinds(t *testing.T) {
	g := randomGraph(120, 3, 0.1, 0.4, 17)
	opts := shardOpts(5, 2400)
	// lone has no in-edges, so every graph of target lone has one vertex;
	// hub has the most, so most of its graphs have several.
	lone, hub := graph.VertexID(-1), graph.VertexID(0)
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if len(g.InEdges(v)) == 0 && lone < 0 {
			lone = v
		}
		if len(g.InEdges(v)) > len(g.InEdges(hub)) {
			hub = v
		}
	}
	if lone < 0 {
		t.Fatal("fixture has no vertex without in-edges")
	}
	feed := graph.VertexID((int(lone) + 1) % g.NumVertices())
	deltas := []graph.Delta{
		{InsertEdges: []graph.EdgeInsert{{From: feed, To: lone, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}}},
		{DeleteEdges: slices.Clone(g.InEdges(hub))},
		{
			DeleteEdges: []graph.EdgeID{graph.EdgeID(g.NumEdges())},
			InsertEdges: []graph.EdgeInsert{{From: feed, To: hub, Topics: []graph.TopicProb{{Topic: 1, Prob: 0.9}}}},
		},
	}
	// multi counts the multi-vertex graphs of target v.
	multi := func(idx *Index, v graph.VertexID) int {
		n := 0
		for gi := 0; gi < idx.graphs.size(); gi++ {
			if k, _ := idx.graphs.locate(gi); k != oneVertex && idx.graphs.target(gi) == v {
				n++
			}
		}
		return n
	}
	for _, S := range []int{1, 3} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		cur := g
		// Expected kind of lone's and hub's graphs after each step: true
		// means some graph of that target has several vertices.
		want := [][2]bool{{false, true}, {true, true}, {true, false}, {false, true}}
		for step := 0; ; step++ {
			var got [2]bool
			prober := fracProber{g: cur, f: 0.7}
			for s, sh := range si.shards {
				label := fmt.Sprintf("S=%d step %d shard %d", S, step, s)
				checkPostings(t, label, sh)
				assertCompact(t, label, sh.graphs)
				got[0] = got[0] || multi(sh, lone) > 0
				got[1] = got[1] || multi(sh, hub) > 0
				est, pe := NewEstimator(sh), NewPrunedEstimator(sh)
				for _, u := range []graph.VertexID{lone, hub, feed, 7} {
					for _, p := range []interface {
						scanPolicy
						Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial
					}{est, pe} {
						if row, ref := p.Partial(s, 40, u, prober), refRow(p, s, 40, u, prober); row != ref {
							t.Fatalf("%s %T u=%d: row %+v, reference %+v", label, p, u, row, ref)
						}
					}
				}
			}
			if got != want[step] {
				t.Fatalf("S=%d step %d: multi-vertex graphs of (lone, hub) %v, want %v", S, step, got, want[step])
			}
			if step == len(deltas) {
				break
			}
			ng, info := applyDelta(t, cur, deltas[step])
			ropts := opts
			ropts.Seed = opts.Seed + uint64(step+1)*31
			if si, _, err = si.Repair(ng, ropts, info.TouchedHeads, 0); err != nil {
				t.Fatalf("S=%d step %d Repair: %v", S, step, err)
			}
			cur = ng
		}
	}
}

// TestRepairFlipsThreeKinds drives the graphs of three appended vertices
// a, b and c through every kind with certain edges (p = 1): b→a turns a's
// one-vertex graphs into in-stars, c→b makes them deeper and b's
// in-stars, deleting c→b reverses that, and deleting b→a returns a's to
// one vertex. After every step the postings, the threshold tier and the
// direct counts must match a recount over the rebuilt graphs
// (checkPostings), the store must be compact, and every row of both index
// policies must equal the reference over all θ graphs.
func TestRepairFlipsThreeKinds(t *testing.T) {
	g := randomGraph(120, 3, 0.1, 0.4, 17)
	opts := shardOpts(5, 2400)
	a, b, c := graph.VertexID(120), graph.VertexID(121), graph.VertexID(122)
	certain := []graph.TopicProb{{Topic: 0, Prob: 1}}
	bToA, cToB := graph.EdgeID(g.NumEdges()), graph.EdgeID(g.NumEdges()+1)
	deltas := []graph.Delta{
		{AddVertices: 3},
		{InsertEdges: []graph.EdgeInsert{{From: b, To: a, Topics: certain}}},
		{InsertEdges: []graph.EdgeInsert{{From: c, To: b, Topics: certain}}},
		{DeleteEdges: []graph.EdgeID{cToB}},
		{DeleteEdges: []graph.EdgeID{bToA}},
	}
	// want[step] is the one kind of a's graphs and of b's after the step.
	want := [][2]graphKind{{oneVertex, oneVertex}, {inStar, oneVertex}, {deeper, inStar}, {inStar, oneVertex}, {oneVertex, oneVertex}}
	for _, S := range []int{1, 3} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		cur := g
		for step, d := range deltas {
			ng, info := applyDelta(t, cur, d)
			ropts := opts
			ropts.Seed = opts.Seed + uint64(step+1)*37
			if si, _, err = si.Repair(ng, ropts, info.TouchedHeads, d.AddVertices); err != nil {
				t.Fatalf("S=%d step %d Repair: %v", S, step, err)
			}
			cur = ng
			kinds := [2]map[graphKind]int{{}, {}}
			prober := fracProber{g: cur, f: 0.7}
			for s, sh := range si.shards {
				label := fmt.Sprintf("S=%d step %d shard %d", S, step, s)
				checkPostings(t, label, sh)
				assertCompact(t, label, sh.graphs)
				for gi := 0; gi < sh.graphs.size(); gi++ {
					k, _ := sh.graphs.locate(gi)
					for i, v := range []graph.VertexID{a, b} {
						if sh.graphs.target(gi) == v {
							kinds[i][k]++
						}
					}
				}
				est, pe := NewEstimator(sh), NewPrunedEstimator(sh)
				for _, u := range []graph.VertexID{a, b, c, 7} {
					for _, p := range []interface {
						scanPolicy
						Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial
					}{est, pe} {
						if row, ref := p.Partial(s, 40, u, prober), refRow(p, s, 40, u, prober); row != ref {
							t.Fatalf("%s %T u=%d: row %+v, reference %+v", label, p, u, row, ref)
						}
					}
				}
			}
			for i := range kinds {
				if len(kinds[i]) != 1 || kinds[i][want[step][i]] == 0 {
					t.Fatalf("S=%d step %d: graphs of %c by kind %v, want all of kind %d", S, step, "ab"[i], kinds[i], want[step][i])
				}
			}
		}
	}
}

// TestRepairDirtyIsResampledMembers pins the set a repair names: exactly
// the members, of every graph kind, of the graphs it re-sampled, read
// from the old store and from the new one at the same positions, and
// every user once the batch adds vertices.
func TestRepairDirtyIsResampledMembers(t *testing.T) {
	g := randomGraph(300, 3, 0.05, 0.4, 5)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:     3, MaxIndexSamples: 3000,
	}
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ng, info := applyDelta(t, g, graph.Delta{
		DeleteEdges: []graph.EdgeID{4, 90},
		InsertEdges: []graph.EdgeInsert{{From: 7, To: 150, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}},
	})
	opts.Seed = 4
	next, stats, err := idx.Repair(ng, opts, info.TouchedHeads, 0)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	resampled := make([]bool, idx.graphs.size())
	idx.markContaining(info.TouchedHeads, resampled)
	want := make([]bool, ng.NumVertices())
	kinds := map[graphKind]int{}
	for gi, r := range resampled {
		if !r {
			continue
		}
		for _, st := range []*graphStore{idx.graphs, next.graphs} {
			k, _ := st.locate(gi)
			kinds[k]++
			for _, v := range st.members(gi) {
				want[v] = true
			}
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("re-sampled graphs cover kinds %v; the test needs all three", kinds)
	}
	n := 0
	for v, w := range want {
		if w {
			n++
		}
		if got := stats.Dirty.Has(graph.VertexID(v)); got != w {
			t.Fatalf("user %d: in the set = %v, a member of a re-sampled graph = %v", v, got, w)
		}
	}
	if got := stats.Dirty.Len(ng.NumVertices()); got != n || n == 0 || n == ng.NumVertices() {
		t.Fatalf("Len = %d, want %d of %d", got, n, ng.NumVertices())
	}

	grown, ginfo := applyDelta(t, ng, graph.Delta{AddVertices: 2})
	_, gstats, err := next.Repair(grown, opts, ginfo.TouchedHeads, 2)
	if err != nil {
		t.Fatalf("Repair with added vertices: %v", err)
	}
	if !gstats.Dirty.All || gstats.Dirty.Len(grown.NumVertices()) != grown.NumVertices() {
		t.Fatalf("a batch that adds vertices names %d users, All = %v", gstats.Dirty.Len(grown.NumVertices()), gstats.Dirty.All)
	}
}
