package rrindex

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"pitex/internal/exact"
	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

func buildOpts() BuildOptions {
	return BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.1, Delta: 100, LogSearchSpace: 2},
		Seed:     42,
	}
}

func fixtureIndex(t *testing.T) *Index {
	t.Helper()
	idx, err := Build(fixture.Graph(), buildOpts())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx
}

// theta is BuildOptions.Theta for options the test knows are usable.
func theta(t *testing.T, o BuildOptions, numVertices int) int64 {
	t.Helper()
	th, err := o.Theta(numVertices)
	if err != nil {
		t.Fatalf("Theta(%d): %v", numVertices, err)
	}
	return th
}

func TestThetaFormulaAndCap(t *testing.T) {
	o := buildOpts()
	full := theta(t, o, 100)
	if full <= 100 {
		t.Fatalf("Theta(100) = %d, implausibly small", full)
	}
	o.MaxIndexSamples = 500
	if got := theta(t, o, 100); got != 500 {
		t.Fatalf("cap not applied: %d", got)
	}
}

// TestThetaTinyEpsilon: at ε = 1e-12, Eq. 7's θ is past the int64 range.
// The cap must still bind — the uncapped count once wrapped negative and
// slipped under it, and the build panicked in makeslice — and without a
// cap every build and repair must fail with an error (naming ε), not
// panic.
func TestThetaTinyEpsilon(t *testing.T) {
	g := fixture.Graph()
	o := buildOpts()
	o.Accuracy.Epsilon = 1e-12
	o.MaxIndexSamples = 100
	if got := theta(t, o, g.NumVertices()); got != 100 {
		t.Fatalf("capped Theta = %d, want the cap 100", got)
	}
	idx, err := BuildSharded(g, o, 1)
	if err != nil {
		t.Fatalf("capped build: %v", err)
	}
	if idx.Theta() != 100 {
		t.Fatalf("capped build has θ = %d, want 100", idx.Theta())
	}
	o.MaxIndexSamples = 0
	if _, err := BuildSharded(g, o, 1); err == nil || !strings.Contains(err.Error(), "epsilon = 1e-12") {
		t.Fatalf("uncapped build: err = %v, want one naming epsilon = 1e-12", err)
	}
	if _, err := Build(g, o); err == nil {
		t.Fatal("uncapped Build succeeded")
	}
	if _, err := BuildDelayMat(g, o); err == nil {
		t.Fatal("uncapped DelayMat build succeeded")
	}
	if _, _, err := fixtureIndex(t).Repair(g, o, nil, 0); err == nil {
		t.Fatal("uncapped index Repair succeeded")
	}
	tracked := buildOpts()
	tracked.TrackMembers = true
	dm, err := BuildDelayMat(g, tracked)
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	if _, _, err := dm.Repair(g, o, nil, 0); err == nil {
		t.Fatal("uncapped DelayMat Repair succeeded")
	}
}

// TestEffectiveEpsilonInvertsTheta: Eq. 7 solved for ε at a sample count
// gives back that count — Theta(ε_eff) is within 1 of θ — from a capped
// θ far below Eq. 7's (ε_eff above ε) to one far above it.
func TestEffectiveEpsilonInvertsTheta(t *testing.T) {
	o := buildOpts()
	for _, numV := range []int{100, 15000} {
		for _, th := range []int64{1, 500, 20000, 200000, 2560000, 1 << 33} {
			eff := o
			eff.Accuracy.Epsilon = o.EffectiveEpsilon(numV, th)
			if got := theta(t, eff, numV); got < th-1 || got > th+1 {
				t.Errorf("|V|=%d θ=%d: ε_eff %v gives Theta %d", numV, th, eff.Accuracy.Epsilon, got)
			}
		}
		o.MaxIndexSamples = 500
		if capped := theta(t, o, numV); capped != 500 || !(o.EffectiveEpsilon(numV, capped) > o.Accuracy.Epsilon) {
			t.Errorf("|V|=%d: capped θ %d reports ε_eff %v ≤ ε %v", numV, capped, o.EffectiveEpsilon(numV, capped), o.Accuracy.Epsilon)
		}
		o.MaxIndexSamples = 0
	}
}

// TestStoreRefusesOffsetOverflow: a graph or a concatenation that would
// take a store past graphRec's uint32 offsets — outStart entries
// (vertices + graphs) or edges — is refused with errStoreFull, leaving
// the store unchanged and allocating nothing. The stores here only claim
// their offsets in their sentinel records.
func TestStoreRefusesOffsetOverflow(t *testing.T) {
	const max = math.MaxUint32
	if !offsetsFit(max, max) || offsetsFit(max+1, 0) || offsetsFit(0, max+1) {
		t.Fatal("offsetsFit misplaces the uint32 boundary")
	}
	two := []graph.VertexID{1, 2}
	for _, tc := range []struct {
		sentinel graphRec
		edges    int
	}{
		{graphRec{v: max - 2}, 0}, // outStart would reach max+1 entries
		{graphRec{e: max}, 1},     // edge offsets would reach max+1
	} {
		st := &graphStore{recs: []graphRec{tc.sentinel}}
		if _, err := st.push(0, two, tc.edges); !errors.Is(err, errStoreFull) || st.size() != 0 {
			t.Errorf("push onto %+v: %v, %d graphs", tc.sentinel, err, st.size())
		}
	}
	big := &graphStore{recs: []graphRec{{}, {v: max - 1, e: max}}, kinds: []kindWord{{}}}
	edge := &graphStore{recs: []graphRec{{}, {e: 1}}, kinds: []kindWord{{}}}
	for _, rs := range [][]storeRange{
		{{big, 0, 1}, {big, 0, 1}},  // vertices overflow
		{{big, 0, 1}, {edge, 0, 1}}, // edges overflow
	} {
		if _, err := concat(nil, slices.Values(rs)); !errors.Is(err, errStoreFull) {
			t.Errorf("concat past the offsets: %v", err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	g := fixture.Graph()
	if _, err := Build(g, BuildOptions{Accuracy: sampling.Options{Epsilon: 2, Delta: 10}}); err == nil {
		t.Fatal("bad accuracy accepted")
	}
	if _, err := BuildDelayMat(g, BuildOptions{Accuracy: sampling.Options{Epsilon: 2, Delta: 10}}); err == nil {
		t.Fatal("bad accuracy accepted by DelayMat")
	}
}

// TestRRGraphStructure checks Def. 2 invariants on generated RR-Graphs.
func TestRRGraphStructure(t *testing.T) {
	g := fixture.Graph()
	r := rng.New(7)
	sc := newGenScratch(g.NumVertices())
	st := newStore(g)
	var targets []graph.VertexID
	for i := 0; i < 200; i++ {
		target := graph.VertexID(r.Intn(g.NumVertices()))
		if err := generate(g, target, r, sc, st); err != nil {
			t.Fatalf("generate: %v", err)
		}
		targets = append(targets, target)
		// mark scratch must be clean between generations.
		for v, m := range sc.mark {
			if m {
				t.Fatalf("mark[%d] left set", v)
			}
		}
	}
	for i := 0; i < st.size(); i++ {
		rr := st.view(i)
		target := targets[i]
		if !rr.Contains(target) {
			t.Fatalf("RR-Graph of %d does not contain its target", target)
		}
		// Every stored edge must satisfy c(e) < p(e) and join members.
		for v := int32(0); v < int32(len(rr.verts)); v++ {
			for j := rr.outStart[v]; j < rr.outStart[v+1]; j++ {
				e := rr.edgeID[j]
				if rr.c[j] >= g.EdgeMaxProb(e) {
					t.Fatalf("dead edge stored: c=%v p=%v", rr.c[j], g.EdgeMaxProb(e))
				}
				if g.EdgeFrom(e) != rr.verts[v] || g.EdgeTo(e) != rr.verts[rr.outTo[j]] {
					t.Fatalf("edge %d endpoints disagree with CSR", e)
				}
			}
		}
		// Every member must reach the target via stored edges (c < p means
		// live under the loosest prober, max-prob).
		visited := make([]int64, rr.NumVertices())
		loosest := maxProber{g}
		for _, v := range rr.verts {
			if !rr.Reaches(v, loosest, visited, int64(v)+1) {
				t.Fatalf("member %d cannot reach target %d", v, target)
			}
		}
	}
}

// maxProber treats every edge as having its maximum probability; under it
// every stored RR-Graph edge is live.
type maxProber struct{ g *graph.Graph }

func (m maxProber) Prob(e graph.EdgeID) float64 { return m.g.EdgeMaxProb(e) }

func TestContainingListsConsistent(t *testing.T) {
	checkPostings(t, "fixture", fixtureIndex(t))
}

// isInStar reports whether rr has the in-star shape: two or more
// vertices, and every member but the target on one edge, straight to it.
func isInStar(rr *RRGraph) bool {
	lt := rr.localID(rr.target)
	if rr.NumVertices() < 2 || rr.NumEdges() != rr.NumVertices()-1 || rr.outStart[lt] != rr.outStart[lt+1] {
		return false
	}
	for v := int32(0); v < int32(rr.NumVertices()); v++ {
		if v != lt && rr.outStart[v+1]-rr.outStart[v] != 1 {
			return false
		}
	}
	return !slices.ContainsFunc(rr.outTo, func(to int32) bool { return to != lt })
}

// checkPostings checks idx's postings, threshold tier and direct counts
// against its graphs, each rebuilt by view: a graph is kept as an in-star
// exactly when it has the in-star shape; every posted graph is a deeper
// one containing the user, and every member of every deeper graph is
// posted, once; every member of an in-star but its target finds its one
// edge and draw in its tier window, once, and each window is sorted by
// (edge, c); and single[u] is a recount of the one-vertex graphs and
// in-stars of target u, which no list posts.
func checkPostings(t *testing.T, label string, idx *Index) {
	t.Helper()
	st := idx.graphs
	posted := make(map[[2]int]bool)
	for u := range idx.containing {
		for _, gi := range idx.containing[u] {
			if k, _ := st.locate(int(gi)); k != deeper || !slices.Contains(st.members(int(gi)), graph.VertexID(u)) {
				t.Fatalf("%s: containing[%d] lists graph %d of kind %d", label, u, gi, k)
			}
			posted[[2]int{u, int(gi)}] = true
		}
	}
	if len(idx.tierStart) != len(idx.containing)+1 {
		t.Fatalf("%s: %d tier windows for %d users", label, len(idx.tierStart)-1, len(idx.containing))
	}
	tiered := make(map[[2]int]bool) // (member, entry)
	for u := range idx.containing {
		w := idx.stars(graph.VertexID(u))
		for j, i := range w {
			if j > 0 && (st.starEdge[w[j-1]] > st.starEdge[i] || st.starEdge[w[j-1]] == st.starEdge[i] && st.starC[w[j-1]] > st.starC[i]) {
				t.Fatalf("%s: tier window of %d not sorted by (edge, c)", label, u)
			}
			tiered[[2]int{u, int(i)}] = true
		}
	}
	single, members, entries := make([]int32, len(idx.containing)), 0, 0
	for gi := 0; gi < st.size(); gi++ {
		rr := st.view(gi)
		k, r := st.locate(gi)
		if (k == inStar) != isInStar(&rr) || (k == oneVertex) != (rr.NumVertices() == 1) {
			t.Fatalf("%s: graph %d of %d vertices and %d edges kept as kind %d", label, gi, rr.NumVertices(), rr.NumEdges(), k)
		}
		switch k {
		case oneVertex:
			single[rr.target]++
		case inStar:
			single[rr.target]++
			lo, _ := st.starEntries(r)
			for j, e := range rr.edgeID {
				if v := idx.g.EdgeFrom(e); !tiered[[2]int{int(v), lo + j}] || st.starC[lo+j] != rr.c[j] {
					t.Fatalf("%s: in-star %d member %d not in its tier window", label, gi, v)
				}
			}
			entries += rr.NumEdges()
		default:
			for _, v := range rr.verts {
				if !posted[[2]int{int(v), gi}] {
					t.Fatalf("%s: graph %d member %d not posted", label, gi, v)
				}
			}
			members += rr.NumVertices()
		}
	}
	if len(posted) != members || len(tiered) != entries {
		t.Fatalf("%s: %d postings for %d deeper memberships, %d tier entries for %d in-star members",
			label, len(posted), members, len(tiered), entries)
	}
	if !slices.Equal(single, idx.single) {
		t.Fatalf("%s: direct counts %v, recount %v", label, idx.single, single)
	}
}

// TestIndexEstimateMatchesExact validates Algo 3 against the oracle on the
// Fig. 2 fixture for every size-2 tag set.
func TestIndexEstimateMatchesExact(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	idx := fixtureIndex(t)
	est := NewShardedEstimator(wrapMonolithic(idx))
	pairs := [][]topics.TagID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for _, w := range pairs {
		want, err := exact.InfluenceTagSet(g, m, fixture.U1, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		post, _ := m.Posterior(w)
		got := est.Estimate(fixture.U1, post).Influence
		if math.Abs(got-want) > 0.05*want+0.03 {
			t.Errorf("IndexEst E[I(u1|%v)] = %v, want %v", w, got, want)
		}
	}
}

// TestPrunedEstimatorIsLossless: IndexEst+ must return exactly the same
// influence as IndexEst on the same index — the filter may only skip
// RR-Graphs that can never be reached.
func TestPrunedEstimatorIsLossless(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	idx := fixtureIndex(t)
	plain := NewShardedEstimator(wrapMonolithic(idx))
	pruned := NewShardedPrunedEstimator(wrapMonolithic(idx))
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range [][]topics.TagID{{0}, {1}, {2}, {3}, {0, 1}, {2, 3}, {0, 1, 2}} {
			post, ok := m.Posterior(w)
			if !ok {
				continue
			}
			a := plain.Estimate(graph.VertexID(u), post).Influence
			b := pruned.Estimate(graph.VertexID(u), post).Influence
			if a != b {
				t.Fatalf("u=%d W=%v: IndexEst %v != IndexEst+ %v", u, w, a, b)
			}
		}
	}
}

// TestPrunedEstimatorPrunes: the filter must verify strictly fewer
// RR-Graphs than the plain estimator touches.
func TestPrunedEstimatorPrunes(t *testing.T) {
	r := rng.New(3)
	g, err := graph.PreferentialAttachment(r, 400, 2000, 0.2, graph.DefaultTopicAssignment(8))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m := topics.GenerateRandom(r, 20, 8, 2)
	opts := buildOpts()
	opts.MaxIndexSamples = 20000
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	plain := NewShardedEstimator(wrapMonolithic(idx))
	pruned := NewShardedPrunedEstimator(wrapMonolithic(idx))
	groups := graph.UserGroups(g)
	u := groups[graph.GroupHigh][0]
	// Singleton tag sets are always supported by GenerateRandom models.
	for _, w := range [][]topics.TagID{{0}, {5}, {13}} {
		post, ok := m.Posterior(w)
		if !ok {
			t.Fatalf("singleton %v unsupported", w)
		}
		a := plain.Estimate(u, post).Influence
		b := pruned.Estimate(u, post).Influence
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("W=%v: lossy pruning %v vs %v", w, a, b)
		}
	}
	pws, ws := pruned.WorkStats(), plain.WorkStats()
	if pws.GraphsPruned == 0 {
		t.Fatal("cut filter pruned nothing")
	}
	if pws.GraphsChecked >= ws.GraphsChecked {
		t.Fatalf("filter verified %d graphs, plain %d", pws.GraphsChecked, ws.GraphsChecked)
	}
	// Checked plus pruned is every posting the filter saw, per estimate:
	// u's deeper graphs but those of target u. In-star memberships are
	// neither; their thresholds decide them.
	nonDirect := 0
	for _, gi := range idx.containing[u] {
		if idx.graphs.target(int(gi)) != u {
			nonDirect++
		}
	}
	if got := pws.GraphsChecked + pws.GraphsPruned; got != 3*int64(nonDirect) {
		t.Fatalf("checked %d + pruned %d over 3 estimates, want 3 × %d non-direct postings", pws.GraphsChecked, pws.GraphsPruned, nonDirect)
	}
}

// TestPrunedEstimatorCutCacheBounded: a long-lived IndexEst+ estimator
// (both entry points share the cache) serving every user — twice — must
// end with no more cached cut postings than the index has postings, must
// actually have evicted on the way (the graph is sized so all users'
// cuts together overflow the bound), and must keep answering exactly
// what a fresh estimator answers.
func TestPrunedEstimatorCutCacheBounded(t *testing.T) {
	g := randomGraph(80, 6, 0.1, 0.5, 3)
	idx, err := Build(g, shardOpts(42, 600))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	postings, allCuts := 0, 0
	for u := range idx.containing {
		postings += idx.NumContaining(graph.VertexID(u))
		allCuts += buildUserCuts(idx, graph.VertexID(u), CutBestOfTwo, &cutScratch{}).entries
	}
	if allCuts <= postings {
		t.Fatalf("fixture too small to overflow: %d cut postings, bound %d", allCuts, postings)
	}
	post := [][]float64{{0.7, 0.3}, {0.2, 0.8}}
	prober := sampling.PosteriorProber{G: g, Posterior: post[0]}
	n := g.NumVertices()
	pe := NewPrunedEstimator(idx)
	for round := 0; round < 2; round++ {
		for u := 0; u < n; u++ {
			v := graph.VertexID(u)
			fresh := NewPrunedEstimator(idx)
			if got, want := pe.Partial(0, n, v, prober), fresh.Partial(0, n, v, prober); got != want {
				t.Fatalf("round %d user %d: long-lived %+v, fresh %+v", round, u, got, want)
			}
			got, want := frontierRows(pe, 0, n, v, post), frontierRows(fresh, 0, n, v, post)
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("round %d user %d: long-lived frontier %+v, fresh %+v", round, u, got, want)
			}
			if pe.cutEntries > postings {
				t.Fatalf("round %d user %d: %d cut postings cached, bound %d", round, u, pe.cutEntries, postings)
			}
		}
	}
	held := 0
	for _, uc := range pe.cuts {
		held += uc.entries
	}
	if held != pe.cutEntries || len(pe.cuts) == 0 || len(pe.cuts) >= g.NumVertices() {
		t.Fatalf("cache holds %d users / %d postings, accounted %d (users %d)",
			len(pe.cuts), held, pe.cutEntries, g.NumVertices())
	}
}

// TestDelayMatCountsMatchIndex: with the same seed, the counting pass must
// see exactly the RR-Graphs the materializing pass stores.
func TestDelayMatCountsMatchIndex(t *testing.T) {
	g := fixture.Graph()
	idx := fixtureIndex(t)
	dm, err := BuildDelayMat(g, buildOpts())
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	if dm.Theta() != idx.Theta() {
		t.Fatalf("theta mismatch: %d vs %d", dm.Theta(), idx.Theta())
	}
	for u := 0; u < g.NumVertices(); u++ {
		if int(dm.Count(graph.VertexID(u))) != idx.NumContaining(graph.VertexID(u)) {
			t.Fatalf("θ(%d): delay %d vs index %d", u, dm.Count(graph.VertexID(u)), idx.NumContaining(graph.VertexID(u)))
		}
	}
}

// TestDelayEstimatorMatchesExact validates Algo 4 recovery end to end.
func TestDelayEstimatorMatchesExact(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	sdm, err := BuildShardedDelayMat(g, buildOpts(), 1)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	de := NewShardedDelayEstimator(sdm, rng.New(11))
	pairs := [][]topics.TagID{{0, 1}, {2, 3}}
	for _, w := range pairs {
		want, err := exact.InfluenceTagSet(g, m, fixture.U1, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		post, _ := m.Posterior(w)
		got := de.Estimate(fixture.U1, post).Influence
		if math.Abs(got-want) > 0.08*want+0.05 {
			t.Errorf("DelayMat E[I(u1|%v)] = %v, want %v", w, got, want)
		}
	}
}

func TestDelayMatMuchSmallerThanIndex(t *testing.T) {
	r := rng.New(5)
	g, err := graph.PreferentialAttachment(r, 500, 3000, 0.2, graph.DefaultTopicAssignment(5))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opts := buildOpts()
	opts.MaxIndexSamples = 5000
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dm, err := BuildDelayMat(g, opts)
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	if dm.MemoryFootprint()*2 > idx.MemoryFootprint() {
		t.Fatalf("DelayMat %d bytes not much smaller than index %d bytes",
			dm.MemoryFootprint(), idx.MemoryFootprint())
	}
}

func TestIsolatedUser(t *testing.T) {
	m := fixture.Model()
	idx := fixtureIndex(t)
	est := NewShardedEstimator(wrapMonolithic(idx))
	post, _ := m.Posterior([]topics.TagID{0})
	got := est.Estimate(fixture.U5, post).Influence
	// u5 participates in no propagation: only its own RR-Graphs hit, so
	// the estimate is θ(u5)/θ·|V| ≈ 1.
	if math.Abs(got-1) > 0.25 {
		t.Fatalf("isolated estimate = %v, want ≈1", got)
	}
}

// TestIndexWorksWithExplorerInterface ensures every index strategy's
// estimator satisfies the best-first Estimator and FrontierEstimator
// contracts, checked at compile time.
func TestIndexWorksWithExplorerInterface(t *testing.T) {
	type explorerEstimator interface {
		EstimateProber(graph.VertexID, sampling.EdgeProber) sampling.Result
		EstimateFrontier(graph.VertexID, [][]float64, sampling.StopRule) []sampling.Result
	}
	g := fixture.Graph()
	si, err := BuildSharded(g, buildOpts(), 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	sdm, err := BuildShardedDelayMat(g, buildOpts(), 1)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	var _ explorerEstimator = NewShardedEstimator(si)
	var _ explorerEstimator = NewShardedPrunedEstimator(si)
	var _ explorerEstimator = NewShardedDelayEstimator(sdm, rng.New(1))
}

func TestParallelBuildDeterministicAndValid(t *testing.T) {
	r := rng.New(21)
	g, err := graph.PreferentialAttachment(r, 300, 1500, 0.2, graph.DefaultTopicAssignment(6))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opts := buildOpts()
	opts.MaxIndexSamples = 4000
	opts.Workers = 4
	a, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if a.Theta() != b.Theta() || a.graphs.size() != b.graphs.size() {
		t.Fatal("parallel build not deterministic in shape")
	}
	for u := 0; u < g.NumVertices(); u++ {
		if a.NumContaining(graph.VertexID(u)) != b.NumContaining(graph.VertexID(u)) {
			t.Fatalf("postings for %d differ across identical parallel builds", u)
		}
	}
	// A parallel-built index must estimate about the same as a sequential
	// one (different sample streams, same distribution).
	opts2 := opts
	opts2.Workers = 1
	seq, err := Build(g, opts2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := topics.GenerateRandom(rng.New(5), 10, 6, 2)
	post, ok := m.Posterior([]topics.TagID{0})
	if !ok {
		t.Skip("unsupported tag")
	}
	u := graph.MaxOutDegreeVertex(g)
	pv := NewShardedEstimator(wrapMonolithic(a)).Estimate(u, post).Influence
	sv := NewShardedEstimator(wrapMonolithic(seq)).Estimate(u, post).Influence
	if pv < 0.5*sv || pv > 2*sv {
		t.Fatalf("parallel estimate %v far from sequential %v", pv, sv)
	}
}

// TestDelayEstimatorOnRandomGraphs validates the Algo 4 acceptance-sampling
// recovery against the oracle beyond the fixture.
func TestDelayEstimatorOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 9, 14, graph.TopicAssignment{
			NumTopics: 2, TopicsPerEdge: 1, MaxProb: 0.6,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		m := topics.GenerateRandom(r, 5, 2, 1)
		w := []topics.TagID{topics.TagID(r.Intn(5))}
		u := graph.VertexID(r.Intn(9))
		want, err := exact.InfluenceTagSet(g, m, u, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		post, ok := m.Posterior(w)
		if !ok {
			continue
		}
		sdm, err := BuildShardedDelayMat(g, buildOpts(), 1)
		if err != nil {
			t.Fatalf("BuildShardedDelayMat: %v", err)
		}
		got := NewShardedDelayEstimator(sdm, rng.New(seed*97)).Estimate(u, post).Influence
		// DelayMat estimates are clamped below at 1.
		if want < 1 {
			want = 1
		}
		if math.Abs(got-want) > 0.1*want+0.08 {
			t.Errorf("seed %d: DelayMat %v, want %v", seed, got, want)
		}
	}
}
