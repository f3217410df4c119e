package rrindex

import (
	"math"
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

func TestThetaFormulaAndCap(t *testing.T) {
	o := buildOpts()
	full := o.Theta(100)
	if full <= 100 {
		t.Fatalf("Theta(100) = %d, implausibly small", full)
	}
	o.MaxIndexSamples = 500
	if got := o.Theta(100); got != 500 {
		t.Fatalf("cap not applied: %d", got)
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
	ab := &arenaBuilder{}
	var targets []graph.VertexID
	for i := 0; i < 200; i++ {
		target := graph.VertexID(r.Intn(g.NumVertices()))
		generate(g, target, r, sc, ab)
		targets = append(targets, target)
		// mark scratch must be clean between generations.
		for v, m := range sc.mark {
			if m {
				t.Fatalf("mark[%d] left set", v)
			}
		}
	}
	for i, rr := range mergeArenas(ab) {
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
	idx := fixtureIndex(t)
	for u := 0; u < idx.g.NumVertices(); u++ {
		for _, gi := range idx.containing[u] {
			if !idx.graphs[gi].Contains(graph.VertexID(u)) {
				t.Fatalf("containing[%d] lists graph %d that lacks it", u, gi)
			}
		}
	}
	// Reverse direction: every graph member is posted.
	posted := func(u graph.VertexID, gi int32) bool {
		for _, x := range idx.containing[u] {
			if x == gi {
				return true
			}
		}
		return false
	}
	for gi, rr := range idx.graphs {
		for _, v := range rr.verts {
			if !posted(v, int32(gi)) {
				t.Fatalf("graph %d member %d not posted", gi, v)
			}
		}
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
		postings += len(idx.containing[u])
		allCuts += buildUserCuts(idx, graph.VertexID(u), CutBestOfTwo, &cutScratch{}).entries
	}
	if allCuts <= postings {
		t.Fatalf("fixture too small to overflow: %d cut postings, bound %d", allCuts, postings)
	}
	post := [][]float64{{0.7, 0.3}, {0.2, 0.8}}
	pe := NewPrunedEstimator(idx)
	for round := 0; round < 2; round++ {
		for u := 0; u < g.NumVertices(); u++ {
			v := graph.VertexID(u)
			long, fresh := mono{pe, g}, mono{NewPrunedEstimator(idx), g}
			if got, want := long.Estimate(v, post[0]), fresh.Estimate(v, post[0]); got != want {
				t.Fatalf("round %d user %d: long-lived %+v, fresh %+v", round, u, got, want)
			}
			got, want := long.EstimateFrontier(v, post, sampling.StopRule{}), fresh.EstimateFrontier(v, post, sampling.StopRule{})
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
	if a.Theta() != b.Theta() || len(a.graphs) != len(b.graphs) {
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
