package rrindex

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pitex/internal/datasets"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// This file tests the offline sampler's law, not its bytes: the RR-Graphs
// an index build draws and the member sets a DelayMat build counts must
// follow Def. 2 as a coin per in-edge states it. referenceSample is that
// algorithm restated from the paper; it shares no code with the sampler.

// refSample is one RR-Graph: its members, target first, and its live
// edges with their draws c(e).
type refSample struct {
	members []graph.VertexID
	edges   []graph.EdgeID
	c       []float64
}

// referenceSample is Def. 2 with a coin per in-edge: a reverse BFS from
// target that draws c(e) ~ U[0, 1) for every in-edge of every member and
// keeps the edge, and its tail as a member, when c(e) < p(e).
func referenceSample(g *graph.Graph, target graph.VertexID, r *rng.Source) refSample {
	in := map[graph.VertexID]bool{target: true}
	out := refSample{members: []graph.VertexID{target}}
	for i := 0; i < len(out.members); i++ {
		for _, e := range g.InEdges(out.members[i]) {
			c := r.Float64()
			if c >= g.EdgeMaxProb(e) {
				continue
			}
			out.edges, out.c = append(out.edges, e), append(out.c, c)
			if f := g.EdgeFrom(e); !in[f] {
				in[f] = true
				out.members = append(out.members, f)
			}
		}
	}
	return out
}

// sampleIndexGraph draws target's RR-Graph on r as an index build does,
// with the build's in-table, or as a repair does, computing each
// member's products when it is visited (withTable false).
func sampleIndexGraph(g *graph.Graph, target graph.VertexID, r *rng.Source, withTable bool) refSample {
	var surv []float64
	if withTable {
		surv = inSurvival(g)
	}
	s, st := newSampler(g, surv), newStore(g)
	s.sample(target, r)
	if err := st.add(target, &s.genScratch); err != nil {
		panic(err)
	}
	rr := st.view(0)
	return refSample{members: rr.verts, edges: rr.edgeID, c: rr.c}
}

// sampleDelayMembers draws target's member set on r as a DelayMat build
// does.
func sampleDelayMembers(g *graph.Graph, target graph.VertexID, r *rng.Source) refSample {
	s := newSampler(g, inSurvival(g))
	s.sample(target, r)
	return refSample{members: s.members}
}

// samplerGraph puts every corner of the fired-subset draw on a few
// in-lists. Vertex 0 is a deep in-hub: 300 tails at p(e) = 0.9, so its
// prefix survival product falls past survExhausted some 270 edges in, with
// edges of p(e) = 0 first, in the middle and last. Vertex 301 has a short
// in-list with a p(e) = 1 edge in the middle (the product is spent for the
// edges after it), a p(e) = 0 edge and an edge from the deep hub. Edges
// back from 301's tails into the hub's close cycles.
func samplerGraph() *graph.Graph {
	const hubTails = 300
	b := graph.NewBuilder(hubTails+10, 2)
	tp := func(z int32, p float64) []graph.TopicProb { return []graph.TopicProb{{Topic: z, Prob: p}} }
	for v := 1; v <= hubTails; v++ {
		if v == 1 || v == hubTails/2 {
			b.AddEdge(graph.VertexID(v), 0, nil)
		}
		b.AddEdge(graph.VertexID(v), 0, tp(int32(v%2), 0.9))
	}
	b.AddEdge(hubTails, 0, nil)
	for i, p := range []float64{0.2, 0.5, 1, 0.3, 0.6, 0, 0.4} {
		tail := graph.VertexID(hubTails + 2 + i)
		if p == 0 {
			b.AddEdge(tail, hubTails+1, nil)
			continue
		}
		b.AddEdge(tail, hubTails+1, tp(int32(i%2), p))
	}
	b.AddEdge(0, hubTails+1, tp(1, 0.5))
	b.AddEdge(hubTails+4, 5, tp(0, 0.7))
	b.AddEdge(hubTails+3, 17, tp(1, 0.35))
	b.AddEdge(0, 1, tp(0, 0.5))
	for v := 2; v < hubTails; v += 7 {
		b.AddEdge(graph.VertexID(v+1), graph.VertexID(v), tp(int32(v%2), 0.25))
	}
	return b.MustBuild()
}

// lawStats pools what the law test compares over the graphs drawn for one
// target: how often each vertex is a member, how often each edge is live,
// and c(e)/p(e) over the live edges.
type lawStats struct {
	graphs         int
	member, live   []int
	liveN          int
	ratio, ratioSq float64
}

func newLawStats(g *graph.Graph) *lawStats {
	return &lawStats{member: make([]int, g.NumVertices()), live: make([]int, g.NumEdges())}
}

func (s *lawStats) add(g *graph.Graph, x refSample) {
	s.graphs++
	for _, v := range x.members {
		s.member[v]++
	}
	for i, e := range x.edges {
		s.live[e]++
		q := x.c[i] / g.EdgeMaxProb(e)
		s.liveN++
		s.ratio, s.ratioSq = s.ratio+q, s.ratioSq+q*q
	}
}

// compare checks got against want, frequency by frequency, under the
// two-sample bounds of recover_test.go; edges reports whether got draws
// edges at all (a DelayMat counts members only).
func (s *lawStats) compare(t *testing.T, label string, want *lawStats, edges bool) {
	t.Helper()
	for v := range s.member {
		if k1, k2 := s.member[v], want.member[v]; k1+k2 > 0 && k1+k2 < s.graphs+want.graphs {
			shareClose(t, fmt.Sprintf("%s: membership of vertex %d", label, v), k1, s.graphs, k2, want.graphs)
		} else if k1 != k2 && (k1 == 0 || k2 == 0) {
			t.Errorf("%s: vertex %d is a member %d times against the reference's %d", label, v, k1, k2)
		}
	}
	if !edges {
		return
	}
	for e := range s.live {
		if k1, k2 := s.live[e], want.live[e]; k1+k2 > 0 && k1+k2 < s.graphs+want.graphs {
			shareClose(t, fmt.Sprintf("%s: liveness of edge %d", label, e), k1, s.graphs, k2, want.graphs)
		} else if k1 != k2 && (k1 == 0 || k2 == 0) {
			t.Errorf("%s: edge %d is live %d times against the reference's %d", label, e, k1, k2)
		}
	}
	meanClose(t, label+": mean c(e)/p(e) of live edges", s.ratio, s.ratioSq, s.liveN, want.ratio, want.ratioSq, want.liveN)
}

// TestSamplerMatchesReferenceLaw draws lawGraphs RR-Graphs per target
// with the index build's sampler, a repair's, the DelayMat build's and
// referenceSample, each on its own stream, and compares per-vertex
// membership, per-edge liveness and the mean c(e)/p(e) of live edges
// against the reference. Edges with p(e) = 0 must never be live, and
// every live edge must have c(e) < p(e).
func TestSamplerMatchesReferenceLaw(t *testing.T) {
	const lawGraphs = 3000
	g := samplerGraph()
	checkC := func(target graph.VertexID, x refSample) refSample {
		for i, e := range x.edges {
			if p := g.EdgeMaxProb(e); !(x.c[i] >= 0 && x.c[i] < p) {
				t.Fatalf("target %d: edge %d stored with c = %v, p = %v", target, e, x.c[i], p)
			}
		}
		return x
	}
	for _, target := range []graph.VertexID{0, 301, 5} {
		want, index, repair, delay := newLawStats(g), newLawStats(g), newLawStats(g), newLawStats(g)
		ri, rp, rd, rr := rng.New(rng.Mix(1, uint64(target))), rng.New(rng.Mix(4, uint64(target))),
			rng.New(rng.Mix(2, uint64(target))), rng.New(rng.Mix(3, uint64(target)))
		for range lawGraphs {
			want.add(g, referenceSample(g, target, rr))
			index.add(g, checkC(target, sampleIndexGraph(g, target, ri, true)))
			repair.add(g, checkC(target, sampleIndexGraph(g, target, rp, false)))
			delay.add(g, sampleDelayMembers(g, target, rd))
		}
		index.compare(t, fmt.Sprintf("index, target %d", target), want, true)
		repair.compare(t, fmt.Sprintf("repair, target %d", target), want, true)
		delay.compare(t, fmt.Sprintf("delaymat, target %d", target), want, false)
	}
}

// TestSamplerTableMatchesVisitProducts: a repair, which computes a
// member's prefix survival products when it visits it, draws exactly the
// graphs a build draws from its in-table on the same stream.
func TestSamplerTableMatchesVisitProducts(t *testing.T) {
	g := samplerGraph()
	table, visit := newSampler(g, inSurvival(g)), newSampler(g, nil)
	for gi := range int64(500) {
		target := table.position(7, nil, gi)
		if got := visit.position(7, nil, gi); got != target ||
			!slices.Equal(table.members, visit.members) || !slices.Equal(table.edges, visit.edges) {
			t.Fatalf("position %d: the in-table and per-visit products drew different graphs", gi)
		}
	}
}

// referenceIndex is an index of theta graphs drawn by referenceSample,
// targets uniform, on r.
func referenceIndex(g *graph.Graph, theta int64, r *rng.Source) *Index {
	st, sc := newStore(g), newGenScratch(g.NumVertices())
	for range theta {
		target := graph.VertexID(r.Intn(g.NumVertices()))
		x := referenceSample(g, target, r)
		sc.members = append(sc.members[:0], x.members...)
		sc.edges = sc.edges[:0]
		for i, e := range x.edges {
			sc.edges = append(sc.edges, rrEdge{from: g.EdgeFrom(e), to: g.EdgeTo(e), id: e, c: x.c[i]})
		}
		if err := st.add(target, sc); err != nil {
			panic(err)
		}
	}
	idx := &Index{g: g, theta: theta, graphs: st}
	idx.finishPostings()
	return idx
}

// TestIndexEstimatesMatchReferenceSampler is the law check at the
// estimate: on dataset B (bench/'s 1 500-user headline spec), an index
// built by Build and one built from referenceSample, each of θ graphs,
// estimate the influence of fixed (user, tag set) pairs; each pair's hit
// counts must agree under the two-proportion bound.
func TestIndexEstimatesMatchReferenceSampler(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset B skipped in -short mode")
	}
	const theta = 200000
	d, err := datasets.BuildSpec(datasets.Spec{Name: "headline", V: 1500, E: 15000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3, TagsPerTopicFit: 2}, 1)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	g := d.Graph
	idx, err := Build(g, BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.5, Delta: 1000, LogSearchSpace: 10},
		MaxIndexSamples: theta, Seed: 1,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if idx.theta != theta {
		t.Fatalf("θ = %d, want %d", idx.theta, theta)
	}
	ref := referenceIndex(g, theta, rng.New(2))
	est, refEst := NewEstimator(idx), NewEstimator(ref)
	for _, pair := range strongPairs(g, d.Model, 6) {
		prober := sampling.PosteriorProber{G: g, Posterior: pair.post}
		got := est.Partial(0, g.NumVertices(), pair.u, prober)
		want := refEst.Partial(0, g.NumVertices(), pair.u, prober)
		t.Logf("user %d, tags %v: %d hits, reference %d", pair.u, pair.w, got.Hits, want.Hits)
		shareClose(t, fmt.Sprintf("user %d, tags %v: hits per graph", pair.u, pair.w), int(got.Hits), theta, int(want.Hits), theta)
	}
}

// userTags is one (user, tag set) pair of the estimate check, with the
// tag set's posterior.
type userTags struct {
	u    graph.VertexID
	w    []topics.TagID
	post []float64
}

// strongPairs picks, from the graph and the model alone, pairs whose
// spread reaches well past the user: the n users of largest out-degree,
// each with the single tag, and then the pair of tags, whose posterior
// puts the most probability on the user's out-edges.
func strongPairs(g *graph.Graph, m *topics.Model, n int) []userTags {
	users := make([]graph.VertexID, g.NumVertices())
	for v := range users {
		users[v] = graph.VertexID(v)
	}
	slices.SortStableFunc(users, func(a, b graph.VertexID) int { return g.OutDegree(b) - g.OutDegree(a) })
	mass := func(u graph.VertexID, w []topics.TagID) ([]float64, float64) {
		post, ok := m.Posterior(w)
		if !ok {
			return nil, -1
		}
		sum := 0.0
		for _, e := range g.OutEdges(u) {
			sum += g.EdgeProb(e, post)
		}
		return post, sum
	}
	var out []userTags
	for _, u := range users[:n] {
		best := userTags{u: u}
		bestMass := -1.0
		for t := range m.NumTags() {
			if post, s := mass(u, []topics.TagID{topics.TagID(t)}); s > bestMass {
				best.w, best.post, bestMass = []topics.TagID{topics.TagID(t)}, post, s
			}
		}
		out = append(out, best)
		pair := userTags{u: u}
		pairMass := -1.0
		for t := range m.NumTags() {
			if w := []topics.TagID{best.w[0], topics.TagID(t)}; w[1] != w[0] {
				if post, s := mass(u, w); s > pairMass {
					pair.w, pair.post, pairMass = w, post, s
				}
			}
		}
		out = append(out, pair)
	}
	return out
}

// TestBuildBytesIndependentOfProcessors: a build's saved bytes are the
// same at GOMAXPROCS 1, 2 and 4, at S ∈ {1, 3} — an index's and a
// DelayMat's — and a shard built alone, as a shard server builds its
// slice, saves the in-process shard's bytes. θ cuts every shard into
// several ranges, so the ranges run concurrently wherever there is more
// than one processor.
func TestBuildBytesIndependentOfProcessors(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 61)
	opts := BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.1, Delta: 100, LogSearchSpace: 2},
		Seed:            19,
		MaxIndexSamples: 9 * minRange,
	}
	if n := buildRanges(opts.MaxIndexSamples / 3); n < 2 {
		t.Fatalf("a shard of θ/3 graphs is cut into %d ranges, want several", n)
	}
	type built struct{ index, delaymat []byte }
	buildAt := func(procs, S int) built {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("BuildSharded: %v", err)
		}
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("BuildShardedDelayMat: %v", err)
		}
		var out built
		var ib, db bytes.Buffer
		if err := WriteSharded(&ib, si); err != nil {
			t.Fatalf("WriteSharded: %v", err)
		}
		if err := WriteShardedDelayMat(&db, sdm); err != nil {
			t.Fatalf("WriteShardedDelayMat: %v", err)
		}
		out.index, out.delaymat = ib.Bytes(), db.Bytes()
		for s := range S {
			alone, err := BuildOwned(g, opts, S, []int{s})
			if err != nil {
				t.Fatalf("BuildOwned(%d): %v", s, err)
			}
			var a, b bytes.Buffer
			if err := WriteShard(&a, alone, 0); err != nil {
				t.Fatalf("WriteShard: %v", err)
			}
			if err := WriteShard(&b, si, s); err != nil {
				t.Fatalf("WriteShard: %v", err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("S=%d on %d processors: shard %d built alone saves other bytes than in the full build", S, procs, s)
			}
		}
		return out
	}
	for _, S := range []int{1, 3} {
		want := buildAt(1, S)
		for _, procs := range []int{2, 4} {
			got := buildAt(procs, S)
			if !bytes.Equal(got.index, want.index) {
				t.Errorf("S=%d: the index saved on %d processors differs from the one saved on 1", S, procs)
			}
			if !bytes.Equal(got.delaymat, want.delaymat) {
				t.Errorf("S=%d: the DelayMat saved on %d processors differs from the one saved on 1", S, procs)
			}
		}
	}
}
