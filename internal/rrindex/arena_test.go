package rrindex

// Equivalence guard for the flat-store index layout: a test-local
// reimplementation of the seed layout (one heap-allocated graph per θ,
// binary-search CSR assembly) consumes the PRNG in exactly the same order
// as the graph store — one stream per position, the fired subset of each
// member's in-edges drawn from its prefix survival products — so for a
// fixed seed the two layouts must produce byte-identical estimates across
// build, repair and the serialize round trip.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// refGraph is the seed-layout RR-Graph: five slices per graph.
type refGraph struct {
	target   graph.VertexID
	verts    []graph.VertexID
	outStart []int32
	outTo    []int32
	edgeID   []graph.EdgeID
	c        []float64
}

func (r *refGraph) localID(v graph.VertexID) int32 {
	i := sort.Search(len(r.verts), func(i int) bool { return r.verts[i] >= v })
	if i < len(r.verts) && r.verts[i] == v {
		return int32(i)
	}
	return -1
}

func refAssemble(target graph.VertexID, members []graph.VertexID, edges []rrEdge) *refGraph {
	rr := &refGraph{target: target}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	rr.verts = members
	n := len(members)
	rr.outStart = make([]int32, n+1)
	rr.outTo = make([]int32, len(edges))
	rr.edgeID = make([]graph.EdgeID, len(edges))
	rr.c = make([]float64, len(edges))
	for _, e := range edges {
		rr.outStart[rr.localID(e.from)+1]++
	}
	for v := 0; v < n; v++ {
		rr.outStart[v+1] += rr.outStart[v]
	}
	pos := make([]int32, n)
	for _, e := range edges {
		lf := rr.localID(e.from)
		p := rr.outStart[lf] + pos[lf]
		rr.outTo[p] = rr.localID(e.to)
		rr.edgeID[p] = e.id
		rr.c[p] = e.c
		pos[lf]++
	}
	return rr
}

// refGenerate consumes the PRNG exactly like sampler.sample: at each
// member, in in-CSR order, the first fired in-edge is the first with
// prefix survival product below 1 − x, each further one the first below
// (1 − y) times the last fired one's product — or, once that product is
// under survExhausted, the next edge whose coin lands below p(e) — and a
// fired edge draws c(e) = y'·p(e).
func refGenerate(g *graph.Graph, target graph.VertexID, r *rng.Source, mark []bool) *refGraph {
	var members []graph.VertexID
	var edges []rrEdge
	stack := []graph.VertexID{target}
	mark[target] = true
	members = append(members, target)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ins := g.InEdges(v)
		nbrs := g.InNeighbors(v)
		if len(ins) == 0 {
			continue
		}
		surv := make([]float64, len(ins))
		q := 1.0
		for i, e := range ins {
			q *= 1 - min(max(g.EdgeMaxProb(e), 0), 1)
			surv[i] = q
		}
		below := func(from int, t float64) int {
			for from < len(surv) && surv[from] >= t {
				from++
			}
			return from
		}
		for i := below(0, 1-r.Float64()); i < len(ins); {
			e := ins[i]
			from := nbrs[i]
			edges = append(edges, rrEdge{from: from, to: v, id: e, c: r.Float64() * g.EdgeMaxProb(e)})
			if !mark[from] {
				mark[from] = true
				members = append(members, from)
				stack = append(stack, from)
			}
			if surv[i] >= survExhausted {
				i = below(i+1, (1-r.Float64())*surv[i])
				continue
			}
			for i++; i < len(ins); i++ {
				if p := g.EdgeMaxProb(ins[i]); p > 0 && r.Float64() < p {
					break
				}
			}
		}
	}
	for _, m := range members {
		mark[m] = false
	}
	return refAssemble(target, members, edges)
}

// refIndex is the seed-layout index.
type refIndex struct {
	g      *graph.Graph
	theta  int64
	graphs []*refGraph
}

// refBuild replicates Build's draw schedule: graph gi on its own stream
// rng.Mix(Seed, gi), its target first.
func refBuild(g *graph.Graph, opts BuildOptions) *refIndex {
	theta, _ := opts.Theta(g.NumVertices())
	idx := &refIndex{g: g, theta: theta}
	mark := make([]bool, g.NumVertices())
	for gi := int64(0); gi < theta; gi++ {
		r := rng.New(rng.Mix(opts.Seed, uint64(gi)))
		target := graph.VertexID(r.Intn(g.NumVertices()))
		idx.graphs = append(idx.graphs, refGenerate(g, target, r, mark))
	}
	return idx
}

// refEstimate is the seed estimator: hits/θ·|V| over graphs containing u.
func (idx *refIndex) refEstimate(u graph.VertexID, posterior []float64) float64 {
	prober := sampling.PosteriorProber{G: idx.g, Posterior: posterior}
	var hits int64
	for _, rr := range idx.graphs {
		lu := rr.localID(u)
		if lu < 0 {
			continue
		}
		if refReaches(rr, lu, prober) {
			hits++
		}
	}
	inf := float64(hits) / float64(idx.theta) * float64(idx.g.NumVertices())
	if inf < 1 {
		inf = 1
	}
	return inf
}

func refReaches(rr *refGraph, lu int32, prober sampling.EdgeProber) bool {
	lt := rr.localID(rr.target)
	if lu == lt {
		return true
	}
	visited := make([]bool, len(rr.verts))
	stack := []int32{lu}
	visited[lu] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := rr.outStart[v]; i < rr.outStart[v+1]; i++ {
			if prober.Prob(rr.edgeID[i]) < rr.c[i] {
				continue
			}
			t := rr.outTo[i]
			if t == lt {
				return true
			}
			if !visited[t] {
				visited[t] = true
				stack = append(stack, t)
			}
		}
	}
	return false
}

// refRepair replicates the seed Repair's invalidation rule and draw
// schedule over the reference layout.
func (idx *refIndex) refRepair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) *refIndex {
	oldV := idx.g.NumVertices()
	newV := g.NumVertices()
	invalid := make([]bool, len(idx.graphs))
	for _, h := range touched {
		if int(h) >= oldV {
			continue
		}
		for gi, rr := range idx.graphs {
			if rr.localID(h) >= 0 {
				invalid[gi] = true
			}
		}
	}
	r := rng.New(opts.Seed)
	mark := make([]bool, newV)
	next := &refIndex{g: g, theta: idx.theta, graphs: append([]*refGraph(nil), idx.graphs...)}
	retargetP := 0.0
	if addedVertices > 0 {
		retargetP = float64(addedVertices) / float64(newV)
	}
	for gi, rr := range next.graphs {
		target := rr.target
		resample := invalid[gi]
		if retargetP > 0 && r.Bernoulli(retargetP) {
			target = graph.VertexID(oldV + r.Intn(addedVertices))
			resample = true
		}
		if !resample {
			continue
		}
		next.graphs[gi] = refGenerate(g, target, r, mark)
	}
	if grown, _ := opts.Theta(newV); grown > next.theta {
		for i := next.theta; i < grown; i++ {
			target := graph.VertexID(r.Intn(newV))
			next.graphs = append(next.graphs, refGenerate(g, target, r, mark))
		}
		next.theta = grown
	}
	return next
}

// assertSameEstimates compares the store index against the reference for
// every vertex under several posteriors, requiring exact float equality.
func assertSameEstimates(t *testing.T, label string, idx *Index, ref *refIndex, posteriors [][]float64) {
	t.Helper()
	if idx.graphs.size() != len(ref.graphs) || idx.theta != ref.theta {
		t.Fatalf("%s: shape differs: %d/%d graphs θ %d/%d",
			label, idx.graphs.size(), len(ref.graphs), idx.theta, ref.theta)
	}
	est := NewShardedEstimator(wrapMonolithic(idx))
	for _, post := range posteriors {
		for u := 0; u < idx.g.NumVertices(); u++ {
			got := est.Estimate(graph.VertexID(u), post).Influence
			want := ref.refEstimate(graph.VertexID(u), post)
			if got != want {
				t.Fatalf("%s: u=%d: store %v != seed layout %v", label, u, got, want)
			}
		}
	}
}

func testPosteriors(t *testing.T) [][]float64 {
	t.Helper()
	m := fixture.Model()
	var posts [][]float64
	for _, w := range [][]topics.TagID{{0}, {2, 3}, {0, 1}, {1, 2}} {
		if post, ok := m.Posterior(w); ok {
			posts = append(posts, post)
		}
	}
	// A synthetic uniform posterior stresses edges the model never would.
	posts = append(posts, []float64{0.34, 0.33, 0.33})
	return posts
}

// TestArenaBuildMatchesSeedLayout builds across three ranges on three
// processors and on one.
func TestArenaBuildMatchesSeedLayout(t *testing.T) {
	g := fixture.Graph()
	opts := buildOpts()
	opts.MaxIndexSamples = 3 * minRange
	ref := refBuild(g, opts)
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		idx, err := Build(g, opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		assertSameEstimates(t, fmt.Sprintf("build on %d processors", procs), idx, ref, testPosteriors(t))
	}
}

func TestArenaRepairMatchesSeedLayout(t *testing.T) {
	g := randomGraph(120, 4, 0.05, 0.35, 17)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:     5, MaxIndexSamples: 1500,
	}
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ref := refBuild(g, opts)

	const added = 10
	ng, info := applyDelta(t, g, graph.Delta{
		AddVertices: added,
		DeleteEdges: []graph.EdgeID{3, 40},
		RetopicEdges: []graph.EdgeRetopic{
			{Edge: 9, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.6}}},
		},
		InsertEdges: []graph.EdgeInsert{
			{From: 2, To: 121, Topics: []graph.TopicProb{{Topic: 1, Prob: 0.5}}},
			{From: 121, To: 7, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.5}}},
		},
	})
	ropts := opts
	ropts.Seed = 6
	repaired, _, err := idx.Repair(ng, ropts, info.TouchedHeads, added)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	refRepaired := ref.refRepair(ng, ropts, info.TouchedHeads, added)
	posts := [][]float64{{1, 0}, {0.5, 0.5}, {0.2, 0.8}}
	assertSameEstimates(t, "repair", repaired, refRepaired, posts)

	// And a serialize round trip of the repaired index.
	var buf bytes.Buffer
	if err := WriteIndex(&buf, repaired); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	back, err := ReadIndex(bytes.NewReader(buf.Bytes()), ng)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	assertSameEstimates(t, "repair+roundtrip", back, refRepaired, posts)
}

// assertCompact checks that idx's store holds exactly its graphs: every
// array's length is the sum of its deeper graphs' windows or of its
// in-stars' entries, singles and the kind bitmap hold exactly the
// one-vertex graphs and the positions, and no array carries spare
// capacity, so no dead bytes of an earlier generation are retained.
func assertCompact(t *testing.T, label string, st *graphStore) {
	t.Helper()
	var deep, stars, entries, nv, ns, ne int
	for gi := 0; gi < st.size(); gi++ {
		switch k, r := st.locate(gi); k {
		case deeper:
			rr := st.view(gi)
			deep++
			nv += len(rr.verts)
			ns += len(rr.outStart)
			ne += len(rr.edgeID)
		case inStar:
			lo, hi := st.starEntries(r)
			stars++
			entries += hi - lo
		}
	}
	singles, words := st.size()-deep-stars, st.size()/64+1
	if len(st.recs) != deep+1 || len(st.singles) != singles || len(st.kinds) != words ||
		len(st.verts) != nv || len(st.outStart) != ns ||
		len(st.outTo) != ne || len(st.edgeID) != ne || len(st.c) != ne ||
		len(st.starEnd) != stars || len(st.starEdge) != entries || len(st.starC) != entries {
		t.Fatalf("%s: store arrays %d/%d/%d/%d/%d/%d/%d/%d/%d, graphs sum to %d/%d/%d/%d/%d/%d/%d",
			label, len(st.recs), len(st.singles), len(st.verts), len(st.outStart), len(st.outTo), len(st.edgeID), len(st.c),
			len(st.starEnd), len(st.starEdge), deep+1, singles, nv, ns, ne, stars, entries)
	}
	if cap(st.recs) != len(st.recs) || cap(st.singles) != singles || cap(st.kinds) != words ||
		cap(st.verts) != nv || cap(st.outStart) != ns ||
		cap(st.outTo) != ne || cap(st.edgeID) != ne || cap(st.c) != ne ||
		cap(st.starEnd) != stars || cap(st.starEdge) != entries || cap(st.starC) != entries {
		t.Fatalf("%s: repaired store carries spare capacity", label)
	}
}

// TestArenaRepairChainCompacts: along a chain of repairs with a large
// touched fraction the store stays compact — its arrays hold exactly the
// live graphs after every step — without changing a single estimate
// relative to the seed-layout repair chain.
func TestArenaRepairChainCompacts(t *testing.T) {
	g := randomGraph(100, 4, 0.1, 0.4, 29)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:     41, MaxIndexSamples: 800,
	}
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ref := refBuild(g, opts)
	cur := g
	for step := 0; step < 14; step++ {
		// Retopic a high-in-degree vertex's edge each step so a large
		// share of graphs is re-sampled.
		e := graph.EdgeID(step * 7 % cur.NumEdges())
		ng, info := applyDelta(t, cur, graph.Delta{
			RetopicEdges: []graph.EdgeRetopic{{Edge: e,
				Topics: []graph.TopicProb{{Topic: 0, Prob: 0.2 + 0.1*float64(step%5)}}}},
		})
		ropts := opts
		ropts.Seed = opts.Seed + uint64(step+1)*101
		next, _, err := idx.Repair(ng, ropts, info.TouchedHeads, 0)
		if err != nil {
			t.Fatalf("Repair step %d: %v", step, err)
		}
		ref = ref.refRepair(ng, ropts, info.TouchedHeads, 0)
		assertCompact(t, fmt.Sprintf("step %d", step), next.graphs)
		idx, cur = next, ng
	}
	assertSameEstimates(t, "repair-chain", idx, ref, [][]float64{{1, 0}, {0.3, 0.7}})
}

// TestMemoryFootprintCached: the O(1) footprint must equal a full walk
// over the store's arrays, the threshold tier and the postings windows,
// by capacity, at build time and after repair.
func TestMemoryFootprintCached(t *testing.T) {
	walk := func(idx *Index) int64 {
		st := idx.graphs
		b := int64(cap(st.recs))*12 + int64(cap(st.verts))*4 + int64(cap(st.outStart))*4 +
			int64(cap(st.outTo))*4 + int64(cap(st.edgeID))*4 + int64(cap(st.c))*8 +
			int64(cap(st.kinds))*24 + int64(cap(st.singles))*4 + int64(cap(idx.single))*4 +
			int64(cap(st.starEnd))*4 + int64(cap(st.starEdge))*4 + int64(cap(st.starC))*8 +
			int64(cap(idx.tierStart))*4 + int64(cap(idx.tier))*4
		for _, l := range idx.containing {
			b += 24 + int64(cap(l))*4
		}
		return b
	}
	g := randomGraph(100, 3, 0.05, 0.3, 23)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:     3, MaxIndexSamples: 1000,
	}
	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if idx.MemoryFootprint() <= 0 || idx.MemoryFootprint() != walk(idx) {
		t.Fatalf("footprint cache %d != walk %d", idx.MemoryFootprint(), walk(idx))
	}
	ng, info := applyDelta(t, g, graph.Delta{
		RetopicEdges: []graph.EdgeRetopic{{Edge: 1, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.7}}}},
	})
	next, _, err := idx.Repair(ng, opts, info.TouchedHeads, 0)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if next.MemoryFootprint() != walk(next) {
		t.Fatalf("post-repair footprint cache %d != walk %d", next.MemoryFootprint(), walk(next))
	}
}

// TestMemoryFootprintIsHeap: MemoryFootprint is what a structure
// retains. Across a build of 60 000 graphs, the post-GC heap growth of an
// index, and of a DelayMat's counters, is within 10 % of the footprint
// the structure reports. The graph has 30 000 users, so the counters
// (240 KB) dwarf the few KB of goroutine descriptors the runtime keeps
// after any parallel build.
func TestMemoryFootprintIsHeap(t *testing.T) {
	g := randomGraph(30000, 4, 0.05, 0.35, 53)
	opts := BuildOptions{
		Accuracy: sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:     9, MaxIndexSamples: 60000,
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, tc := range []struct {
		name  string
		build func() (interface{ MemoryFootprint() int64 }, error)
	}{
		{"index", func() (interface{ MemoryFootprint() int64 }, error) { return Build(g, opts) }},
		{"delaymat", func() (interface{ MemoryFootprint() int64 }, error) { return BuildDelayMat(g, opts) }},
	} {
		before := heap()
		built, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		grew := heap() - before
		fp := built.MemoryFootprint()
		if d := math.Abs(float64(fp - grew)); d > 0.1*float64(grew) {
			t.Errorf("%s: MemoryFootprint %d bytes, heap grew %d", tc.name, fp, grew)
		}
		runtime.KeepAlive(built)
	}
}
