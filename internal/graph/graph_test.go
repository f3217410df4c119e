package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pitex/internal/rng"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 2)
	b.AddEdge(0, 1, []TopicProb{{Topic: 0, Prob: 0.5}, {Topic: 1, Prob: 0.2}})
	b.AddEdge(1, 2, []TopicProb{{Topic: 1, Prob: 0.8}})
	b.AddEdge(2, 0, []TopicProb{{Topic: 0, Prob: 0.1}})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 || g.NumTopics() != 2 {
		t.Fatalf("sizes = %d/%d/%d", g.NumVertices(), g.NumEdges(), g.NumTopics())
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 {
		t.Fatalf("degree(0) = out %d in %d", g.OutDegree(0), g.InDegree(0))
	}
	if g.EdgeFrom(0) != 0 || g.EdgeTo(0) != 1 {
		t.Fatalf("edge 0 endpoints = %d->%d", g.EdgeFrom(0), g.EdgeTo(0))
	}
	if got := g.EdgeMaxProb(0); got != 0.5 {
		t.Fatalf("EdgeMaxProb(0) = %v, want 0.5", got)
	}
	if got := g.EdgeTopicProb(0, 1); got != 0.2 {
		t.Fatalf("EdgeTopicProb(0,1) = %v, want 0.2", got)
	}
	if got := g.EdgeTopicProb(0, 9); got != 0 {
		t.Fatalf("EdgeTopicProb(0,9) = %v, want 0", got)
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	g := triangle(t)
	next := 0 // where the previous vertex's out-CSR window ended
	for v := VertexID(0); v < 3; v++ {
		edges, nbrs := g.OutEdges(v), g.OutNeighbors(v)
		if len(edges) != len(nbrs) {
			t.Fatalf("out slices disagree at %d", v)
		}
		lo, hi := g.OutRange(v)
		if lo != next || hi-lo != len(edges) {
			t.Fatalf("OutRange(%d) = [%d,%d) for %d out-edges after offset %d", v, lo, hi, len(edges), next)
		}
		next = hi
		for i, e := range edges {
			if g.EdgeFrom(e) != v || g.EdgeTo(e) != nbrs[i] {
				t.Fatalf("out edge %d of %d inconsistent", e, v)
			}
		}
		inEdges, inNbrs := g.InEdges(v), g.InNeighbors(v)
		for i, e := range inEdges {
			if g.EdgeTo(e) != v || g.EdgeFrom(e) != inNbrs[i] {
				t.Fatalf("in edge %d of %d inconsistent", e, v)
			}
		}
	}
}

func TestEdgeProb(t *testing.T) {
	g := triangle(t)
	post := []float64{0.25, 0.75}
	want := 0.5*0.25 + 0.2*0.75
	if got := g.EdgeProb(0, post); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EdgeProb = %v, want %v", got, want)
	}
}

func TestEdgeProbClamped(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddEdge(0, 1, []TopicProb{{Topic: 0, Prob: 0.9}, {Topic: 1, Prob: 0.9}})
	g := b.MustBuild()
	// A posterior summing above 1 cannot occur from a real topic model,
	// but the edge probability must still be clamped into [0,1].
	if got := g.EdgeProb(0, []float64{1, 1}); got != 1 {
		t.Fatalf("EdgeProb = %v, want clamp to 1", got)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		prep func() *Builder
	}{
		{"no vertices", func() *Builder { return NewBuilder(0, 1) }},
		{"no topics", func() *Builder { return NewBuilder(2, 0) }},
		{"vertex out of range", func() *Builder {
			b := NewBuilder(2, 1)
			b.AddEdge(0, 5, nil)
			return b
		}},
		{"self loop", func() *Builder {
			b := NewBuilder(2, 1)
			b.AddEdge(1, 1, nil)
			return b
		}},
		{"topic out of range", func() *Builder {
			b := NewBuilder(2, 1)
			b.AddEdge(0, 1, []TopicProb{{Topic: 3, Prob: 0.5}})
			return b
		}},
		{"probability above one", func() *Builder {
			b := NewBuilder(2, 1)
			b.AddEdge(0, 1, []TopicProb{{Topic: 0, Prob: 1.5}})
			return b
		}},
	}
	for _, tc := range cases {
		if _, err := tc.prep().Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", tc.name)
		}
	}
}

func TestZeroProbEntriesDropped(t *testing.T) {
	b := NewBuilder(2, 3)
	b.AddEdge(0, 1, []TopicProb{{Topic: 0, Prob: 0}, {Topic: 1, Prob: 0.3}, {Topic: 2, Prob: -1}})
	g := b.MustBuild()
	ids, _ := g.EdgeTopics(0)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("EdgeTopics = %v, want [1]", ids)
	}
}

func TestRoundTripSerialization(t *testing.T) {
	r := rng.New(5)
	g, err := PreferentialAttachment(r, 200, 800, 0.2, DefaultTopicAssignment(8))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() || g2.NumTopics() != g.NumTopics() {
		t.Fatalf("round trip changed sizes")
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeFrom(EdgeID(e)) != g2.EdgeFrom(EdgeID(e)) || g.EdgeTo(EdgeID(e)) != g2.EdgeTo(EdgeID(e)) {
			t.Fatalf("edge %d endpoints changed", e)
		}
		ids1, p1 := g.EdgeTopics(EdgeID(e))
		ids2, p2 := g2.EdgeTopics(EdgeID(e))
		if len(ids1) != len(ids2) {
			t.Fatalf("edge %d topic count changed", e)
		}
		for i := range ids1 {
			if ids1[i] != ids2[i] || math.Abs(p1[i]-p2[i]) > 1e-15 {
				t.Fatalf("edge %d topic entry %d changed", e, i)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad header":       "not-a-graph\n1 0 1\n",
		"missing sizes":    "pitex-graph 1\n",
		"bad sizes":        "pitex-graph 1\nx y z\n",
		"negative sizes":   "pitex-graph 1\n-1 0 1\n",
		"truncated edges":  "pitex-graph 1\n3 2 1\n0 1 0\n",
		"short edge line":  "pitex-graph 1\n2 1 1\n0\n",
		"bad field count":  "pitex-graph 1\n2 1 1\n0 1 2 0 0.5\n",
		"bad probability":  "pitex-graph 1\n2 1 1\n0 1 1 0 nope\n",
		"vertex too large": "pitex-graph 1\n2 1 1\n0 7 1 0 0.5\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	r := rng.New(9)
	g, err := PreferentialAttachment(r, 1000, 5000, 0.1, DefaultTopicAssignment(10))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if g.NumVertices() != 1000 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() < 4000 || g.NumEdges() > 6000 {
		t.Fatalf("E = %d, want ~5000", g.NumEdges())
	}
	st := Summarize(g)
	// Scale-free graphs have hubs far above the mean degree.
	if float64(st.MaxOutDegree) < 4*st.AvgOutDegree {
		t.Fatalf("max out-degree %d not hub-like vs avg %.2f", st.MaxOutDegree, st.AvgOutDegree)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeMaxProb(EdgeID(e)) <= 0 || g.EdgeMaxProb(EdgeID(e)) > 1 {
			t.Fatalf("edge %d max prob %v out of (0,1]", e, g.EdgeMaxProb(EdgeID(e)))
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	r := rng.New(10)
	g, err := ErdosRenyi(r, 100, 500, DefaultTopicAssignment(5))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if g.NumEdges() != 500 {
		t.Fatalf("E = %d, want 500", g.NumEdges())
	}
	if _, err := ErdosRenyi(r, 3, 100, DefaultTopicAssignment(5)); err == nil {
		t.Fatal("over-dense ErdosRenyi succeeded, want error")
	}
}

func TestCounterexampleGraphs(t *testing.T) {
	star := StarOut(50)
	if star.NumVertices() != 51 || star.OutDegree(0) != 50 {
		t.Fatalf("StarOut shape wrong")
	}
	if p := star.EdgeMaxProb(0); math.Abs(p-0.02) > 1e-12 {
		t.Fatalf("StarOut edge prob = %v, want 0.02", p)
	}
	cel := Celebrity(30)
	if cel.NumVertices() != 61 {
		t.Fatalf("Celebrity V = %d", cel.NumVertices())
	}
	if cel.InDegree(0) != 30 || cel.OutDegree(0) != 30 {
		t.Fatalf("Celebrity center degrees = in %d out %d", cel.InDegree(0), cel.OutDegree(0))
	}
}

func TestChain(t *testing.T) {
	g := Chain(5, 0.5)
	if g.NumEdges() != 4 {
		t.Fatalf("Chain edges = %d", g.NumEdges())
	}
	for e := 0; e < 4; e++ {
		if g.EdgeMaxProb(EdgeID(e)) != 0.5 {
			t.Fatalf("chain edge prob wrong")
		}
	}
}

func TestUserGroups(t *testing.T) {
	r := rng.New(11)
	g, err := PreferentialAttachment(r, 500, 2500, 0.1, DefaultTopicAssignment(5))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	groups := UserGroups(g)
	nh, nm, nl := len(groups[GroupHigh]), len(groups[GroupMid]), len(groups[GroupLow])
	if nh == 0 || nm == 0 || nl == 0 {
		t.Fatalf("empty group: %d/%d/%d", nh, nm, nl)
	}
	if nh >= nm || nm >= nl {
		t.Fatalf("group sizes not increasing: %d/%d/%d", nh, nm, nl)
	}
	minHigh := g.NumEdges()
	for _, v := range groups[GroupHigh] {
		if d := g.OutDegree(v); d < minHigh {
			minHigh = d
		}
	}
	for _, v := range groups[GroupMid] {
		if g.OutDegree(v) > minHigh {
			t.Fatalf("mid user out-ranks a high user")
		}
	}
	for _, vs := range groups {
		for _, v := range vs {
			if g.OutDegree(v) == 0 {
				t.Fatalf("user %d with zero out-degree grouped", v)
			}
		}
	}
}

func TestMaxOutDegreeVertex(t *testing.T) {
	g := StarOut(10)
	if v := MaxOutDegreeVertex(g); v != 0 {
		t.Fatalf("MaxOutDegreeVertex = %d, want 0", v)
	}
}

func TestReachableMask(t *testing.T) {
	g := Chain(4, 0.5)
	mask := make([]bool, 4)
	reached := ReachableMask(g, 0, mask, true)
	if len(reached) != 4 {
		t.Fatalf("reached %d vertices, want 4", len(reached))
	}
	for _, m := range mask {
		if m {
			t.Fatal("mask not reset")
		}
	}
	reached = ReachableMask(g, 2, mask, false)
	if len(reached) != 2 {
		t.Fatalf("reached %d from middle, want 2", len(reached))
	}
	if !mask[2] || !mask[3] {
		t.Fatal("mask not kept when resetMask=false")
	}
}

func TestSummarize(t *testing.T) {
	g := triangle(t)
	s := Summarize(g)
	if s.NumVertices != 3 || s.NumEdges != 3 || s.TopicEntries != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	if math.Abs(s.AvgOutDegree-1) > 1e-12 {
		t.Fatalf("AvgOutDegree = %v", s.AvgOutDegree)
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	g := triangle(t)
	if g.MemoryFootprint() <= 0 {
		t.Fatal("MemoryFootprint not positive")
	}
}

// Property: for random small graphs, CSR round-trips every edge exactly once
// in each direction.
func TestCSRPermutationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(20)
		m := r.Intn(3 * n)
		b := NewBuilder(n, 2)
		for i := 0; i < m; i++ {
			from := VertexID(r.Intn(n))
			to := VertexID(r.Intn(n))
			if from == to {
				continue
			}
			b.AddEdge(from, to, []TopicProb{{Topic: int32(r.Intn(2)), Prob: 0.5}})
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		seenOut := make([]bool, g.NumEdges())
		for v := 0; v < n; v++ {
			for _, e := range g.OutEdges(VertexID(v)) {
				if seenOut[e] {
					return false
				}
				seenOut[e] = true
			}
		}
		seenIn := make([]bool, g.NumEdges())
		for v := 0; v < n; v++ {
			for _, e := range g.InEdges(VertexID(v)) {
				if seenIn[e] {
					return false
				}
				seenIn[e] = true
			}
		}
		for e := range seenOut {
			if !seenOut[e] || !seenIn[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReaders exercises the documented guarantee that a built
// Graph is safe for concurrent readers.
func TestConcurrentReaders(t *testing.T) {
	r := rng.New(61)
	g, err := PreferentialAttachment(r, 500, 2500, 0.2, DefaultTopicAssignment(6))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	post := make([]float64, 6)
	for z := range post {
		post[z] = 1.0 / 6
	}
	done := make(chan int64, 8)
	for w := 0; w < 8; w++ {
		go func() {
			var sum int64
			for rep := 0; rep < 50; rep++ {
				for v := 0; v < g.NumVertices(); v++ {
					for _, e := range g.OutEdges(VertexID(v)) {
						if g.EdgeProb(e, post) > 0 {
							sum++
						}
					}
				}
			}
			done <- sum
		}()
	}
	first := <-done
	for w := 1; w < 8; w++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent readers disagreed: %d vs %d", got, first)
		}
	}
}
