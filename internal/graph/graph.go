// Package graph implements the social-network substrate of PITEX: a compact
// directed graph whose edges carry sparse topic-wise influence probabilities
// p(e|z) (paper Sec. 3.1).
//
// The representation is CSR (compressed sparse row) in both directions, so
// forward samplers (MC, Lazy) and reverse samplers (RR, RR-Graph index) both
// traverse contiguous memory. Per-edge topic vectors are stored sparsely as
// (topic, probability) pairs: learned topic-aware influence graphs are sparse
// in practice (paper Sec. 5.1), and the sparsity is what drives the
// best-effort pruning behaviour the paper reports in Fig. 12.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// VertexID identifies a vertex; vertices are dense integers in [0, NumVertices).
type VertexID = int32

// EdgeID identifies an edge; edges are dense integers in [0, NumEdges) in
// builder insertion order.
type EdgeID = int32

// TopicProb is one sparse entry of an edge's topic-wise influence vector.
type TopicProb struct {
	Topic int32
	Prob  float64
}

// Graph is an immutable directed social graph with topic-aware edge
// probabilities. Construct one with a Builder. A Graph is safe for
// concurrent readers.
type Graph struct {
	numVertices int
	numTopics   int

	// CSR over out-edges: for vertex v, its out-edges occupy
	// outEdge[outStart[v]:outStart[v+1]] and point to outTo[...].
	outStart []int32
	outTo    []VertexID
	outEdge  []EdgeID

	// CSR over in-edges.
	inStart []int32
	inFrom  []VertexID
	inEdge  []EdgeID

	edgeFrom []VertexID
	edgeTo   []VertexID

	// Sparse topic vectors, flattened: edge e's entries occupy
	// topicID[topicStart[e]:topicStart[e+1]] / topicProb[...].
	topicStart []int32
	topicID    []int32
	topicProb  []float64

	// maxProb[e] = p(e) = max_z p(e|z), the edge probability used when
	// building RR-Graphs (paper Def. 2).
	maxProb []float64
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edgeFrom) }

// NumTopics returns |Z|, the number of topics edge probabilities refer to.
func (g *Graph) NumTopics() int { return g.numTopics }

// OutDegree returns the number of out-edges of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// OutEdges returns the edge IDs leaving v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) OutEdges(v VertexID) []EdgeID {
	return g.outEdge[g.outStart[v]:g.outStart[v+1]]
}

// OutNeighbors returns the heads of v's out-edges, parallel to OutEdges.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outTo[g.outStart[v]:g.outStart[v+1]]
}

// OutRange returns the half-open window [lo, hi) that v's out-edges occupy
// in out-CSR order — OutEdges(v) and OutNeighbors(v) are exactly that
// window — so a caller can keep a per-edge table parallel to the out-CSR
// arrays without an offset array of its own.
func (g *Graph) OutRange(v VertexID) (lo, hi int) {
	return int(g.outStart[v]), int(g.outStart[v+1])
}

// InEdges returns the edge IDs entering v.
func (g *Graph) InEdges(v VertexID) []EdgeID {
	return g.inEdge[g.inStart[v]:g.inStart[v+1]]
}

// InNeighbors returns the tails of v's in-edges, parallel to InEdges.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.inFrom[g.inStart[v]:g.inStart[v+1]]
}

// EdgeFrom returns the tail of edge e.
func (g *Graph) EdgeFrom(e EdgeID) VertexID { return g.edgeFrom[e] }

// EdgeTo returns the head of edge e.
func (g *Graph) EdgeTo(e EdgeID) VertexID { return g.edgeTo[e] }

// EdgeMaxProb returns p(e) = max_z p(e|z).
func (g *Graph) EdgeMaxProb(e EdgeID) float64 { return g.maxProb[e] }

// EdgeTopics returns edge e's sparse topic vector as parallel slices of
// topic IDs and probabilities. The slices alias internal storage.
func (g *Graph) EdgeTopics(e EdgeID) ([]int32, []float64) {
	lo, hi := g.topicStart[e], g.topicStart[e+1]
	return g.topicID[lo:hi], g.topicProb[lo:hi]
}

// EdgeTopicProb returns p(e|z) for a single topic z (0 if absent).
func (g *Graph) EdgeTopicProb(e EdgeID, z int32) float64 {
	ids, probs := g.EdgeTopics(e)
	for i, id := range ids {
		if id == z {
			return probs[i]
		}
	}
	return 0
}

// EdgeProb returns p(e|W) = Σ_z p(e|z)·posterior[z] for the topic posterior
// p(z|W) of some tag set W (paper Eq. 1). posterior must have length
// NumTopics. This is the innermost hot path of every estimator.
func (g *Graph) EdgeProb(e EdgeID, posterior []float64) float64 {
	lo, hi := g.topicStart[e], g.topicStart[e+1]
	p := 0.0
	for i := lo; i < hi; i++ {
		p += g.topicProb[i] * posterior[g.topicID[i]]
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	numVertices int
	numTopics   int
	from, to    []VertexID
	topics      [][]TopicProb
}

// NewBuilder creates a Builder for a graph with numVertices vertices and
// numTopics topics.
func NewBuilder(numVertices, numTopics int) *Builder {
	return &Builder{numVertices: numVertices, numTopics: numTopics}
}

// AddEdge appends a directed edge from -> to with the given sparse topic
// probabilities. Entries with non-positive probability are dropped; entries
// are validated against the topic count at Build time. Duplicate parallel
// edges are allowed (the IC model treats them as independent channels).
func (b *Builder) AddEdge(from, to VertexID, topics []TopicProb) {
	kept := make([]TopicProb, 0, len(topics))
	for _, tp := range topics {
		if tp.Prob > 0 {
			kept = append(kept, tp)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Topic < kept[j].Topic })
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.topics = append(b.topics, kept)
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.from) }

// Build validates the accumulated edges and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.numVertices <= 0 {
		return nil, errors.New("graph: builder has no vertices")
	}
	if b.numTopics <= 0 {
		return nil, errors.New("graph: builder has no topics")
	}
	n := b.numVertices
	m := len(b.from)

	g := &Graph{
		numVertices: n,
		numTopics:   b.numTopics,
		outStart:    make([]int32, n+1),
		outTo:       make([]VertexID, m),
		outEdge:     make([]EdgeID, m),
		inStart:     make([]int32, n+1),
		inFrom:      make([]VertexID, m),
		inEdge:      make([]EdgeID, m),
		edgeFrom:    make([]VertexID, m),
		edgeTo:      make([]VertexID, m),
		topicStart:  make([]int32, m+1),
		maxProb:     make([]float64, m),
	}

	totalTopics := 0
	for e := 0; e < m; e++ {
		f, t := b.from[e], b.to[e]
		if f < 0 || int(f) >= n || t < 0 || int(t) >= n {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) out of vertex range [0,%d)", e, f, t, n)
		}
		if f == t {
			return nil, fmt.Errorf("graph: edge %d is a self-loop at vertex %d", e, f)
		}
		for _, tp := range b.topics[e] {
			if tp.Topic < 0 || int(tp.Topic) >= b.numTopics {
				return nil, fmt.Errorf("graph: edge %d references topic %d outside [0,%d)", e, tp.Topic, b.numTopics)
			}
			if tp.Prob > 1 {
				return nil, fmt.Errorf("graph: edge %d has p(e|z=%d) = %v > 1", e, tp.Topic, tp.Prob)
			}
		}
		totalTopics += len(b.topics[e])
	}

	g.topicID = make([]int32, 0, totalTopics)
	g.topicProb = make([]float64, 0, totalTopics)

	for e := 0; e < m; e++ {
		g.edgeFrom[e] = b.from[e]
		g.edgeTo[e] = b.to[e]
		g.topicStart[e] = int32(len(g.topicID))
		maxP := 0.0
		for _, tp := range b.topics[e] {
			g.topicID = append(g.topicID, tp.Topic)
			g.topicProb = append(g.topicProb, tp.Prob)
			if tp.Prob > maxP {
				maxP = tp.Prob
			}
		}
		g.maxProb[e] = maxP
	}
	g.topicStart[m] = int32(len(g.topicID))

	// Counting sort into CSR, both directions.
	for e := 0; e < m; e++ {
		g.outStart[b.from[e]+1]++
		g.inStart[b.to[e]+1]++
	}
	for v := 0; v < n; v++ {
		g.outStart[v+1] += g.outStart[v]
		g.inStart[v+1] += g.inStart[v]
	}
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	for e := 0; e < m; e++ {
		f, t := b.from[e], b.to[e]
		op := g.outStart[f] + outPos[f]
		g.outTo[op] = t
		g.outEdge[op] = EdgeID(e)
		outPos[f]++
		ip := g.inStart[t] + inPos[t]
		g.inFrom[ip] = f
		g.inEdge[ip] = EdgeID(e)
		inPos[t]++
	}
	return g, nil
}

// MustBuild is Build but panics on error; intended for tests and fixtures.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// MemoryFootprint returns an estimate of the graph's in-memory size in
// bytes, used when reporting index-vs-data sizes (paper Table 3).
func (g *Graph) MemoryFootprint() int64 {
	bytes := int64(0)
	bytes += int64(len(g.outStart)+len(g.inStart)) * 4
	bytes += int64(len(g.outTo)+len(g.outEdge)+len(g.inFrom)+len(g.inEdge)) * 4
	bytes += int64(len(g.edgeFrom)+len(g.edgeTo)) * 4
	bytes += int64(len(g.topicStart)+len(g.topicID)) * 4
	bytes += int64(len(g.topicProb)+len(g.maxProb)) * 8
	return bytes
}
