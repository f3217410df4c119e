// Package rrindex implements the paper's index-based influence estimation
// (Sec. 6): the RR-Graph structure (Def. 2), tag-aware reachability
// (Def. 3), the offline index with online matching (Algo 3, "IndexEst"),
// the edge-cut filter-and-verify pruning layer (Sec. 6.2, "IndexEst+"),
// and delay materialization (Sec. 6.3, Algo 4, "DelayMat").
//
// # Memory layout
//
// The index is arena-flattened: instead of θ individually heap-allocated
// RR-Graphs each owning five small slices, one Build produces a single
// contiguous set of backing arrays (verts, outStart, outTo, edgeID, c)
// and every RRGraph is a view — five re-sliced windows into those arrays
// plus its target. Parallel Build workers fill per-worker arenas that are
// merged once, in worker order, so the result is still deterministic per
// (Seed, Workers). The per-user postings lists are likewise windows into
// one shared int32 arena. Incremental Repair keeps the copy-on-write
// contract at arena granularity: untouched views keep aliasing the old
// (immutable) arena while re-sampled and appended graphs point into a
// fresh per-repair arena, so concurrent readers of the old index are
// never affected.
//
// # Sharded mode
//
// ShardedIndex / ShardedDelayMat (see shard.go) hash-partition the users
// into S independent shards, each an ordinary Index/DelayMat whose
// targets are drawn from its partition with θ_s ∝ |V_s| samples. Shards
// build and repair concurrently under derived RNG streams, and a repair
// touches only the shards whose postings contain a touched head. S=1
// reproduces the monolithic structures bit-for-bit; the one file layout
// (serialize.go) round-trips shard boundaries at every S.
//
// # One estimator
//
// Every strategy and every S is estimated by ShardedEstimator (see
// estimator.go): a scan policy per shard — Estimator, PrunedEstimator or
// DelayEstimator, one per paper algorithm — turns the query user's
// RR-Graphs into Partial rows, and gather (partial.go) folds a sibling's
// rows into Σ_s (hits_s/θ_s)·|V_s|. A shard server ships the same rows
// and the coordinator folds them with the same function.
//
// # DelayMat recovery
//
// DelayMat stores θ(u) and recovers u's RR-Graphs on the first touch of a
// query user (Algo 4): about θ forward cascades from u, accepted with
// probability |V'|/|V|. The cascades are driven by the paper's own lazy
// propagation (Sec. 5.1, Algo 2, Lemma 6) rather than a coin per edge:
// a vertex is skipped until the visit at which one of its out-edges next
// fires, and the attempts at which the query user fires nothing — most
// of them — are jumped in bulk, the accepted ones located by geometric
// gaps (delay.go gives the exactness argument). What that needs of the
// graph, prefix survival products per out-edge and 1/ln q per vertex, is
// one immutable fireTable per graph generation (firing.go; 8·|E| + 8·|V|
// bytes, built by the first recovery, shared by every estimator of the
// generation, dropped with it on hot-swap). A recovery runs on the stream
// rng.Mix(seed, shard, user), so a recovered user is a pure function of
// that triple: the same from every clone, in any order.
package rrindex

import (
	"slices"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
)

// RRGraph is one sampled reverse-reachable graph (Def. 2): the vertices
// that reach Target after removing every edge whose uniform draw c(e)
// exceeds p(e) = max_z p(e|z), the surviving edges, and their draws.
// Because p(e) ≥ p(e|W) for every tag set W, an RRGraph is a valid RR
// sample for any query: an edge is live under W exactly when
// p(e|W) ≥ c(e) (Def. 3).
//
// An RRGraph is a view: its slices alias segments of a shared arena (see
// the package comment) and must never be mutated.
type RRGraph struct {
	target graph.VertexID

	// verts lists member vertices sorted ascending (local ID = index).
	verts []graph.VertexID
	// Local CSR over surviving edges, in original (forward) orientation.
	// outStart values are edge positions relative to this graph's segment.
	outStart []int32
	outTo    []int32 // local head IDs
	edgeID   []graph.EdgeID
	c        []float64
}

// Target returns the vertex this RR-Graph was sampled for.
func (r *RRGraph) Target() graph.VertexID { return r.target }

// NumVertices returns |V(v)|.
func (r *RRGraph) NumVertices() int { return len(r.verts) }

// NumEdges returns |E(v)|.
func (r *RRGraph) NumEdges() int { return len(r.edgeID) }

// localID returns the local index of global vertex v, or -1.
func (r *RRGraph) localID(v graph.VertexID) int32 {
	i := sort.Search(len(r.verts), func(i int) bool { return r.verts[i] >= v })
	if i < len(r.verts) && r.verts[i] == v {
		return int32(i)
	}
	return -1
}

// Contains reports whether v is a member of the RR-Graph.
func (r *RRGraph) Contains(v graph.VertexID) bool { return r.localID(v) >= 0 }

// sharesStorage reports whether the two views alias the same arena
// segment (the copy-on-write sharing check; every RR-Graph has at least
// its target as a member, so verts is never empty).
func (r *RRGraph) sharesStorage(o *RRGraph) bool {
	return &r.verts[0] == &o.verts[0] && len(r.verts) == len(o.verts)
}

// rrEdge is a surviving edge during generation, before CSR assembly.
type rrEdge struct {
	from, to graph.VertexID
	id       graph.EdgeID
	c        float64
}

// genScratch is the per-worker reusable state of RR-Graph generation:
// the BFS mark and frontier, the member/edge accumulators, and the
// member -> local ID lookup table that replaces the former per-edge
// binary search during CSR assembly (localOf entries are only ever read
// for members of the graph being assembled, so it needs no reset).
type genScratch struct {
	mark    []bool
	localOf []int32
	stack   []graph.VertexID
	members []graph.VertexID
	edges   []rrEdge
	pos     []int32
}

func newGenScratch(numVertices int) *genScratch {
	return &genScratch{
		mark:    make([]bool, numVertices),
		localOf: make([]int32, numVertices),
	}
}

// arenaBuilder accumulates generated RR-Graphs into growing backing
// arrays. Views must not be taken until the builder is done (growth
// reallocates); takeViews slices the finished arrays into one RRGraph
// window per recorded graph.
type arenaBuilder struct {
	targets  []graph.VertexID
	vertN    []int32 // per-graph member counts
	edgeN    []int32 // per-graph edge counts
	verts    []graph.VertexID
	outStart []int32
	outTo    []int32
	edgeID   []graph.EdgeID
	c        []float64
}

// reset empties the builder, keeping its capacity.
func (ab *arenaBuilder) reset() {
	ab.targets = ab.targets[:0]
	ab.vertN = ab.vertN[:0]
	ab.edgeN = ab.edgeN[:0]
	ab.verts = ab.verts[:0]
	ab.outStart = ab.outStart[:0]
	ab.outTo = ab.outTo[:0]
	ab.edgeID = ab.edgeID[:0]
	ab.c = ab.c[:0]
}

// grown returns s extended by n elements; callers overwrite every added
// element.
func grown[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// add assembles the graph staged in sc (members + surviving edges) into
// the builder's arenas: members are sorted, localOf built once per graph,
// and the CSR filled with a counting sort — O(V log V + E) per graph with
// no per-graph allocations.
func (ab *arenaBuilder) add(target graph.VertexID, sc *genScratch) {
	members, edges := sc.members, sc.edges
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	n := len(members)
	for i, v := range members {
		sc.localOf[v] = int32(i)
	}

	ab.targets = append(ab.targets, target)
	ab.vertN = append(ab.vertN, int32(n))
	ab.edgeN = append(ab.edgeN, int32(len(edges)))
	ab.verts = append(ab.verts, members...)

	sb := len(ab.outStart)
	ab.outStart = grown(ab.outStart, n+1)
	start := ab.outStart[sb:]
	for i := range start {
		start[i] = 0
	}
	for i := range edges {
		start[sc.localOf[edges[i].from]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}

	eb := len(ab.outTo)
	m := len(edges)
	ab.outTo = grown(ab.outTo, m)
	ab.edgeID = grown(ab.edgeID, m)
	ab.c = grown(ab.c, m)
	outTo, eid, cs := ab.outTo[eb:], ab.edgeID[eb:], ab.c[eb:]
	if cap(sc.pos) < n {
		sc.pos = make([]int32, n)
	}
	pos := sc.pos[:n]
	for i := range pos {
		pos[i] = 0
	}
	for i := range edges {
		e := &edges[i]
		lf := sc.localOf[e.from]
		p := start[lf] + pos[lf]
		outTo[p] = sc.localOf[e.to]
		eid[p] = e.id
		cs[p] = e.c
		pos[lf]++
	}
}

// takeViews slices the builder's (now final) arrays into one view per
// graph. The views alias the builder's arrays; the builder must not be
// grown afterwards while they are live.
func (ab *arenaBuilder) takeViews() []RRGraph {
	graphs := make([]RRGraph, len(ab.targets))
	vo, so, eo := 0, 0, 0
	for i := range graphs {
		n, m := int(ab.vertN[i]), int(ab.edgeN[i])
		graphs[i] = RRGraph{
			target:   ab.targets[i],
			verts:    ab.verts[vo : vo+n : vo+n],
			outStart: ab.outStart[so : so+n+1 : so+n+1],
			outTo:    ab.outTo[eo : eo+m : eo+m],
			edgeID:   ab.edgeID[eo : eo+m : eo+m],
			c:        ab.c[eo : eo+m : eo+m],
		}
		vo += n
		so += n + 1
		eo += m
	}
	return graphs
}

// mergeArenas concatenates per-worker builders, in order, into one
// contiguous arena and returns the views. A single builder is sliced
// in place (no copy) — the sequential-build and repair fast path.
func mergeArenas(bs ...*arenaBuilder) []RRGraph {
	if len(bs) == 1 {
		return bs[0].takeViews()
	}
	var merged arenaBuilder
	var tg, tv, ts, te int
	for _, b := range bs {
		tg += len(b.targets)
		tv += len(b.verts)
		ts += len(b.outStart)
		te += len(b.outTo)
	}
	merged.targets = make([]graph.VertexID, 0, tg)
	merged.vertN = make([]int32, 0, tg)
	merged.edgeN = make([]int32, 0, tg)
	merged.verts = make([]graph.VertexID, 0, tv)
	merged.outStart = make([]int32, 0, ts)
	merged.outTo = make([]int32, 0, te)
	merged.edgeID = make([]graph.EdgeID, 0, te)
	merged.c = make([]float64, 0, te)
	for _, b := range bs {
		merged.targets = append(merged.targets, b.targets...)
		merged.vertN = append(merged.vertN, b.vertN...)
		merged.edgeN = append(merged.edgeN, b.edgeN...)
		merged.verts = append(merged.verts, b.verts...)
		merged.outStart = append(merged.outStart, b.outStart...)
		merged.outTo = append(merged.outTo, b.outTo...)
		merged.edgeID = append(merged.edgeID, b.edgeID...)
		merged.c = append(merged.c, b.c...)
	}
	return merged.takeViews()
}

// generate samples the RR-Graph of target on g into ab: a reverse BFS
// from target that draws c(e) ~ U[0,1) per probed in-edge and keeps edges
// with c(e) < p(e). Dead edges are discarded — they can never be live
// under any tag set, so storing them would not change any Def. 3
// reachability test. sc carries the worker's reusable scratch (mark must
// be all false on entry; it is reset before return).
func generate(g *graph.Graph, target graph.VertexID, r *rng.Source, sc *genScratch, ab *arenaBuilder) {
	sc.members = sc.members[:0]
	sc.edges = sc.edges[:0]
	sc.stack = append(sc.stack[:0], target)
	sc.mark[target] = true
	sc.members = append(sc.members, target)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		ins := g.InEdges(v)
		nbrs := g.InNeighbors(v)
		for i, e := range ins {
			p := g.EdgeMaxProb(e)
			if p <= 0 {
				continue
			}
			c := r.Float64()
			if c >= p {
				continue // dead under every tag set
			}
			from := nbrs[i]
			sc.edges = append(sc.edges, rrEdge{from: from, to: v, id: e, c: c})
			if !sc.mark[from] {
				sc.mark[from] = true
				sc.members = append(sc.members, from)
				sc.stack = append(sc.stack, from)
			}
		}
	}
	for _, m := range sc.members {
		sc.mark[m] = false
	}
	ab.add(target, sc)
}

// Reaches is the tag-aware reachability test of Def. 3: whether u reaches
// the target through a path whose every edge satisfies p(e|W) ≥ c(e),
// where p(e|W) comes from prober. visited is caller scratch with length at
// least NumVertices(), reset by the caller between uses via the stamp.
func (r *RRGraph) Reaches(u graph.VertexID, prober sampling.EdgeProber, visited []int64, stamp int64) bool {
	lu := r.localID(u)
	if lu < 0 {
		return false
	}
	lt := r.localID(r.target)
	if lu == lt {
		return true
	}
	stack := []int32{lu}
	visited[lu] = stamp
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := r.outStart[v]; i < r.outStart[v+1]; i++ {
			if prober.Prob(r.edgeID[i]) < r.c[i] {
				continue
			}
			t := r.outTo[i]
			if t == lt {
				return true
			}
			if visited[t] != stamp {
				visited[t] = stamp
				stack = append(stack, t)
			}
		}
	}
	return false
}

// memoryFootprint estimates the in-memory bytes of this RR-Graph
// (Table 3 accounting).
func (r *RRGraph) memoryFootprint() int64 {
	return int64(len(r.verts))*4 +
		int64(len(r.outStart))*4 +
		int64(len(r.outTo))*4 +
		int64(len(r.edgeID))*4 +
		int64(len(r.c))*8
}
