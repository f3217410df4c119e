package rrindex

import (
	"slices"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// refRow is the tests' reference for policy p's row of u under prober:
// Def. 3 decided graph by graph by RRGraph.Reaches over every graph of the
// store p scans — all θ_s of an index, one-vertex graphs and in-stars
// rebuilt from the sequence by view, not the postings, counts and
// thresholds the masked scan under test reads. The plain scans sample
// every graph containing u. IndexEst+ restates filter-then-verify: it
// samples the graphs whose target is u plus every other graph containing
// u some edge of whose cut, chosen from the rebuilt graph by the
// estimator's policy, is admitted (p(e) > 0, c ≤ p(e)), and counts a hit
// only among those.
func refRow(p scanPolicy, shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	var gs graphSet
	pe, pruned := p.(*PrunedEstimator)
	switch p := p.(type) {
	case *Estimator:
		gs = p.idx.graphSet(u)
	case *PrunedEstimator:
		gs = p.idx.graphSet(u)
	case *DelayEstimator:
		gs = p.graphsOf(u)
	}
	row := Partial{Shard: shard, Theta: gs.theta, Users: users}
	var visited []int64
	var sc cutScratch
	for gi := 0; gi < gs.graphs.size(); gi++ {
		rr := gs.graphs.view(gi)
		if !rr.Contains(u) {
			continue
		}
		row.Contained++
		if pruned && rr.target != u {
			cut := sideCut(&rr, rr.localID(u), nil)
			if pe.Policy == CutBestOfTwo {
				cut = chooseCut(pe.idx.g, &rr, u, &sc)
			}
			if !slices.ContainsFunc(cut, func(ce cutEdge) bool {
				p := prober.Prob(ce.edge)
				return p > 0 && ce.c <= p
			}) {
				continue
			}
		}
		row.Samples++
		if len(visited) < rr.NumVertices() {
			visited = make([]int64, rr.NumVertices())
		}
		if rr.Reaches(u, prober, visited, int64(gi)+1) {
			row.Hits++
		}
	}
	return row
}

// refResult restates the paper's estimate over reference rows, one per
// shard in shard order: Σ_s hits_s/θ_s·|V_s|, at least 1. It never calls
// gather, so comparing an estimator against it checks the fold too.
func refResult(rows ...Partial) sampling.Result {
	var r sampling.Result
	for _, p := range rows {
		r.Influence += float64(p.Hits) / float64(p.Theta) * float64(p.Users)
		r.Samples += p.Samples
		r.Theta += p.Theta
		r.Reachable += p.Contained
	}
	if r.Influence < 1 {
		r.Influence = 1
	}
	return r
}

// refSharded is the reference estimate of u under prober over se's own
// shards and layout.
func refSharded(se *ShardedEstimator, u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	rows := make([]Partial, len(se.shards))
	for s, p := range se.shards {
		rows[s] = refRow(p, s, se.users[s], u, prober)
	}
	return refResult(rows...)
}

// mono is the monolithic reference: one policy's reference row as the
// only shard of g, the paper's max(1, hits/θ·|V|).
type mono struct {
	p scanPolicy
	g *graph.Graph
}

func (m mono) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	return refResult(refRow(m.p, 0, m.g.NumVertices(), u, prober))
}

// wrapMonolithic presents a monolithic index as a single-shard
// ShardedIndex, so a test can estimate over it with ShardedEstimator.
func wrapMonolithic(idx *Index) *ShardedIndex {
	return &ShardedIndex{loaded(idx.g, []*Index{idx})}
}

// storeMembers lists every member of every graph of st, a DelayMat
// member store (which keeps no in-stars), the one-vertex graphs' targets
// included.
func storeMembers(st *graphStore) []graph.VertexID { return slices.Concat(st.verts, st.singles) }

// The reference's view of a graph: its sizes, and Def. 3 decided by one
// boolean walk per prober, which the masked scan's reachMask must match
// bit for bit.

// NumVertices returns |V(v)|.
func (r *RRGraph) NumVertices() int { return len(r.verts) }

// NumEdges returns |E(v)|.
func (r *RRGraph) NumEdges() int { return len(r.edgeID) }

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
