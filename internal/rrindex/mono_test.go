package rrindex

import (
	"slices"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// refRow is the tests' reference for policy p's row of u under prober:
// Def. 3 decided graph by graph by RRGraph.Reaches over every graph of the
// store p scans — all θ_s of an index, one-vertex graphs rebuilt from the
// sequence by view, not the postings and counts the masked scan under
// test reads. Samples is every graph containing u for the plain scans;
// for IndexEst+ it restates the cut filter — the graphs whose target is u
// plus every position some cut entry admits (p(e) > 0, c ≤ p(e)).
func refRow(p scanPolicy, shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	var gs graphSet
	switch p := p.(type) {
	case *Estimator:
		gs = p.idx.graphSet(u)
	case *PrunedEstimator:
		gs = p.idx.graphSet(u)
	case *DelayEstimator:
		gs = p.graphsOf(u)
	}
	row := Partial{Shard: shard, Theta: gs.theta, Users: users}
	visited := make([]int64, gs.maxSize+1)
	direct := 0
	for gi := 0; gi < gs.graphs.size(); gi++ {
		rr := gs.graphs.view(gi)
		if !rr.Contains(u) {
			continue
		}
		row.Contained++
		if rr.target == u {
			direct++
		}
		if rr.Reaches(u, prober, visited, int64(gi)+1) {
			row.Hits++
		}
	}
	row.Samples = int64(row.Contained)
	if pe, ok := p.(*PrunedEstimator); ok {
		uc := pe.cutsFor(u)
		admitted := make(map[int32]bool)
		for i, e := range uc.edges {
			for _, ent := range uc.lists[i] {
				if p := prober.Prob(e); p > 0 && ent.c <= p {
					admitted[ent.graphPos] = true
				}
			}
		}
		row.Samples = int64(direct + len(admitted))
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
	return &ShardedIndex{
		g:         idx.g,
		numShards: 1,
		shards:    []*Index{idx},
		pools:     [][]graph.VertexID{nil},
		repaired:  make([]int64, 1),
	}
}

// storeMembers lists every member of every graph of st, the one-vertex
// graphs' targets included.
func storeMembers(st *graphStore) []graph.VertexID { return slices.Concat(st.verts, st.singles) }
