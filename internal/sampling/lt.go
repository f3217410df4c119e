package sampling

import (
	"pitex/internal/graph"
	"pitex/internal/rng"
)

// LT is a forward sampler for the linear threshold propagation model, the
// footnote-1 extension of the paper ("the approaches proposed in this
// paper can also support other propagation models, such as linear
// threshold"). Tag-aware edge weights are b(e|W) = p(e|W) / max(1, Σ_in
// p(e'|W)) so the LT constraint Σ_in b ≤ 1 always holds; each vertex draws
// a threshold θ_v ~ U[0,1] per sample instance and activates once the
// weight of its active in-neighbours reaches θ_v.
type LT struct {
	core

	// Per-instance lazily drawn state, stamped against core.stamp.
	accum      []float64
	threshold  []float64
	stateStamp []int64

	// Per-call (same W) in-weight normalization, stamped against
	// core.call.
	norm      []float64
	normStamp []int64
}

// NewLT builds a linear-threshold estimator over g. Its cost counter
// counts every live edge into a not-yet-active vertex whose weight is
// added.
func NewLT(g *graph.Graph, opts Options, r *rng.Source) *LT {
	n := g.NumVertices()
	lt := &LT{
		accum:      make([]float64, n),
		threshold:  make([]float64, n),
		stateStamp: make([]int64, n),
		norm:       make([]float64, n),
		normStamp:  make([]int64, n),
	}
	lt.core = newCore(g, opts, r, lt, false)
	return lt
}

// inWeight returns b(e|W) for edge e into head, with the per-head
// normalization cached for the current call.
func (lt *LT) inWeight(e graph.EdgeID, head graph.VertexID, prober EdgeProber) float64 {
	if lt.normStamp[head] != lt.call {
		lt.normStamp[head] = lt.call
		sum := 0.0
		for _, ie := range lt.g.InEdges(head) {
			sum += prober.Prob(ie)
		}
		lt.norm[head] = max(sum, 1)
	}
	return prober.Prob(e) / lt.norm[head]
}

// draw runs one LT cascade from u, level by level, and returns the
// number of activated vertices.
func (lt *LT) draw(u graph.VertexID, _ []graph.VertexID, prober EdgeProber) int64 {
	g := lt.g
	frontier := []graph.VertexID{u}
	lt.visited[u] = lt.stamp
	count := int64(1)
	for len(frontier) > 0 {
		var next []graph.VertexID
		for _, v := range frontier {
			nbrs := g.OutNeighbors(v)
			for i, e := range g.OutEdges(v) {
				t := nbrs[i]
				if lt.seen(t) {
					continue
				}
				b := lt.inWeight(e, t, prober)
				if b <= 0 {
					continue
				}
				lt.edgeVisits++
				if lt.stateStamp[t] != lt.stamp {
					lt.stateStamp[t] = lt.stamp
					lt.accum[t] = 0
					lt.threshold[t] = lt.rng.Float64()
					for lt.threshold[t] == 0 {
						lt.threshold[t] = lt.rng.Float64()
					}
				}
				lt.accum[t] += b
				if lt.accum[t] >= lt.threshold[t] {
					lt.visited[t] = lt.stamp
					count++
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	return count
}

// ReverseLT estimates the LT-model E[I(u|W)] by reverse sampling over the
// model's triggering sets (Kempe et al.; the paper's footnote 1): each
// vertex keeps at most one in-edge, edge e with probability b(e|W), the
// same weights as the forward LT sampler. A sample picks a target
// uniformly from R_W(u), walks back along the kept in-edges, and tests
// whether u is reached; the estimate is |R_W(u)| times the hit rate.
type ReverseLT struct{ core }

// NewReverseLT builds a reverse LT sampler over g. Its cost counter
// counts the kept in-edges the walks traverse.
func NewReverseLT(g *graph.Graph, opts Options, r *rng.Source) *ReverseLT {
	rl := &ReverseLT{}
	rl.core = newCore(g, opts, r, rl, true)
	return rl
}

// draw walks back from a uniform target of members, drawing each
// vertex's kept in-edge on first visit with one uniform draw over the
// cumulative weights (the residual mass keeps none), and reports whether
// the walk reaches u.
func (rl *ReverseLT) draw(u graph.VertexID, members []graph.VertexID, prober EdgeProber) int64 {
	target := members[rl.rng.Intn(len(members))]
	if target == u {
		return 1
	}
	rl.push(target)
	for len(rl.stack) > 0 {
		v := rl.pop()
		edges := rl.g.InEdges(v)
		if len(edges) == 0 {
			continue // nothing to keep, so no draw
		}
		sum := 0.0
		for _, e := range edges {
			sum += prober.Prob(e)
		}
		x := rl.rng.Float64() * max(sum, 1)
		acc := 0.0
		for i, e := range edges {
			if acc += prober.Prob(e); x < acc {
				rl.edgeVisits++
				if t := rl.g.InNeighbors(v)[i]; t == u {
					return 1
				} else if !rl.seen(t) {
					rl.push(t)
				}
				break
			}
		}
	}
	return 0
}
