package sampling

import (
	"pitex/internal/graph"
	"pitex/internal/rng"
)

// RR is the reverse-reachable-set sampler of Sec. 4 (after Borgs et al.):
// each sample picks a target v uniformly from R_W(u), grows a reverse BFS
// from v with per-edge coins p(e|W), and tests whether u is reached. The
// estimate is |R_W(u)| times the hit rate.
//
// Its weakness (Example 3, Fig. 3b) is probing every in-edge of
// high-in-degree vertices on every reverse sample.
type RR struct{ core }

// NewRR builds an RR estimator over g. Its cost counter counts every
// live in-edge coin tossed.
func NewRR(g *graph.Graph, opts Options, r *rng.Source) *RR {
	rr := &RR{}
	rr.core = newCore(g, opts, r, rr, true)
	return rr
}

// draw grows a reverse sample from a uniform target of members and
// reports whether it reaches u. The walk stops as soon as u is reached.
func (rr *RR) draw(u graph.VertexID, members []graph.VertexID, prober EdgeProber) int64 {
	target := members[rr.rng.Intn(len(members))]
	if target == u {
		return 1
	}
	rr.push(target)
	for len(rr.stack) > 0 {
		v := rr.pop()
		nbrs := rr.g.InNeighbors(v)
		for i, e := range rr.g.InEdges(v) {
			p := prober.Prob(e)
			if p <= 0 {
				continue
			}
			rr.edgeVisits++
			if !rr.rng.Bernoulli(p) {
				continue
			}
			if t := nbrs[i]; t == u {
				return 1
			} else if !rr.seen(t) {
				rr.push(t)
			}
		}
	}
	return 0
}
