package sampling

import (
	"pitex/internal/graph"
	"pitex/internal/rng"
)

// MC is the Monte-Carlo forward sampler of Sec. 4: each sample instance is
// a forward BFS from u that keeps edge e with probability p(e|W); the
// estimate is the mean number of vertices reached.
//
// Its weakness (Example 2, Fig. 3a) is that every sample probes every
// out-edge of every reached vertex even when activation probabilities are
// tiny; Lazy removes exactly that cost.
type MC struct{ core }

// NewMC builds an MC estimator over g. Its cost counter counts every
// live out-edge coin tossed.
func NewMC(g *graph.Graph, opts Options, r *rng.Source) *MC {
	mc := &MC{}
	mc.core = newCore(g, opts, r, mc, false)
	return mc
}

func (mc *MC) draw(u graph.VertexID, _ []graph.VertexID, prober EdgeProber) int64 {
	mc.push(u)
	n := int64(1)
	for len(mc.stack) > 0 {
		v := mc.pop()
		nbrs := mc.g.OutNeighbors(v)
		for i, e := range mc.g.OutEdges(v) {
			p := prober.Prob(e)
			if p <= 0 {
				continue
			}
			mc.edgeVisits++
			if mc.rng.Bernoulli(p) && !mc.seen(nbrs[i]) {
				mc.push(nbrs[i])
				n++
			}
		}
	}
	return n
}
