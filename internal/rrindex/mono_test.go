package rrindex

import (
	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// mono is the tests' independent monolithic reference: the paper's
// max(1, hits/θ·|V|) restated over one policy's rows as the only shard of
// g — it never calls gather, so comparing a ShardedEstimator against it
// checks the fold as well as the scan.
type mono struct {
	p scanPolicy
	g *graph.Graph
}

func (m mono) result(p Partial) sampling.Result {
	hits := float64(p.Hits)
	if p.Stopped {
		hits = p.EstHits
	}
	inf := hits / float64(p.Theta) * float64(m.g.NumVertices())
	if inf < 1 {
		inf = 1
	}
	return sampling.Result{Influence: inf, Samples: p.Samples, Theta: p.Theta, Reachable: p.Contained}
}

func (m mono) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	return m.result(m.p.scanProber(0, m.g.NumVertices(), u, prober))
}

func (m mono) Estimate(u graph.VertexID, posterior []float64) sampling.Result {
	return m.EstimateProber(u, sampling.PosteriorProber{G: m.g, Posterior: posterior})
}

func (m mono) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	n := m.g.NumVertices()
	rows := make([]Partial, len(posteriors))
	scanFrontierChunks(m.p, 0, n, n, u, posteriors, stop, rows, 1)
	out := make([]sampling.Result, len(rows))
	for i, p := range rows {
		out[i] = m.result(p)
	}
	return out
}
