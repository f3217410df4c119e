// Package tim implements the tree-based influence estimator the paper
// compares against (Sec. 7.1, "Tim", after the online topic-aware IM work
// of Chen et al., reference [6]). It approximates E[I(u|W)] by the maximum
// influence arborescence (MIA) heuristic: the probability of activating v
// is approximated by the probability of the single most likely propagation
// path from u to v, and paths below a pruning threshold are discarded.
//
// The estimator is fast — one Dijkstra-like search per tag set — but has no
// approximation guarantee: it ignores all but one path to each vertex, so
// it systematically underestimates influence on graphs with path diversity
// (the behaviour Fig. 8 shows as Tim's lower influence spreads).
package tim

import (
	"container/heap"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// DefaultTheta is the standard MIA path-probability pruning threshold.
const DefaultTheta = 1.0 / 320

// Estimator approximates influence spreads with maximum-influence paths.
// It is stateful (scratch buffers) and not safe for concurrent use.
type Estimator struct {
	g     *graph.Graph
	theta float64

	best    []float64 // best path probability per vertex
	stamp   []int64
	call    int64
	visited int64 // cumulative vertices expanded, a cost proxy
}

// New builds a tree-based estimator with pruning threshold theta
// (DefaultTheta if theta <= 0).
func New(g *graph.Graph, theta float64) *Estimator {
	if theta <= 0 {
		theta = DefaultTheta
	}
	return &Estimator{
		g:     g,
		theta: theta,
		best:  make([]float64, g.NumVertices()),
		stamp: make([]int64, g.NumVertices()),
	}
}

// VerticesExpanded returns the cumulative number of vertices expanded, the
// cost counter analogous to the samplers' edge probes (their WorkStats).
func (t *Estimator) VerticesExpanded() int64 { return t.visited }

// pqItem is a max-probability priority-queue entry.
type pqItem struct {
	v    graph.VertexID
	prob float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].prob > q[j].prob }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Estimate returns the MIA approximation of E[I(u|W)] for the topic
// posterior of W: Σ_v maxpath(u→v) over vertices whose best path
// probability is at least the pruning threshold.
func (t *Estimator) Estimate(u graph.VertexID, posterior []float64) float64 {
	return t.estimate(u, sampling.PosteriorProber{G: t.g, Posterior: posterior})
}

// EstimateProber is Estimate for an arbitrary edge-probability source; it
// satisfies the best-first explorer's Estimator contract.
func (t *Estimator) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	return sampling.Result{Influence: t.estimate(u, prober), Samples: 1, Theta: 1}
}

func (t *Estimator) estimate(u graph.VertexID, prober sampling.EdgeProber) float64 {
	g := t.g
	t.call++
	var q pq
	heap.Push(&q, pqItem{v: u, prob: 1})
	t.best[u] = 1
	t.stamp[u] = t.call
	total := 0.0
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if t.stamp[it.v] == -t.call { // already settled
			continue
		}
		if it.prob < t.best[it.v] {
			continue
		}
		t.stamp[it.v] = -t.call
		t.visited++
		total += it.prob
		edges := g.OutEdges(it.v)
		nbrs := g.OutNeighbors(it.v)
		for i, e := range edges {
			p := prober.Prob(e)
			if p <= 0 {
				continue
			}
			np := it.prob * p
			if np < t.theta {
				continue
			}
			nb := nbrs[i]
			settled := t.stamp[nb] == -t.call
			fresh := t.stamp[nb] != t.call && !settled
			if settled {
				continue
			}
			if fresh || np > t.best[nb] {
				t.best[nb] = np
				t.stamp[nb] = t.call
				heap.Push(&q, pqItem{v: nb, prob: np})
			}
		}
	}
	return total
}
