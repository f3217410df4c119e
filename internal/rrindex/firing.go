package rrindex

import (
	"math"
	"sync"

	"pitex/internal/graph"
	"pitex/internal/rng"
)

// fireTable is the graph-scoped half of DelayMat recovery's firing
// schedule (see DelayEstimator): what lazy propagation (Sec. 5.1, Algo 2,
// Lemma 6) needs to know about a vertex to skip to the visit at which one
// of its out-edges next fires, and to pick which ones fire then, without
// a coin per edge. Algo 4 cascades run under p(e) = max_z p(e|z), which
// depends on neither the query nor the user, so the table is a pure
// function of the graph: built once per graph generation, immutable after
// publication, shared by every clone's and every shard's estimator.
// It costs 8·|E| + 8·|V| bytes.
type fireTable struct {
	// surv is parallel to the graph's out-CSR (graph.OutRange): for v's
	// out-edges e_0..e_{d-1} it holds the prefix survival products
	// S_i = Π_{j≤i} (1 − p(e_j)), non-increasing in i, with p clamped to
	// [0, 1] — an edge with p(e) ≤ 0 leaves S unchanged and so can never
	// be selected, an edge with p(e) = 1 zeroes it. S_{d−1} is q(v), the
	// probability that a visit of v fires nothing.
	surv []float64
	// invLogQ[v] = 1/ln q(v), the cached half of the Geometric(1 − q(v))
	// inversion: −Inf for a vertex that never fires (no out-edges, or
	// none with p(e) > 0) and −0 for one that fires at every visit (an
	// edge with p(e) = 1) — set explicitly, never through Log(0).
	invLogQ []float64
}

// survExhausted is the prefix product below which the ratios S_j/S_i to
// the edges after i are no longer representable: an edge with p(e) = 1
// zeroes the product and some three hundred edges of p(e) = 0.9 underflow
// it. Above it every threshold (1 − y)·S_i, y a 53-bit uniform, is still a
// normal float64.
const survExhausted = 0x1p-900

func newFireTable(g *graph.Graph) *fireTable {
	n := g.NumVertices()
	t := &fireTable{
		surv:    make([]float64, g.NumEdges()),
		invLogQ: make([]float64, n),
	}
	for v := 0; v < n; v++ {
		lo, hi := g.OutRange(graph.VertexID(v))
		prefixSurvival(g, g.OutEdges(graph.VertexID(v)), t.surv[lo:hi])
		q := 1.0
		if hi > lo {
			q = t.surv[hi-1]
		}
		switch {
		case q >= 1:
			t.invLogQ[v] = math.Inf(-1)
		case q <= 0:
			t.invLogQ[v] = math.Copysign(0, -1)
		default:
			t.invLogQ[v] = 1 / math.Log(q)
		}
	}
	return t
}

// prefixSurvival writes the prefix survival products of edges into dst,
// one per edge: dst[i] = Π_{j≤i} (1 − p(e_j)), p clamped to [0, 1]. Every
// table of products, forward (fireTable) or reverse (inSurvival), and
// every product a repair computes per visit comes from here, so equal
// edge lists give equal floats.
func prefixSurvival(g *graph.Graph, edges []graph.EdgeID, dst []float64) {
	q := 1.0
	for i, e := range edges {
		q *= 1 - min(max(g.EdgeMaxProb(e), 0), 1)
		dst[i] = q
	}
}

// lazyFireTable builds a graph's fireTable on first use. It sits in the
// ShardedDelayMat's delayGen, so the table lives exactly as long as the
// index generation it was built for: a hot-swap publishes a new
// ShardedDelayMat over the new graph and the old table goes with the old
// one. Building
// lazily keeps it out of build, load and Clone — an engine that never
// recovers never pays for it.
type lazyFireTable struct {
	once sync.Once
	t    *fireTable
}

func (l *lazyFireTable) get(g *graph.Graph) *fireTable {
	l.once.Do(func() { l.t = newFireTable(g) })
	return l.t
}

// firstFired picks the first fired edge of a firing visit — one at which
// at least one of surv's edges fires — by inverse CDF, x uniform in [0, 1):
// the first i with S_i < 1 − x·(1 − q). x < 1 puts that threshold above
// q = S_{d−1} exactly; where rounding does not, the next float above q
// selects the last edge with p(e) > 0.
func firstFired(surv []float64, x float64) int {
	q := surv[len(surv)-1]
	t := 1 - x*(1-q)
	if t <= q {
		t = math.Nextafter(q, 1)
	}
	return firstBelow(surv, 0, t)
}

// nextFired returns the next fired edge after fired edge i of a visit
// whose edges' prefix survival products are surv, or len(surv) when no
// later edge fires: the first j > i with S_j < (1 − y)·S_i, y uniform,
// since Pr[no edge of (i, j] fires] = S_j/S_i. Once the product is spent
// (S_i below survExhausted: an edge with p(e) = 1, or hundreds of
// near-certain ones) it no longer orders the edges after i — nor, being
// non-increasing, any later one — so those get a coin each.
func nextFired(g *graph.Graph, edges []graph.EdgeID, surv []float64, i int, r *rng.Source) int {
	if surv[i] >= survExhausted {
		return firstBelow(surv, i+1, (1-r.Float64())*surv[i])
	}
	for i++; i < len(surv); i++ {
		if p := g.EdgeMaxProb(edges[i]); p > 0 && r.Float64() < p {
			break
		}
	}
	return i
}

// firstBelow returns the smallest j ≥ from with s[j] < t, or len(s); s is
// non-increasing.
func firstBelow(s []float64, from int, t float64) int {
	lo, hi := from, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
