package rrindex

import (
	"math"
	"sync"

	"pitex/internal/graph"
	"pitex/internal/rng"
)

// fireTable is the graph-scoped half of DelayMat recovery's lazy
// propagation (see DelayEstimator): what Sec. 5.1's Algo 2 and Lemma 6 need
// to know about a vertex to pick which of its out-edges fire at a visit
// without a coin per edge. Algo 4 cascades run under p(e) = max_z p(e|z),
// which depends on neither the query nor the user, so the table is a pure
// function of the graph: built once per graph generation, immutable after
// publication, shared by every clone's and every shard's estimator. It
// costs 8·|E| bytes.
type fireTable struct {
	maxOut int // the largest out-degree, which sizes a rootTable
	// surv is parallel to the graph's out-CSR (graph.OutRange): for v's
	// out-edges e_0..e_{d-1} it holds the prefix survival products
	// S_i = Π_{j≤i} (1 − p(e_j)), non-increasing in i, with p clamped to
	// [0, 1] — an edge with p(e) ≤ 0 leaves S unchanged and so can never
	// be selected, an edge with p(e) = 1 zeroes it. S_{d−1} is q(v), the
	// probability that a visit of v fires nothing.
	surv []float64
}

// survExhausted is the prefix product below which the ratios S_j/S_i to
// the edges after i are no longer representable: an edge with p(e) = 1
// zeroes the product and some three hundred edges of p(e) = 0.9 underflow
// it. Above it every threshold (1 − y)·S_i, y a 53-bit uniform, is still a
// normal float64.
const survExhausted = 0x1p-900

func newFireTable(g *graph.Graph) *fireTable {
	t := &fireTable{surv: make([]float64, g.NumEdges())}
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.OutRange(graph.VertexID(v))
		prefixSurvival(g, g.OutEdges(graph.VertexID(v)), t.surv[lo:hi])
		t.maxOut = max(t.maxOut, hi-lo)
	}
	return t
}

// silence returns q(v), the probability that a visit of v fires none of
// its out-edges: 1 for a vertex without any.
func (t *fireTable) silence(g *graph.Graph, v graph.VertexID) float64 {
	if lo, hi := g.OutRange(v); hi > lo {
		return t.surv[hi-1]
	}
	return 1
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
// selects the last edge with p(e) > 0. Over a rootTable's products of
// 1 − δ it picks a deep attempt's first activated-and-firing head.
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

// nextHit returns the first item after item i (i = −1: before the first)
// that hits, or len(s) when none does, the items hitting independently
// with probabilities p and s holding their prefix miss products
// s[k] = Π_{j≤k} (1 − p[j]): the first k > i with s[k] < (1 − y)·s[i]. Like
// nextFired, it tosses a coin per item once the product is spent.
func nextHit(s, p []float64, i int, r *rng.Source) int {
	si := 1.0
	if i >= 0 {
		si = s[i]
	}
	if si >= survExhausted {
		return firstBelow(s, i+1, (1-r.Float64())*si)
	}
	for i++; i < len(s); i++ {
		if p[i] > 0 && r.Float64() < p[i] {
			break
		}
	}
	return i
}

// invLogOf returns 1/ln miss, the cached half of a Geometric(1 − miss)
// inversion (rng.GeometricInvLog): −Inf for an event that never happens
// (miss ≥ 1) and −0 for one that happens at every trial (miss ≤ 0), set
// explicitly, never through Log(0).
func invLogOf(miss float64) float64 {
	switch {
	case miss >= 1:
		return math.Inf(-1)
	case miss <= 0:
		return math.Copysign(0, -1)
	}
	return 1 / math.Log(miss)
}

// rootTable is the recovery-scoped half of lazy propagation: the query
// user u's out-edges grouped by head — parallel edges are independent
// channels to one head — and per head c the laws of a cascade's first
// step (see DelayEstimator):
//
//	α_c = 1 − Π_{e: u→c} (1 − p(e)), that u activates c;
//	δ_c = α_c·(1 − q(c)), that u activates c and c fires;
//	π_c = α_c·q(c)/(1 − δ_c), that u activates c given that c is not
//	      activated-and-firing (0 where δ_c = 1).
//
// An attempt is shallow when no head is activated-and-firing, with
// probability Q = Π_c (1 − δ_c), and deep otherwise. The table is a pure
// function of (graph, u, shard), costs O(deg u), and is written by the
// recovery's caller before any helper starts.
type rootTable struct {
	heads []graph.VertexID // u's out-neighbours, each once, in out-list order of first appearance
	start []int32          // head k's edges are edges[start[k]:start[k+1]]
	edges []graph.EdgeID   // u's out-edges grouped by head
	surv  []float64        // per head, the prefix survival products of its edges
	alpha []float64
	pi    []float64
	// deep, act and silent are the prefix products of 1 − δ, 1 − α and
	// 1 − π over the heads; deep's last entry is Q.
	deep, act, silent []float64
	// weight is cumulative: weight[0] = 1[u ∈ pool] and weight[k+1] =
	// weight[k] + π_c·1[c ∈ pool] for head k = c, the weights of an
	// accepted shallow attempt's graphs {u} and u→c.
	weight []float64
	// invLogDeep and invLogShallow cache the gaps' inversions: deep
	// attempts arrive at Geometric(1 − Q) gaps, accepted shallow ones at
	// Geometric(weight[last]/|pool|) gaps among the shallow ones.
	invLogDeep, invLogShallow float64

	// ints and floats back the slices above. Sized for the graph's
	// largest out-degree by the first recovery, they never grow after.
	ints   []int32
	floats []float64
}

// buildRoot writes j.root for j.u, using sc's marks — clear on entry and
// on return — and its localOf as scratch.
func (j *recoveryJob) buildRoot(sc *genScratch) {
	g, t, rt := j.g, j.table, &j.root
	nbrs, edges := g.OutNeighbors(j.u), g.OutEdges(j.u)
	d := len(edges)
	if len(rt.ints) < 3*d+1 {
		m := max(t.maxOut, d)
		rt.ints, rt.floats = make([]int32, 3*m+1), make([]float64, 7*m+1)
	}
	n := 0
	for _, c := range nbrs {
		if !sc.mark[c] {
			sc.mark[c] = true
			sc.localOf[c] = int32(n)
			rt.ints[n] = c
			n++
		}
	}
	rt.heads, rt.start, rt.edges = rt.ints[:n], rt.ints[n:2*n+1], rt.ints[2*n+1:2*n+1+d]
	// Group the edges by head with a counting sort: start[k+1] counts head
	// k's edges, then start[k] is the first slot of head k, a cursor while
	// the edges are placed, and shifted back one head after.
	clear(rt.start)
	for _, c := range nbrs {
		sc.mark[c] = false
		rt.start[sc.localOf[c]+1]++
	}
	for k := range n {
		rt.start[k+1] += rt.start[k]
	}
	for i, c := range nbrs {
		k := sc.localOf[c]
		rt.edges[rt.start[k]] = edges[i]
		rt.start[k]++
	}
	copy(rt.start[1:], rt.start[:n])
	rt.start[0] = 0

	f := rt.floats
	carve := func(k int) []float64 {
		s := f[:k]
		f = f[k:]
		return s
	}
	rt.surv, rt.alpha, rt.pi = carve(d), carve(n), carve(n)
	rt.deep, rt.act, rt.silent, rt.weight = carve(n), carve(n), carve(n), carve(n+1)
	w := 0.0
	if j.ownsUser {
		w = 1
	}
	rt.weight[0] = w
	deep, act, silent := 1.0, 1.0, 1.0
	for k, c := range rt.heads {
		lo, hi := rt.start[k], rt.start[k+1]
		prefixSurvival(g, rt.edges[lo:hi], rt.surv[lo:hi])
		alpha := 1 - rt.surv[hi-1]
		q := t.silence(g, c)
		delta := alpha * (1 - q)
		pi := 0.0
		if delta < 1 {
			pi = alpha * q / (1 - delta)
		}
		deep, act, silent = deep*(1-delta), act*(1-alpha), silent*(1-pi)
		rt.alpha[k], rt.pi[k] = alpha, pi
		rt.deep[k], rt.act[k], rt.silent[k] = deep, act, silent
		if ShardOf(c, j.numShards) == j.shardID {
			w += pi
		}
		rt.weight[k+1] = w
	}
	rt.invLogDeep = invLogOf(deep)
	rt.invLogShallow = invLogOf(1 - w/float64(j.poolSize))
}
