package sampling

import (
	"pitex/internal/graph"
	"pitex/internal/rng"
)

// Lazy is the lazy propagation sampler of Sec. 5.1 (Algo 2). Instead of
// tossing a coin on every out-edge of every visited vertex in every sample
// instance, each vertex keeps a min-heap of its out-neighbours keyed by the
// visit number at which the edge next fires; the keys are geometric random
// variables with parameter p(e|W). By Lemma 6 the sequence of firings is
// statistically identical to per-instance Bernoulli coins, but an edge with
// probability p is only probed about p·θ_W times instead of θ_W times.
type Lazy struct {
	core

	// Per-vertex lazy state, re-initialized on a vertex's first visit
	// of each call (initStamp against core.call).
	counter   []int64
	heaps     [][]lazyEntry
	initStamp []int64
}

// lazyEntry schedules the next firing of one out-edge: when the owning
// vertex's visit counter reaches due, the edge fires and a new geometric
// gap is drawn.
type lazyEntry struct {
	due  int64
	to   graph.VertexID
	prob float64
}

// NewLazy builds a lazy propagation estimator over g. Its cost counter
// counts heap firings plus one initial geometric draw per live out-edge
// of each vertex a call discovers, matching the paper's accounting in
// which initialization touches each neighbour once.
func NewLazy(g *graph.Graph, opts Options, r *rng.Source) *Lazy {
	n := g.NumVertices()
	lz := &Lazy{
		counter:   make([]int64, n),
		heaps:     make([][]lazyEntry, n),
		initStamp: make([]int64, n),
	}
	lz.core = newCore(g, opts, r, lz, false)
	return lz
}

func (lz *Lazy) draw(u graph.VertexID, _ []graph.VertexID, prober EdgeProber) int64 {
	lz.push(u)
	var n int64
	for len(lz.stack) > 0 {
		n++
		lz.visit(lz.pop(), prober)
	}
	return n
}

// visit processes one visit of v inside the current sample instance:
// lazily initializes v's schedule, advances its counter, and fires every
// edge whose due time has arrived.
func (lz *Lazy) visit(v graph.VertexID, prober EdgeProber) {
	g := lz.g
	if lz.initStamp[v] != lz.call {
		lz.initStamp[v] = lz.call
		lz.counter[v] = 0
		h := lz.heaps[v][:0]
		edges := g.OutEdges(v)
		nbrs := g.OutNeighbors(v)
		for i, e := range edges {
			p := prober.Prob(e)
			if p <= 0 {
				continue
			}
			lz.edgeVisits++
			x := lz.rng.Geometric(p)
			if x >= rng.Never {
				continue // effectively never fires within any finite run
			}
			h = heapPush(h, lazyEntry{due: x, to: nbrs[i], prob: p})
		}
		lz.heaps[v] = h
	}
	lz.counter[v]++
	c := lz.counter[v]
	h := lz.heaps[v]
	for len(h) > 0 && h[0].due == c {
		ent := h[0]
		h = heapPop(h)
		lz.edgeVisits++
		if !lz.seen(ent.to) {
			lz.push(ent.to)
		}
		x := lz.rng.Geometric(ent.prob)
		if x < rng.Never-c { // also guards int64 overflow of c+x
			ent.due = c + x
			h = heapPush(h, ent)
		}
	}
	lz.heaps[v] = h
}

// heapPush inserts ent into the min-heap (keyed by due) and returns it.
func heapPush(h []lazyEntry, ent lazyEntry) []lazyEntry {
	h = append(h, ent)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].due <= h[i].due {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// heapPop removes the minimum element and returns the shrunken heap.
func heapPop(h []lazyEntry) []lazyEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].due < h[smallest].due {
			smallest = l
		}
		if r < n && h[r].due < h[smallest].due {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return h
}
