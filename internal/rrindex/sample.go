package rrindex

import (
	"errors"
	"runtime"
	"slices"
	"sync"

	"pitex/internal/graph"
	"pitex/internal/rng"
)

// sampler draws offline RR-Graphs (Def. 2) for a build or a repair, for
// an index and a DelayMat alike, without a coin per in-edge. At each
// member v it draws the subset of v's in-edges that fire, by inverse CDF
// over their prefix survival products S_i = Π_{j≤i} (1 − p(e_j)), in
// in-CSR order: the first fired edge is the first i with S_i < 1 − x,
// none when there is none (probability q(v) = S_{d−1}), and each further
// one is nextFired's, x and y uniform. It is the law DelayMat recovery
// draws forward (DelayEstimator, step 1), here not conditioned on a
// firing. A fired edge then draws c(e) ~ U[0, p(e)): a coin per edge
// keeping c(e) ~ U[0, 1) when below p(e) gives a live edge the same law.
// A member of d in-edges, f of them fired, costs O(1 + f·log d), not
// O(d).
//
// A build's samplers read the products from one in-table (inSurvival),
// computed once per build and dropped with it. A repair, which re-samples
// few graphs, computes a visited member's products into prod instead:
// the same multiplications in the same order (prefixSurvival), so the
// same floats and the same graphs. The DelayMat build draws exactly what
// the index build draws, c(e) included, and counts the members.
type sampler struct {
	g *graph.Graph
	// surv is the in-table, parallel to the in-CSR (graph.InRange); nil
	// when each visit computes its products into prod.
	surv []float64
	prod []float64
	// rng is the stream of the position being drawn (position).
	rng rng.Source
	genScratch
}

func newSampler(g *graph.Graph, surv []float64) *sampler {
	return &sampler{g: g, surv: surv, genScratch: *newGenScratch(g.NumVertices())}
}

// inSurvival returns every vertex's in-edge prefix survival products,
// parallel to the in-CSR: 8·|E| bytes.
func inSurvival(g *graph.Graph) []float64 {
	surv := make([]float64, g.NumEdges())
	for v := range graph.VertexID(g.NumVertices()) {
		lo, hi := g.InRange(v)
		prefixSurvival(g, g.InEdges(v), surv[lo:hi])
	}
	return surv
}

// position draws graph gi of a shard whose streams derive from seed: on
// the graph's own stream rng.Mix(seed, gi), its target from pool (nil:
// every vertex), then its graph. It returns the target.
func (s *sampler) position(seed uint64, pool []graph.VertexID, gi int64) graph.VertexID {
	s.rng.Seed(rng.Mix(seed, uint64(gi)))
	target := drawTarget(&s.rng, pool, s.g.NumVertices())
	s.sample(target, &s.rng)
	return target
}

// sample draws the RR-Graph of target on r into members (target first,
// then in the order the reverse traversal reaches them) and edges. mark
// is all false on entry and on return.
func (s *sampler) sample(target graph.VertexID, r *rng.Source) {
	g := s.g
	s.members = append(s.members[:0], target)
	s.edges = s.edges[:0]
	s.stack = append(s.stack[:0], target)
	s.mark[target] = true
	for len(s.stack) > 0 {
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		lo, hi := g.InRange(v)
		if lo == hi {
			continue
		}
		edges, nbrs := g.InEdges(v), g.InNeighbors(v)
		var surv []float64
		if s.surv != nil {
			surv = s.surv[lo:hi]
		} else {
			s.prod = slices.Grow(s.prod[:0], hi-lo)[:hi-lo]
			prefixSurvival(g, edges, s.prod)
			surv = s.prod
		}
		for i := firstBelow(surv, 0, 1-r.Float64()); i < len(surv); i = nextFired(g, edges, surv, i, r) {
			from := nbrs[i]
			s.edges = append(s.edges, rrEdge{from: from, to: v, id: edges[i], c: r.UniformIn(g.EdgeMaxProb(edges[i]))})
			if !s.mark[from] {
				s.mark[from] = true
				s.members = append(s.members, from)
				s.stack = append(s.stack, from)
			}
		}
	}
	for _, m := range s.members {
		s.mark[m] = false
	}
}

// build is what the shards of one build share: the graph's in-table and
// one slot per goroutine that may sample at once, GOMAXPROCS of them.
// Each shard cuts its positions into contiguous ranges, samples them on
// the slots and merges them in position order, and every position draws
// on its own stream, so the bytes of a build do not depend on the number
// of cores.
type build struct {
	g     *graph.Graph
	surv  []float64
	slots chan struct{}
}

func newBuild(g *graph.Graph) *build {
	return &build{g: g, surv: inSurvival(g), slots: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// A shard's positions are cut into up to maxRanges ranges of at least
// minRange positions each: a range costs a store of its own, grown as it
// fills, and a sampler's scratch (5·|V| bytes) while it runs. The cut
// depends on θ alone, so a build's allocations, like its bytes, are the
// same on any machine; 16 ranges keep up to 16 cores busy on one shard.
const (
	minRange  = 4096
	maxRanges = 16
)

// buildRanges returns how many ranges a shard of theta positions is cut into.
func buildRanges(theta int64) int { return int(min(maxRanges, max(1, theta/minRange))) }

// ranges runs f over positions [0, theta) cut into n contiguous ranges,
// range c on its own goroutine once it holds a slot, and returns the
// ranges' errors joined.
func (b *build) ranges(theta int64, n int, f func(c int, lo, hi int64) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.slots <- struct{}{}
			defer func() { <-b.slots }()
			errs[c] = f(c, theta*int64(c)/int64(n), theta*int64(c+1)/int64(n))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// index samples an index of exactly theta RR-Graphs, graph gi on the
// stream rng.Mix(opts.Seed, gi) with its target uniform over pool (nil:
// every vertex of g). It is the shared core of the monolithic Build and
// of per-shard builds, which pass the shard's seed, user partition and
// apportioned θ.
func (b *build) index(opts BuildOptions, pool []graph.VertexID, theta int64) (*Index, error) {
	stores := make([]*graphStore, buildRanges(theta))
	err := b.ranges(theta, len(stores), func(c int, lo, hi int64) error {
		s, st := newSampler(b.g, b.surv), newStore(b.g)
		stores[c] = st
		for gi := lo; gi < hi; gi++ {
			if err := st.add(s.position(opts.Seed, pool, gi), &s.genScratch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	graphs, err := mergeStores(b.g, stores...)
	if err != nil {
		return nil, err
	}
	idx := &Index{g: b.g, theta: theta, graphs: graphs}
	idx.finishPostings()
	return idx, nil
}

// delayMat samples the graphs index would, on the same streams, and
// counts their members.
func (b *build) delayMat(opts BuildOptions, pool []graph.VertexID, theta int64) (*DelayMat, error) {
	dm := &DelayMat{g: b.g, theta: theta, counts: make([]int64, b.g.NumVertices())}
	var mu sync.Mutex
	err := b.ranges(theta, buildRanges(theta), func(_ int, lo, hi int64) error {
		s, counts := newSampler(b.g, b.surv), make([]int64, len(dm.counts))
		for gi := lo; gi < hi; gi++ {
			s.position(opts.Seed, pool, gi)
			for _, m := range s.members {
				counts[m]++
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for v, n := range counts {
			dm.counts[v] += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dm.recomputeFootprint()
	return dm, nil
}
