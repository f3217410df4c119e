package sampling

import (
	"math"

	"pitex/internal/graph"
)

// ProbeCache memoizes an EdgeProber per distinct global edge for the
// duration of one estimation scope. Index estimators visit the same edge
// once per RR-Graph it survived in, and online samplers probe it once per
// cascade; within one scope the posterior is fixed, so every probe after
// the first is a redundant Σ_z p(e|z)·p(z|W) evaluation. Begin opens a new
// scope by bumping an epoch counter — invalidation is O(1), no clearing.
//
// A ProbeCache is scratch state, not safe for concurrent use; give each
// estimator (or explorer) its own. The O(numEdges) arrays are allocated
// on first use, so an idle owner (an engine clone whose Audience path is
// never hit, an estimator that never runs) costs three words, not
// 16 bytes per edge.
type ProbeCache struct {
	numEdges int
	inner    EdgeProber
	vals     []float64
	seen     []int64
	epoch    int64
	// hits/misses are plain counters — the cache is goroutine-local
	// scratch, so atomics would only add cost. They feed EXPLAIN output.
	hits   int64
	misses int64
}

// NewProbeCache returns a cache for a graph with numEdges edges.
func NewProbeCache(numEdges int) *ProbeCache {
	return &ProbeCache{numEdges: numEdges}
}

// Begin opens a new scope over inner and returns the caching prober.
// Passing a prober that is already a ProbeCache returns it unchanged, so
// layers that each own a cache (explorer and estimator) compose without
// stacking lookups.
func (pc *ProbeCache) Begin(inner EdgeProber) EdgeProber {
	if cached, ok := inner.(*ProbeCache); ok {
		return cached
	}
	if pc.vals == nil {
		pc.vals = make([]float64, pc.numEdges)
		pc.seen = make([]int64, pc.numEdges)
	}
	pc.inner = inner
	pc.epoch++
	return pc
}

// Prob implements EdgeProber, computing p(e|W) at most once per edge per
// scope.
func (pc *ProbeCache) Prob(e graph.EdgeID) float64 {
	if pc.seen[e] == pc.epoch {
		pc.hits++
		return pc.vals[e]
	}
	pc.misses++
	v := pc.inner.Prob(e)
	pc.seen[e] = pc.epoch
	pc.vals[e] = v
	return v
}

// Stats reports lifetime cache hits and misses (misses equal distinct
// edges probed across all scopes).
func (pc *ProbeCache) Stats() (hits, misses int64) {
	if pc == nil {
		return 0, 0
	}
	return pc.hits, pc.misses
}

// StopRule is the last argument of a frontier-batched estimation
// (bestfirst.FrontierEstimator). It carries nothing: every index estimate
// is the full count over θ, never stopped early. Callers pass the zero
// value and estimators ignore it; the parameter stays only because the
// benchmark harness in bench/ implements and calls that signature.
type StopRule struct{}

// FrontierProbeCache memoizes p(e|W) rows across the sibling candidate
// sets of one frontier expansion. The best-first explorer expands a
// partial set into up to |Ω| children that share k-1 tags; estimating
// them as one batch visits each distinct edge many times — once per
// RR-Graph per sibling — but the probability row (one p(e|W_i) per
// sibling) is fixed for the whole batch. Begin opens a frontier scope
// over the sibling posteriors; Row computes each distinct edge's row at
// most once per scope, together with its min/max, which lets hit tests
// classify most (edge, draw) pairs with two comparisons instead of a
// per-sibling scan.
//
// Like ProbeCache, a FrontierProbeCache is goroutine-local scratch:
// give each estimator its own. Row storage is recycled across scopes.
type FrontierProbeCache struct {
	numEdges   int
	g          EdgeProbGraph
	posteriors [][]float64
	width      int

	seen  []int64
	slot  []int32
	epoch int64
	rows  []float64 // used·width values, row-major
	lo    []float64 // per-used-row min
	hi    []float64 // per-used-row max
	used  int

	hits, misses int64
}

// EdgeProbGraph is the slice of graph.Graph the frontier cache needs:
// the Eq. 1 posterior evaluation for one edge. Declared as an interface
// to keep the dependency direction (graph does not import sampling).
type EdgeProbGraph interface {
	EdgeProb(e graph.EdgeID, posterior []float64) float64
	NumEdges() int
}

// NewFrontierProbeCache returns a cache for a graph with numEdges edges.
// The O(numEdges) bookkeeping is allocated on first Begin.
func NewFrontierProbeCache(numEdges int) *FrontierProbeCache {
	return &FrontierProbeCache{numEdges: numEdges}
}

// Begin opens a new frontier scope: rows computed afterwards hold one
// p(e|posteriors[i]) per sibling i. Invalidation is O(1) via the epoch.
func (fc *FrontierProbeCache) Begin(g EdgeProbGraph, posteriors [][]float64) {
	if fc.seen == nil {
		fc.seen = make([]int64, fc.numEdges)
		fc.slot = make([]int32, fc.numEdges)
	}
	fc.g = g
	fc.posteriors = posteriors
	fc.width = len(posteriors)
	fc.epoch++
	fc.used = 0
	fc.rows = fc.rows[:0]
}

// Width returns the sibling count of the current scope.
func (fc *FrontierProbeCache) Width() int { return fc.width }

// Row returns the probability row of edge e for the current scope —
// row[i] = p(e|posteriors[i]) — plus its min and max, computing it at
// most once per scope. The returned slice aliases cache storage and is
// valid until the next Begin.
func (fc *FrontierProbeCache) Row(e graph.EdgeID) (row []float64, lo, hi float64) {
	if fc.seen[e] == fc.epoch {
		s := int(fc.slot[e])
		fc.hits += int64(fc.width)
		return fc.rows[s*fc.width : (s+1)*fc.width], fc.lo[s], fc.hi[s]
	}
	fc.misses += int64(fc.width)
	s := fc.used
	fc.used++
	off := len(fc.rows)
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, post := range fc.posteriors {
		v := fc.g.EdgeProb(e, post)
		fc.rows = append(fc.rows, v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(fc.lo) <= s {
		fc.lo = append(fc.lo, lo)
		fc.hi = append(fc.hi, hi)
	} else {
		fc.lo[s], fc.hi[s] = lo, hi
	}
	fc.seen[e] = fc.epoch
	fc.slot[e] = int32(s)
	return fc.rows[off : off+fc.width], lo, hi
}

// Stats reports lifetime row-probe hits and misses, in per-sibling probe
// units (one row request for a batch of width B counts as B probes), so
// the numbers compose with ProbeCache.Stats in EXPLAIN output.
func (fc *FrontierProbeCache) Stats() (hits, misses int64) {
	if fc == nil {
		return 0, 0
	}
	return fc.hits, fc.misses
}
