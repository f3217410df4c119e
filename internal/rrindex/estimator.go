package rrindex

import (
	"sync"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
)

// This file is the one estimator core. The paper has three index-side
// estimation algorithms and each is one scan policy — how a shard turns
// a query user's RR-Graphs into hit counts:
//
//   - Estimator (index.go): plain hit-test of every posted graph, Algo 3;
//   - PrunedEstimator (cuts.go): the cut filter in front of it, Sec. 6.2;
//   - DelayEstimator (delay.go): recover the graphs first, Algo 4.
//
// Whatever the policy, a scan produces Partial rows and nothing else, and
// gather (partial.go) is the only code that turns rows into an influence.
// ShardedEstimator runs one policy per shard and folds the rows; a shard
// server runs the same policy and ships the rows (Partial,
// PartialFrontier) for the coordinator to fold with the same function —
// so the in-process and the distributed estimate differ only in where the
// scan ran.

// scanPolicy is one shard's scan. Both scans take the shard's slot in
// the layout (its id and |V_s|) and stamp it, with θ_s, on every row.
type scanPolicy interface {
	// postings returns θ_s(u), the number of graphs a scan of u visits at
	// most — the work estimate behind the fan-out decision.
	postings(u graph.VertexID) int
	// scanProber scans u's graphs under an arbitrary prober.
	scanProber(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial
	// scanFrontier decides every sibling of one frontier chunk (at most
	// maxFrontierWidth posteriors) in a single masked pass, stopping each
	// against its θ_s/totalUsers share of the rule's threshold, and writes
	// sibling w's row to rows[w*stride].
	scanFrontier(shard, users, totalUsers int, u graph.VertexID, chunk [][]float64, stop sampling.StopRule, rows []Partial, stride int)
	// WorkStats reports the policy's cumulative work counters.
	WorkStats() sampling.WorkStats
}

// scanFrontierChunks runs p's masked scan over a frontier of any width,
// one membership word's worth of siblings at a time — the only place a
// frontier is chunked. Sibling i's row lands in rows[i*stride].
func scanFrontierChunks(p scanPolicy, shard, users, totalUsers int, u graph.VertexID, posteriors [][]float64, stop sampling.StopRule, rows []Partial, stride int) {
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		p.scanFrontier(shard, users, totalUsers, u, chunk, stop, rows[off*stride:], stride)
	}
}

// scanState is the per-goroutine scratch and the work counters every
// policy carries: the query-scoped probe cache and DFS scratch of the
// per-prober scan, the frontier-scoped probe cache and membership-word
// scratch of the masked scan, and the EXPLAIN tallies.
type scanState struct {
	g       *graph.Graph
	probe   *sampling.ProbeCache
	visited []int64
	dfs     []int32
	stamp   int64

	fc  *sampling.FrontierProbeCache // built on the first frontier scan
	fsc frontierScratch

	// graphsChecked counts (graph, sibling) reachability verdicts — the
	// work the cut filter reduces; graphsPruned what that filter skipped;
	// earlyStops and graphsSkipped the sequential-stopping savings.
	graphsChecked, graphsPruned, earlyStops, graphsSkipped int64
}

func newScanState(g *graph.Graph) scanState {
	return scanState{g: g, probe: sampling.NewProbeCache(g.NumEdges())}
}

// beginProber opens a per-prober scan over graphs of at most maxSize
// vertices. The prober is wrapped in the query-scoped ProbeCache so
// p(e|W) is computed once per distinct edge, not once per (edge,
// RR-Graph) visit; each shard's policy keeps its own, so a parallel
// scatter shares nothing.
func (st *scanState) beginProber(prober sampling.EdgeProber, maxSize int) sampling.EdgeProber {
	if len(st.visited) < maxSize {
		st.visited = make([]int64, maxSize)
		st.stamp = 0
	}
	return st.probe.Begin(prober)
}

// reaches is the Def. 3 test of one graph inside a per-prober scan.
func (st *scanState) reaches(rr *RRGraph, u graph.VertexID, prober sampling.EdgeProber) bool {
	st.stamp++
	st.graphsChecked++
	var ok bool
	ok, st.dfs = rr.reaches(u, prober, st.visited, st.stamp, st.dfs)
	return ok
}

// beginFrontier opens a masked scan of one chunk: the probability rows
// are computed once per distinct edge for all its siblings.
func (st *scanState) beginFrontier(chunk [][]float64, maxSize int) {
	if st.fc == nil {
		st.fc = sampling.NewFrontierProbeCache(st.g.NumEdges())
	}
	st.fc.Begin(st.g, chunk)
	st.fsc.ensure(len(chunk), maxSize)
}

// WorkStats snapshots the counters in the one shape the engine diffs
// before and after a query, whichever strategy is running.
func (st *scanState) WorkStats() sampling.WorkStats {
	hits, misses := st.probe.Stats()
	fhits, fmisses := st.fc.Stats()
	hits, misses = hits+fhits, misses+fmisses
	return sampling.WorkStats{
		ProbesEvaluated:  hits + misses,
		ProbeCacheHits:   hits,
		ProbeCacheMisses: misses,
		GraphsChecked:    st.graphsChecked,
		GraphsPruned:     st.graphsPruned,
		EarlyStops:       st.earlyStops,
		GraphsSkipped:    st.graphsSkipped,
	}
}

// graphSet is what the plain hit-test walks for one user: the graphs
// graphs[postings[i]], none larger than maxSize vertices, out of theta
// samples. An Index hands out a window of its arenas; DelayMat recovery
// builds one per query user.
type graphSet struct {
	graphs   []RRGraph
	postings []int32
	maxSize  int
	theta    int64
}

// plainProber is the per-prober scan of IndexEst and DelayMat: count the
// graphs of gs in which u reaches the target.
func (st *scanState) plainProber(gs graphSet, shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	prober = st.beginProber(prober, gs.maxSize)
	var hits int64
	for _, gi := range gs.postings {
		if st.reaches(&gs.graphs[gi], u, prober) {
			hits++
		}
	}
	n := len(gs.postings)
	return Partial{Shard: shard, Hits: hits, Samples: int64(n), Contained: n, Theta: gs.theta, Users: users}
}

// scatterParallelMinWork is the per-estimation work (RR-Graphs containing
// the query user, summed over shards) above which the scatter fans out to
// one goroutine per shard. Below it, goroutine hand-off costs more than
// the DFS checks it would parallelize.
const scatterParallelMinWork = 96

// ShardedEstimator is the index-backed estimator of every strategy: one
// scan policy per shard, each with its own probe caches and scratch, and
// one fold over their rows. A single shard is the general path with S=1,
// byte-identical to the paper's monolithic estimate because gather of one
// row is max(1, hits/θ·|V|). Not safe for concurrent use; the scatter
// itself parallelizes internally across shards.
type ShardedEstimator struct {
	g      *graph.Graph
	shards []scanPolicy
	users  []int // |V_s|
	// rows is the scatter's landing area, sibling-major: shard s's row for
	// sibling i is rows[i*S+s], so one sibling's rows are the contiguous,
	// shard-ordered slice gather folds.
	rows []Partial
	wg   sync.WaitGroup
}

// NewShardedEstimator creates the IndexEst (Algo 3) estimator over si.
func NewShardedEstimator(si *ShardedIndex) *ShardedEstimator {
	se := newShardedEstimator(si.g, si.numShards)
	for s, sh := range si.shards {
		se.shards[s] = NewEstimator(sh)
		se.users[s] = poolSizeOf(si.pools[s], si.g.NumVertices())
	}
	return se
}

// NewShardedPrunedEstimator creates the IndexEst+ (filter-and-verify)
// estimator over si.
func NewShardedPrunedEstimator(si *ShardedIndex) *ShardedEstimator {
	se := newShardedEstimator(si.g, si.numShards)
	for s, sh := range si.shards {
		se.shards[s] = NewPrunedEstimator(sh)
		se.users[s] = poolSizeOf(si.pools[s], si.g.NumVertices())
	}
	return se
}

// NewShardedDelayEstimator creates the DelayMat (Algo 4) estimator over
// sdm. r is consumed at construction only: one base seed per shard, in
// shard order. Every recovery then runs on rng.Mix(base, shard, user), so
// estimators built from equal r recover identical graphs for a user
// whatever else they recovered before, and shard recoveries can run in
// parallel.
func NewShardedDelayEstimator(sdm *ShardedDelayMat, r *rng.Source) *ShardedEstimator {
	se := newShardedEstimator(sdm.g, sdm.numShards)
	copy(se.users, sdm.poolSizes)
	for s, sh := range sdm.shards {
		se.shards[s] = newDelayEstimatorShard(sh, r.Uint64(), &sdm.fire, s, sdm.numShards, sdm.poolSizes[s])
	}
	return se
}

func newShardedEstimator(g *graph.Graph, numShards int) *ShardedEstimator {
	return &ShardedEstimator{
		g:      g,
		shards: make([]scanPolicy, numShards),
		users:  make([]int, numShards),
	}
}

// scatter runs one estimation's scan on every shard — under prober when
// it is non-nil, over the posteriors frontier otherwise — leaving the
// rows in se.rows. Shards run in parallel when the work justifies the
// fan-out. A prober that is itself a mutable cache (*sampling.ProbeCache)
// forces the sequential path: each policy wraps the prober in its own
// cache, but ProbeCache.Begin returns an already-cached prober unchanged,
// which parallel shard workers would then share. Nothing is allocated on
// the sequential path, nor with a single shard on either.
func (se *ShardedEstimator) scatter(width int, u graph.VertexID, prober sampling.EdgeProber, posteriors [][]float64, stop sampling.StopRule) {
	S := len(se.shards)
	if cap(se.rows) < width*S {
		se.rows = make([]Partial, width*S)
	}
	se.rows = se.rows[:width*S]
	work := 0
	for _, p := range se.shards {
		work += p.postings(u)
	}
	if _, mutable := prober.(*sampling.ProbeCache); mutable || work < scatterParallelMinWork {
		for s := range se.shards {
			se.scanShard(s, u, prober, posteriors, stop)
		}
		return
	}
	for s := 1; s < S; s++ {
		se.wg.Add(1)
		go func(s int) {
			defer se.wg.Done()
			se.scanShard(s, u, prober, posteriors, stop)
		}(s)
	}
	se.scanShard(0, u, prober, posteriors, stop)
	se.wg.Wait()
}

// scanShard is one shard's share of a scatter.
func (se *ShardedEstimator) scanShard(s int, u graph.VertexID, prober sampling.EdgeProber, posteriors [][]float64, stop sampling.StopRule) {
	if prober != nil {
		se.rows[s] = se.shards[s].scanProber(s, se.users[s], u, prober)
		return
	}
	scanFrontierChunks(se.shards[s], s, se.users[s], se.g.NumVertices(), u, posteriors, stop, se.rows[s:], len(se.shards))
}

// EstimateProber estimates E[I(u|·)] under an arbitrary edge-probability
// source (bound probers need this form): the unbiased Σ_s
// (hits_s/θ_s)·|V_s| over the RR-Graphs containing u — graphs not
// containing u can never witness u's influence.
func (se *ShardedEstimator) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	se.scatter(1, u, prober, nil, sampling.StopRule{})
	return gather(se.rows, 1)
}

// Estimate is EstimateProber under the Eq. 1 posterior prober.
func (se *ShardedEstimator) Estimate(u graph.VertexID, posterior []float64) sampling.Result {
	return se.EstimateProber(u, sampling.PosteriorProber{G: se.g, Posterior: posterior})
}

// EstimateFrontier estimates E[I(u|W_i)] for every sibling posterior of
// one best-first frontier expansion in a single pass over u's postings
// per shard. Three stacked ideas, each preserved bit-for-bit against
// calling EstimateProber per sibling (frontier_test.go proves it per
// family and shard count):
//
//   - Frontier-scoped probe sharing. Siblings share k-1 tags, so their
//     edge probabilities are highly redundant; a FrontierProbeCache
//     computes each distinct edge's probability row (one p(e|W_i) per
//     sibling) once per frontier instead of once per sibling.
//
//   - Bitset hit-testing. Sibling membership in the tag-aware reach set
//     is packed into one uint64 word per RR-Graph vertex; a single
//     masked worklist pass per RR-Graph then decides reachability for
//     all (≤64) siblings at once, turning the per-sibling DFS walks into
//     word-AND/popcount steps. An edge's live-sibling mask comes from
//     comparing its draw c(e) against the cached probability row, with
//     the row's min/max classifying most edges in two comparisons. Wider
//     frontiers are chunked transparently (scanFrontierChunks).
//
//   - Sequential stopping. Scanning a posting list yields an
//     exchangeable Bernoulli sequence per sibling, so once the Hoeffding
//     upper confidence bound on a sibling's final hit count drops to the
//     caller's relevance threshold (the explorer's current m-th best,
//     in raw-hit units), that sibling's scan stops and the unbiased
//     (h/n)·N extrapolation stands in. With one shard a potential
//     winner by definition keeps its bound above the threshold, is
//     always scanned in full, and returns byte-identical — stopping
//     cannot change the top-m beyond the rule's own δ. With several,
//     each shard stops against its proportional θ_s/|V| share of the
//     threshold; a winner concentrated unevenly across shards can have
//     its below-share shards stop, replacing their exact counts with
//     unbiased extrapolations whose error is bounded by the confidence
//     width at stop time — inside the estimator's (ε,δ) guarantee, but
//     not bitwise (frontier_test.go pins both regimes).
//
// The result slice is the call's only allocation.
func (se *ShardedEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	se.scatter(len(posteriors), u, nil, posteriors, stop)
	S := len(se.shards)
	out := make([]sampling.Result, len(posteriors))
	for i := range out {
		out[i] = gather(se.rows[i*S:(i+1)*S], 1)
	}
	return out
}

// WorkStats sums the shards' cumulative work counters.
func (se *ShardedEstimator) WorkStats() sampling.WorkStats {
	var ws sampling.WorkStats
	for _, p := range se.shards {
		ws.Add(p.WorkStats())
	}
	return ws
}
