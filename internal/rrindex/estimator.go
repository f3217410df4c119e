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
// Each policy has one scan, the masked scan of frontier.go, and every
// index estimate runs it: a single-row estimate under an arbitrary prober
// is a width-1 frontier (oneRow). A scan produces Partial rows and
// nothing else, and gather (partial.go) is the only code that turns rows
// into an influence. ShardedEstimator runs one policy per held shard and
// folds the rows; a shard server runs the same ShardedEstimator over the
// shards it owns and ships the rows (Partials) for the coordinator to
// fold with the same function — so the in-process and the distributed
// estimate differ only in where the scan ran.

// scanPolicy is one shard's scan. The scan takes the shard's slot in the
// layout (its id and |V_s|) and stamps it, with θ_s, on every row.
type scanPolicy interface {
	// postings returns θ_s(u), the number of graphs containing u — the
	// work estimate behind the fan-out decision.
	postings(u graph.VertexID) int
	// scanFrontier decides every sibling of one frontier chunk (at most
	// maxFrontierWidth posteriors) in a single masked pass over all of u's
	// graphs and writes sibling w's row to rows[w*stride]. A single-row
	// estimate passes its prober with the chunk oneRow (beginFrontier).
	scanFrontier(shard, users int, u graph.VertexID, prober sampling.EdgeProber, chunk [][]float64, rows []Partial, stride int)
	// WorkStats reports the policy's cumulative work counters.
	WorkStats() sampling.WorkStats
}

// scanFrontierChunks runs p's masked scan over a frontier of any width,
// one membership word's worth of siblings at a time — the only place a
// frontier is chunked. Sibling i's row lands in rows[i*stride].
func scanFrontierChunks(p scanPolicy, shard, users int, u graph.VertexID, prober sampling.EdgeProber, posteriors [][]float64, rows []Partial, stride int) {
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		p.scanFrontier(shard, users, u, prober, chunk, rows[off*stride:], stride)
	}
}

// oneRow is the chunk of every single-row estimate: one sibling, whose
// probability row comes from the estimate's prober through proberRow.
var oneRow = [][]float64{nil}

// proberRow carries an arbitrary prober into the masked scan through the
// FrontierProbeCache's EdgeProbGraph seam: the width-1 scope's one row is
// prober.Prob(e), so a single-row estimate runs the frontier kernel.
type proberRow struct {
	prober sampling.EdgeProber
	g      *graph.Graph
}

func (pr *proberRow) EdgeProb(e graph.EdgeID, _ []float64) float64 { return pr.prober.Prob(e) }
func (pr *proberRow) NumEdges() int                                { return pr.g.NumEdges() }

// scanState is the per-goroutine scratch and the work counters every
// policy carries: the frontier-scoped probe cache and membership-word
// scratch of the masked scan, the single-row prober slot, and the EXPLAIN
// tallies.
type scanState struct {
	g   *graph.Graph
	fc  *sampling.FrontierProbeCache // built on the first scan
	fsc frontierScratch
	one proberRow

	// graphsChecked counts (graph, sibling) reachability verdicts — the
	// work the cut filter reduces; graphsPruned what that filter skipped.
	graphsChecked, graphsPruned int64
}

func newScanState(g *graph.Graph) scanState {
	return scanState{g: g, one: proberRow{g: g}}
}

// beginFrontier opens a masked scan of one chunk: the probability rows
// are computed once per distinct edge for all its siblings — from the
// chunk's posteriors, or, when prober is non-nil and the chunk is oneRow,
// from prober.
func (st *scanState) beginFrontier(prober sampling.EdgeProber, chunk [][]float64, maxSize int) {
	if st.fc == nil {
		st.fc = sampling.NewFrontierProbeCache(st.g.NumEdges())
	}
	var src sampling.EdgeProbGraph = st.g
	if prober != nil {
		st.one.prober = prober
		src = &st.one
	}
	st.fc.Begin(src, chunk)
	st.fsc.ensure(len(chunk), maxSize)
}

// WorkStats snapshots the counters in the one shape the engine diffs
// before and after a query, whichever strategy is running.
func (st *scanState) WorkStats() sampling.WorkStats {
	hits, misses := st.fc.Stats()
	return sampling.WorkStats{
		ProbesEvaluated:  hits + misses,
		ProbeCacheHits:   hits,
		ProbeCacheMisses: misses,
		GraphsChecked:    st.graphsChecked,
		GraphsPruned:     st.graphsPruned,
	}
}

// graphSet is what the plain hit-test walks for one user: the deeper
// graphs postings[i] of a store, none larger than maxSize vertices; the
// user's in-star memberships, entries of the store sorted by (edge, c),
// decided from their thresholds; plus direct graphs of target u —
// one-vertex graphs and in-stars, hits under every tag set, counted,
// never walked — out of theta samples. An Index hands out its own store;
// DelayMat recovery fills one per query user.
type graphSet struct {
	graphs   *graphStore
	postings []int32
	stars    []uint32
	direct   int
	maxSize  int
	theta    int64
}

// scatterParallelMinWork is the per-estimation work (RR-Graphs containing
// the query user, summed over shards) above which the scatter fans out to
// one goroutine per shard. Below it, goroutine hand-off costs more than
// the reachability checks it would parallelize.
const scatterParallelMinWork = 96

// ShardedEstimator is the index-backed estimator of every strategy: one
// scan policy per shard, each with its own probe cache and scratch, and
// one fold over their rows. A single shard is the general path with S=1,
// byte-identical to the paper's monolithic estimate because gather of one
// row is max(1, hits/θ·|V|). Not safe for concurrent use; the scatter
// itself parallelizes internally across shards.
type ShardedEstimator struct {
	g      *graph.Graph
	shards []scanPolicy
	// ids and users are the held shards' layout ids and |V_s|, parallel
	// to shards and shared with the container.
	ids   []int
	users []int
	// rows is the scatter's landing area, sibling-major: shard i's row for
	// sibling w is rows[w*S+i], so one sibling's rows are the contiguous,
	// shard-ordered slice gather folds.
	rows []Partial
	// out is EstimateFrontier's result slice, reused call to call.
	out []sampling.Result
	wg  sync.WaitGroup
}

// NewShardedEstimator creates the IndexEst (Algo 3) estimator over si.
func NewShardedEstimator(si *ShardedIndex) *ShardedEstimator {
	se := newShardedEstimator(&si.shardSet)
	for i, sh := range si.shards {
		se.shards[i] = NewEstimator(sh)
	}
	return se
}

// NewShardedPrunedEstimator creates the IndexEst+ (filter-and-verify)
// estimator over si.
func NewShardedPrunedEstimator(si *ShardedIndex) *ShardedEstimator {
	se := newShardedEstimator(&si.shardSet)
	for i, sh := range si.shards {
		se.shards[i] = NewPrunedEstimator(sh)
	}
	return se
}

// NewShardedDelayEstimator creates the DelayMat (Algo 4) estimator over
// sdm. r is consumed at construction only: one base seed per shard, in
// shard order. Block b of every recovery then runs on rng.Mix(base, shard,
// user, b), so estimators built from equal r recover identical graphs for
// a user whatever else they recovered before and however many goroutines
// ran the blocks, and shard recoveries can run in parallel.
func NewShardedDelayEstimator(sdm *ShardedDelayMat, r *rng.Source) *ShardedEstimator {
	se := newShardedEstimator(&sdm.shardSet)
	for i, sh := range sdm.shards {
		se.shards[i] = newDelayEstimatorShard(sh, r.Uint64(), &sdm.gen, sdm.ids[i], sdm.numShards, sdm.users[i])
	}
	return se
}

func newShardedEstimator[T shardPart](set *shardSet[T]) *ShardedEstimator {
	return &ShardedEstimator{g: set.g, shards: make([]scanPolicy, len(set.ids)), ids: set.ids, users: set.users}
}

// scatter runs one estimation's masked scan on every shard over the
// posteriors frontier — or, when prober is non-nil, over oneRow under
// prober — leaving the rows in se.rows. Shards run in parallel when the
// work justifies the fan-out. A prober that is itself a mutable cache
// (*sampling.ProbeCache) forces the sequential path, since parallel shard
// workers would otherwise share it. Nothing is allocated on the sequential
// path, nor with a single shard on either.
func (se *ShardedEstimator) scatter(u graph.VertexID, prober sampling.EdgeProber, posteriors [][]float64) {
	S, n := len(se.shards), len(posteriors)*len(se.shards)
	if cap(se.rows) < n {
		se.rows = make([]Partial, n)
	}
	se.rows = se.rows[:n]
	work := 0
	for _, p := range se.shards {
		work += p.postings(u)
	}
	if _, mutable := prober.(*sampling.ProbeCache); mutable || work < scatterParallelMinWork {
		for s := range se.shards {
			se.scanShard(s, u, prober, posteriors)
		}
		return
	}
	for s := 1; s < S; s++ {
		se.wg.Add(1)
		go func(s int) {
			defer se.wg.Done()
			se.scanShard(s, u, prober, posteriors)
		}(s)
	}
	se.scanShard(0, u, prober, posteriors)
	se.wg.Wait()
}

// scanShard is the i-th held shard's share of a scatter.
func (se *ShardedEstimator) scanShard(i int, u graph.VertexID, prober sampling.EdgeProber, posteriors [][]float64) {
	scanFrontierChunks(se.shards[i], se.ids[i], se.users[i], u, prober, posteriors, se.rows[i:], len(se.shards))
}

// EstimateProber estimates E[I(u|·)] under an arbitrary edge-probability
// source (bound probers need this form): the unbiased Σ_s
// (hits_s/θ_s)·|V_s| over the RR-Graphs containing u — graphs not
// containing u can never witness u's influence. It is the masked scan of
// a width-1 frontier whose one probability row is prober's.
func (se *ShardedEstimator) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	se.scatter(u, prober, oneRow)
	return gather(se.rows, 1)
}

// Estimate is EstimateProber under the Eq. 1 posterior prober.
func (se *ShardedEstimator) Estimate(u graph.VertexID, posterior []float64) sampling.Result {
	return se.EstimateProber(u, sampling.PosteriorProber{G: se.g, Posterior: posterior})
}

// EstimateFrontier estimates E[I(u|W_i)] for every sibling posterior of
// one best-first frontier expansion in a single pass over u's postings
// per shard. Every index estimate runs this scan — EstimateProber is its
// width-1 case — and frontier_test.go checks each sibling's row, per
// family and shard count, against a graph-by-graph Def. 3 count. Two
// stacked ideas:
//
//   - Frontier-scoped probe sharing. Siblings share k-1 tags, so their
//     edge probabilities are highly redundant; a FrontierProbeCache
//     computes each distinct edge's probability row (one p(e|W_i) per
//     sibling) once per frontier instead of once per sibling.
//
//   - Bitset hit-testing. Sibling membership in the tag-aware reach set
//     is packed into one uint64 word per RR-Graph vertex; a single
//     masked worklist pass per RR-Graph then decides reachability for
//     all (≤64) siblings at once, turning per-sibling walks into
//     word-AND/popcount steps. An edge's live-sibling mask comes from
//     comparing its draw c(e) against the cached probability row, with
//     the row's min/max classifying most edges in two comparisons. Wider
//     frontiers are chunked transparently (scanFrontierChunks).
//
// Every sibling is scanned over all of u's graphs: the estimate is the
// paper's full count hits/θ·|V|, the same a shard server returns. The
// StopRule is an empty argument kept for the FrontierEstimator signature.
// The result slice is the estimator's own, valid until its next call, so
// a warmed call allocates nothing however many expansions a query makes.
func (se *ShardedEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, _ sampling.StopRule) []sampling.Result {
	se.scatter(u, nil, posteriors)
	S := len(se.shards)
	if cap(se.out) < len(posteriors) {
		se.out = make([]sampling.Result, len(posteriors))
	}
	out := se.out[:len(posteriors)]
	for w := range out {
		out[w] = gather(se.rows[w*S:(w+1)*S], 1)
	}
	return out
}

// Partials runs EstimateFrontier's scatter and returns its rows unfolded
// instead of gathered: out[i][w] is the i-th held shard's row for sibling
// w, stamped with the shard's layout id. It is what a shard server ships
// for the coordinator's GatherFrontierPartials, which folds the rows of
// every shard exactly as EstimateFrontier folds its own.
func (se *ShardedEstimator) Partials(u graph.VertexID, posteriors [][]float64) [][]Partial {
	se.scatter(u, nil, posteriors)
	S, W := len(se.shards), len(posteriors)
	rows, out := make([]Partial, S*W), make([][]Partial, S)
	for i := range out {
		out[i] = rows[i*W : (i+1)*W : (i+1)*W]
		for w := range out[i] {
			out[i][w] = se.rows[w*S+i]
		}
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
