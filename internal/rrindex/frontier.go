package rrindex

import (
	"math"
	"math/bits"
	"sync"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// This file implements the frontier-batched estimation path: all sibling
// candidate sets produced by one best-first frontier expansion are
// estimated in a single pass over the query user's postings.
//
// Three stacked ideas, each preserved bit-for-bit against the sequential
// seed path (frontier_test.go proves it per estimator family and shard
// count):
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
//     the row's min/max classifying most edges in two comparisons.
//
//   - Sequential stopping. Scanning a posting list yields an
//     exchangeable Bernoulli sequence per sibling, so once the Hoeffding
//     upper confidence bound on a sibling's final hit count drops to the
//     caller's relevance threshold (the explorer's current m-th best,
//     in raw-hit units), that sibling's scan stops and the unbiased
//     (h/n)·N extrapolation stands in. On a monolithic index a potential
//     winner by definition keeps its bound above the threshold, is
//     always scanned in full, and returns byte-identical — stopping
//     cannot change the top-m beyond the rule's own δ. A sharded scatter
//     stops each shard against its proportional θ_s/|V| share of the
//     threshold; a winner concentrated unevenly across shards can have
//     its below-share shards stop, replacing their exact counts with
//     unbiased extrapolations whose error is bounded by the confidence
//     width at stop time — inside the estimator's (ε,δ) guarantee, but
//     not bitwise (frontier_test.go pins both regimes).

// maxFrontierWidth is the sibling capacity of one masked scan — the
// width of the uint64 membership words. EstimateFrontier chunks wider
// frontiers transparently.
const maxFrontierWidth = 64

// Stopping cadence: no stop decision before stopMinScan verdicts (the
// Hoeffding width is useless earlier), and checks run every
// stopCheckEvery graphs (a power of two) to keep the sqrt off the
// per-graph path.
const (
	stopMinScan    = 8
	stopCheckEvery = 8
)

// frontierHits is one sibling's outcome of a frontier scan against one
// index (or one shard of one): the raw counts a gather normalizes.
type frontierHits struct {
	// Hits is the exact hit count over the verdicts actually decided.
	Hits int64
	// Est is the effective hit count the gather consumes: float64(Hits)
	// when the scan completed (bit-identical to the sequential path),
	// the unbiased extrapolation when it stopped early.
	Est float64
	// Samples mirrors Result.Samples for this sibling: verdicts decided
	// (plus unconditional direct hits for the pruned scan).
	Samples int64
	// Contained is the sibling-independent postings size θ_s(u) (the
	// recovered-graph count for DelayMat).
	Contained int
	// Stopped records an early stop; Skipped is how many verdicts it
	// avoided.
	Stopped bool
	Skipped int64
}

// frontierScratch is the reusable per-estimator state of masked scans.
type frontierScratch struct {
	// reach[v] is the membership word of local vertex v: bit w set means
	// sibling w's live subgraph lets v reach the target. stampV makes
	// clearing O(1) per scan.
	reach  []uint64
	stampV []int64
	iter   int64
	stack  []int32

	hits    []int64
	scanned []int64
	totals  []int64
	out     []frontierHits

	// Pruned-scan filter state: per-candidate sibling masks, parallel to
	// PrunedEstimator.cands.
	candMask []uint64
}

// ensure sizes the scratch for a scan of `width` siblings over graphs of
// at most maxSize vertices, zeroing the per-scan counters.
func (sc *frontierScratch) ensure(width, maxSize int) {
	if len(sc.reach) < maxSize {
		sc.reach = make([]uint64, maxSize)
		sc.stampV = make([]int64, maxSize)
		sc.iter = 0
	}
	if cap(sc.hits) < width {
		sc.hits = make([]int64, width)
		sc.scanned = make([]int64, width)
		sc.totals = make([]int64, width)
	}
	sc.hits = sc.hits[:width]
	sc.scanned = sc.scanned[:width]
	sc.totals = sc.totals[:width]
	for w := 0; w < width; w++ {
		sc.hits[w], sc.scanned[w], sc.totals[w] = 0, 0, 0
	}
}

// fullMask returns the membership word with the low `width` bits set.
func fullMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// hoeffdingUCB bounds the final hit count after observing h hits in n of
// N exchangeable verdicts: h + (N-n)·min(1, h/n + sqrt(L/(2n))), with
// sqrtHalfL = sqrt(L/2) precomputed by the caller.
func hoeffdingUCB(h, n, N int64, sqrtHalfL float64) float64 {
	p := float64(h)/float64(n) + sqrtHalfL/math.Sqrt(float64(n))
	if p > 1 {
		p = 1
	}
	return float64(h) + float64(N-n)*p
}

// stopParams converts a StopRule into per-scan parameters: the stop
// threshold in raw-hit units of an index with sample count theta over a
// population of totalUsers (stop sibling w when UCB_hits ≤
// Threshold·θ/|V|, the hit count at which its influence contribution
// reaches the threshold share), plus the precomputed sqrt(L/2). A
// negative hitsThr disables stopping.
func stopParams(stop sampling.StopRule, theta int64, totalUsers int) (hitsThr, sqrtHalfL float64) {
	if !stop.Enabled() || theta <= 0 || totalUsers <= 0 {
		return -1, 0
	}
	return stop.Threshold * float64(theta) / float64(totalUsers), math.Sqrt(stop.LogInvDelta / 2)
}

// reachMask is the masked Def. 3 reachability test: for every sibling
// bit set in active, whether u reaches r's target through a path whose
// every edge satisfies p(e|W_sibling) ≥ c(e). One worklist fixed-point
// over membership words replaces popcount(active) boolean DFS walks;
// per bit the result equals reaches() under that sibling's prober.
func (r *RRGraph) reachMask(u graph.VertexID, fc *sampling.FrontierProbeCache, active uint64, sc *frontierScratch) uint64 {
	lu := r.localID(u)
	if lu < 0 {
		return 0
	}
	lt := r.localID(r.target)
	if lu == lt {
		return active
	}
	sc.iter++
	it := sc.iter
	sc.reach[lu] = active
	sc.stampV[lu] = it
	stack := append(sc.stack[:0], lu)
	var got uint64
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Bits that already witnessed a hit have nothing left to prove.
		m := sc.reach[v] &^ got
		if m == 0 {
			continue
		}
		for i := r.outStart[v]; i < r.outStart[v+1]; i++ {
			c := r.c[i]
			row, lo, hi := fc.Row(r.edgeID[i])
			var live uint64
			switch {
			case c <= lo: // live for every sibling
				live = m
			case c > hi: // dead for every sibling
				continue
			default:
				for b := m; b != 0; b &= b - 1 {
					w := bits.TrailingZeros64(b)
					if row[w] >= c {
						live |= 1 << w
					}
				}
				if live == 0 {
					continue
				}
			}
			t := r.outTo[i]
			if t == lt {
				got |= live
				if got == active {
					sc.stack = stack
					return got
				}
				continue
			}
			if sc.stampV[t] != it {
				sc.stampV[t] = it
				sc.reach[t] = live
				stack = append(stack, t)
			} else if live&^sc.reach[t] != 0 {
				sc.reach[t] |= live
				stack = append(stack, t)
			}
		}
	}
	sc.stack = stack
	return got
}

// scanFrontier is the shared masked scan over N graphs (graphAt(i) for
// i in [0,N)): per-sibling hit counting with sequential stopping. It
// fills sc.hits/sc.scanned and returns the stopped-sibling mask;
// counters are accumulated into the estimator-owned addresses.
func scanFrontier(
	graphAt func(int) *RRGraph, N int,
	u graph.VertexID, fc *sampling.FrontierProbeCache, sc *frontierScratch,
	hitsThr, sqrtHalfL float64,
	graphsChecked, earlyStops, graphsSkipped *int64,
) (stopped uint64) {
	W := fc.Width()
	active := fullMask(W)
	stopping := hitsThr >= 0 && sqrtHalfL > 0
	total := int64(N)
	for n := 0; n < N; n++ {
		if active == 0 {
			break
		}
		mask := graphAt(n).reachMask(u, fc, active, sc)
		for b := mask; b != 0; b &= b - 1 {
			sc.hits[bits.TrailingZeros64(b)]++
		}
		*graphsChecked += int64(bits.OnesCount64(active))
		scanned := int64(n + 1)
		if stopping && scanned >= stopMinScan && scanned < total && scanned&(stopCheckEvery-1) == 0 {
			for b := active; b != 0; b &= b - 1 {
				w := bits.TrailingZeros64(b)
				if hoeffdingUCB(sc.hits[w], scanned, total, sqrtHalfL) <= hitsThr {
					active &^= 1 << w
					stopped |= 1 << w
					sc.scanned[w] = scanned
					*earlyStops++
					*graphsSkipped += total - scanned
				}
			}
		}
	}
	for w := 0; w < W; w++ {
		if stopped&(1<<w) == 0 {
			sc.scanned[w] = total
		}
	}
	return stopped
}

// packFrontier assembles sc's counters into per-sibling frontierHits.
// contained is the sibling-independent postings size; direct adds
// unconditional hits (pruned scan) to both counts and extrapolation
// anchors; totals is the per-sibling verdict budget N_w (sc.totals for
// the pruned scan, the uniform postings size otherwise).
func packFrontier(sc *frontierScratch, stopped uint64, contained int, direct int64, totals func(w int) int64) []frontierHits {
	W := len(sc.hits)
	out := sc.out[:0]
	for w := 0; w < W; w++ {
		N := totals(w)
		fh := frontierHits{
			Hits:      direct + sc.hits[w],
			Samples:   direct + sc.scanned[w],
			Contained: contained,
		}
		if stopped&(1<<w) != 0 && sc.scanned[w] < N {
			fh.Stopped = true
			fh.Skipped = N - sc.scanned[w]
			fh.Est = float64(direct) + float64(sc.hits[w])/float64(sc.scanned[w])*float64(N)
		} else {
			fh.Est = float64(fh.Hits)
		}
		out = append(out, fh)
	}
	sc.out = out
	return out
}

// hitsFrontier is the batched hitsProber: one masked pass over u's
// postings decides every sibling of the current frontier chunk (at most
// maxFrontierWidth posteriors). The returned slice aliases estimator
// scratch, valid until the next call.
func (est *Estimator) hitsFrontier(u graph.VertexID, posteriors [][]float64, hitsThr, sqrtHalfL float64) []frontierHits {
	idx := est.idx
	if est.fc == nil {
		est.fc = sampling.NewFrontierProbeCache(idx.g.NumEdges())
	}
	est.fc.Begin(idx.g, posteriors)
	sc := &est.fsc
	sc.ensure(len(posteriors), idx.maxSize)
	containing := idx.containing[u]
	N := int64(len(containing))
	stopped := scanFrontier(
		func(i int) *RRGraph { return &idx.graphs[containing[i]] }, len(containing),
		u, est.fc, sc, hitsThr, sqrtHalfL,
		&est.graphsChecked, &est.earlyStops, &est.graphsSkipped,
	)
	return packFrontier(sc, stopped, len(containing), 0, func(int) int64 { return N })
}

// EstimateFrontier estimates E[I(u|W_i)] for every sibling posterior of
// one frontier expansion in a single pass over u's postings, applying
// the sequential stopping rule. With stopping disabled the results are
// bit-identical to calling EstimateProber per sibling.
func (est *Estimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	idx := est.idx
	hitsThr, shl := stopParams(stop, idx.theta, idx.g.NumVertices())
	out := make([]sampling.Result, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		for i, fh := range est.hitsFrontier(u, chunk, hitsThr, shl) {
			inf := fh.Est / float64(idx.theta) * float64(idx.g.NumVertices())
			if inf < 1 {
				inf = 1
			}
			out[off+i] = sampling.Result{
				Influence: inf,
				Samples:   fh.Samples,
				Theta:     idx.theta,
				Reachable: fh.Contained,
			}
		}
	}
	return out
}

// hitsFrontier is the batched filter-and-verify: the inverted cut lists
// are scanned once against cached probability rows to build per-
// candidate sibling masks, then one masked pass verifies each surviving
// candidate for exactly the siblings whose filter admitted it. The
// returned slice aliases estimator scratch, valid until the next call.
func (pe *PrunedEstimator) hitsFrontier(u graph.VertexID, posteriors [][]float64, hitsThr, sqrtHalfL float64) []frontierHits {
	idx := pe.idx
	if pe.fc == nil {
		pe.fc = sampling.NewFrontierProbeCache(idx.g.NumEdges())
	}
	fc := pe.fc
	fc.Begin(idx.g, posteriors)
	W := len(posteriors)
	sc := &pe.fsc
	sc.ensure(W, idx.maxSize)

	uc := pe.cutsFor(u)
	containing := idx.containing[u]
	if len(pe.candStamp) < len(containing) {
		pe.candStamp = make([]int64, len(containing))
		pe.candSlot = make([]int32, len(containing))
	} else if len(pe.candSlot) < len(containing) {
		pe.candSlot = make([]int32, len(containing))
	}
	pe.candIter++
	pe.cands = pe.cands[:0]
	sc.candMask = sc.candMask[:0]
	full := fullMask(W)

	// Filter: a sibling admits a posting when p(e|W_sibling) > 0 and
	// c(e) ≤ p(e|W_sibling) — the row min/max settle whole postings
	// without a per-sibling scan. Lists are c-ascending, so scanning
	// stops at the row max.
	for i, e := range uc.edges {
		row, lo, hi := fc.Row(e)
		if hi <= 0 {
			continue
		}
		for _, ent := range uc.lists[i] {
			if ent.c > hi {
				break
			}
			var mask uint64
			if ent.c <= lo && lo > 0 {
				mask = full
			} else {
				for w := 0; w < W; w++ {
					if p := row[w]; p > 0 && ent.c <= p {
						mask |= 1 << w
					}
				}
				if mask == 0 {
					continue
				}
			}
			pos := ent.graphPos
			if pe.candStamp[pos] != pe.candIter {
				pe.candStamp[pos] = pe.candIter
				pe.candSlot[pos] = int32(len(pe.cands))
				pe.cands = append(pe.cands, pos)
				sc.candMask = append(sc.candMask, 0)
			}
			slot := pe.candSlot[pos]
			if added := mask &^ sc.candMask[slot]; added != 0 {
				sc.candMask[slot] |= added
				for b := added; b != 0; b &= b - 1 {
					sc.totals[bits.TrailingZeros64(b)]++
				}
			}
		}
	}

	// Verify: one masked reachability pass per surviving candidate, for
	// the siblings whose filter admitted it and whose scan is live.
	direct := int64(len(uc.direct))
	active := full
	var stopped uint64
	stopping := hitsThr >= 0 && sqrtHalfL > 0
	for ci, pos := range pe.cands {
		if active == 0 {
			break
		}
		m := sc.candMask[ci] & active
		if m == 0 {
			continue
		}
		rr := &idx.graphs[containing[pos]]
		mask := rr.reachMask(u, fc, m, sc)
		for b := mask; b != 0; b &= b - 1 {
			sc.hits[bits.TrailingZeros64(b)]++
		}
		for b := m; b != 0; b &= b - 1 {
			sc.scanned[bits.TrailingZeros64(b)]++
		}
		pe.graphsChecked += int64(bits.OnesCount64(m))
		if stopping && ci&(stopCheckEvery-1) == stopCheckEvery-1 {
			for b := active; b != 0; b &= b - 1 {
				w := bits.TrailingZeros64(b)
				n := sc.scanned[w]
				if n >= stopMinScan && n < sc.totals[w] &&
					float64(direct)+hoeffdingUCB(sc.hits[w], n, sc.totals[w], sqrtHalfL) <= hitsThr {
					active &^= 1 << w
					stopped |= 1 << w
					pe.earlyStops++
					pe.graphsSkipped += sc.totals[w] - n
				}
			}
		}
	}
	for w := 0; w < W; w++ {
		pe.graphsPruned += int64(len(containing)) - direct - sc.totals[w]
	}
	return packFrontier(sc, stopped, len(containing), direct, func(w int) int64 { return sc.totals[w] })
}

// EstimateFrontier is the frontier-batched IndexEst+ estimation; with
// stopping disabled it is bit-identical to per-sibling EstimateProber.
func (pe *PrunedEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	idx := pe.idx
	hitsThr, shl := stopParams(stop, idx.theta, idx.g.NumVertices())
	out := make([]sampling.Result, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		for i, fh := range pe.hitsFrontier(u, chunk, hitsThr, shl) {
			inf := fh.Est / float64(idx.theta) * float64(idx.g.NumVertices())
			if inf < 1 {
				inf = 1
			}
			out[off+i] = sampling.Result{
				Influence: inf,
				Samples:   fh.Samples,
				Theta:     idx.theta,
				Reachable: fh.Contained,
			}
		}
	}
	return out
}

// hitsFrontier is the batched DelayMat scatter: recovery (the expensive,
// sibling-independent step) runs once per query user exactly as in the
// sequential path — the estimator's RNG is consumed only there, so
// batching cannot perturb the recovered sample — and the masked scan
// then decides all siblings per recovered graph.
func (de *DelayEstimator) hitsFrontier(u graph.VertexID, posteriors [][]float64, hitsThr, sqrtHalfL float64) []frontierHits {
	if de.fc == nil {
		de.fc = sampling.NewFrontierProbeCache(de.dm.g.NumEdges())
	}
	de.fc.Begin(de.dm.g, posteriors)
	if !de.cachedValid || de.cachedUser != u {
		de.recover(u)
	}
	maxSize := 0
	for i := range de.cachedGraphs {
		if n := de.cachedGraphs[i].NumVertices(); n > maxSize {
			maxSize = n
		}
	}
	sc := &de.fsc
	sc.ensure(len(posteriors), maxSize)
	N := int64(len(de.cachedGraphs))
	stopped := scanFrontier(
		func(i int) *RRGraph { return &de.cachedGraphs[i] }, len(de.cachedGraphs),
		u, de.fc, sc, hitsThr, sqrtHalfL,
		&de.graphsChecked, &de.earlyStops, &de.graphsSkipped,
	)
	return packFrontier(sc, stopped, int(N), 0, func(int) int64 { return N })
}

// EstimateFrontier is the frontier-batched DelayMat estimation; with
// stopping disabled it is bit-identical to per-sibling EstimateProber.
func (de *DelayEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	dm := de.dm
	hitsThr, shl := stopParams(stop, dm.theta, dm.g.NumVertices())
	out := make([]sampling.Result, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		for i, fh := range de.hitsFrontier(u, chunk, hitsThr, shl) {
			inf := fh.Est / float64(dm.theta) * float64(dm.g.NumVertices())
			if inf < 1 {
				inf = 1
			}
			out[off+i] = sampling.Result{
				Influence: inf,
				Samples:   fh.Samples,
				Theta:     dm.theta,
				Reachable: fh.Contained,
			}
		}
	}
	return out
}

// scatterFrontierShards fans fn out across n shards, in parallel above
// the same work threshold as runShards. Frontier scatters never share
// mutable prober state (each sub-estimator owns its FrontierProbeCache),
// so no mutability check is needed.
func scatterFrontierShards(work, n int, fn func(s int)) {
	if work < scatterParallelMinWork {
		for s := 0; s < n; s++ {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	fn(0)
	wg.Wait()
}

// gatherFrontier folds per-shard frontierHits rows into per-sibling
// Results with the exact float operations and shard order of the
// sequential gather, so an unstopped batched estimate is bit-identical
// to the sequential sharded one. thetaAt/usersAt describe shard s's
// normalization (θ_s, |V_s|); totalTheta is Σ_s θ_s.
func gatherFrontier(parts [][]frontierHits, width int, thetaAt func(s int) int64, usersAt func(s int) int, totalTheta int64, out []sampling.Result) {
	for i := 0; i < width; i++ {
		var inf float64
		var totSamples int64
		contained := 0
		for s := range parts {
			fh := parts[s][i]
			totSamples += fh.Samples
			contained += fh.Contained
			if th := thetaAt(s); th > 0 {
				inf += fh.Est / float64(th) * float64(usersAt(s))
			}
		}
		if inf < 1 {
			inf = 1
		}
		out[i] = sampling.Result{
			Influence: inf,
			Samples:   totSamples,
			Theta:     totalTheta,
			Reachable: contained,
		}
	}
}

// EstimateFrontier scatters the frontier batch across shards — each
// shard stopping independently against its θ_s/|V| share of the
// threshold — and gathers per-sibling results. S=1 delegates to the
// monolithic path (bit-identical).
func (se *ShardedEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	if len(se.subs) == 1 {
		return se.subs[0].EstimateFrontier(u, posteriors, stop)
	}
	si := se.si
	totalUsers := si.g.NumVertices()
	work := 0
	for _, sh := range si.shards {
		work += len(sh.containing[u])
	}
	if se.fparts == nil {
		se.fparts = make([][]frontierHits, len(se.subs))
	}
	out := make([]sampling.Result, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		scatterFrontierShards(work, len(se.subs), func(s int) {
			hitsThr, shl := stopParams(stop, si.shards[s].theta, totalUsers)
			se.fparts[s] = se.subs[s].hitsFrontier(u, chunk, hitsThr, shl)
		})
		gatherFrontier(se.fparts, len(chunk),
			func(s int) int64 { return si.shards[s].theta },
			func(s int) int { return poolSizeOf(si.pools[s], totalUsers) },
			si.theta, out[off:])
	}
	return out
}

// EstimateFrontier is the sharded frontier-batched IndexEst+ estimation.
func (pe *ShardedPrunedEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	if len(pe.subs) == 1 {
		return pe.subs[0].EstimateFrontier(u, posteriors, stop)
	}
	si := pe.si
	totalUsers := si.g.NumVertices()
	work := 0
	for _, sh := range si.shards {
		work += len(sh.containing[u])
	}
	if pe.fparts == nil {
		pe.fparts = make([][]frontierHits, len(pe.subs))
	}
	out := make([]sampling.Result, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		scatterFrontierShards(work, len(pe.subs), func(s int) {
			hitsThr, shl := stopParams(stop, si.shards[s].theta, totalUsers)
			pe.fparts[s] = pe.subs[s].hitsFrontier(u, chunk, hitsThr, shl)
		})
		gatherFrontier(pe.fparts, len(chunk),
			func(s int) int64 { return si.shards[s].theta },
			func(s int) int { return poolSizeOf(si.pools[s], totalUsers) },
			si.theta, out[off:])
	}
	return out
}

// EstimateFrontier is the sharded frontier-batched DelayMat estimation.
func (de *ShardedDelayEstimator) EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result {
	if len(de.subs) == 1 {
		return de.subs[0].EstimateFrontier(u, posteriors, stop)
	}
	sdm := de.sdm
	totalUsers := sdm.g.NumVertices()
	work := 0
	for _, sh := range sdm.shards {
		work += int(sh.counts[u])
	}
	if de.fparts == nil {
		de.fparts = make([][]frontierHits, len(de.subs))
	}
	out := make([]sampling.Result, len(posteriors))
	for off := 0; off < len(posteriors); off += maxFrontierWidth {
		chunk := posteriors[off:min(off+maxFrontierWidth, len(posteriors))]
		scatterFrontierShards(work, len(de.subs), func(s int) {
			hitsThr, shl := stopParams(stop, sdm.shards[s].theta, totalUsers)
			de.fparts[s] = de.subs[s].hitsFrontier(u, chunk, hitsThr, shl)
		})
		gatherFrontier(de.fparts, len(chunk),
			func(s int) int64 { return sdm.shards[s].theta },
			func(s int) int { return sdm.poolSizes[s] },
			sdm.theta, out[off:])
	}
	return out
}
