package bestfirst

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// Estimator is the influence-estimation dependency of the explorer; the
// online samplers (Lazy by default) and the index-based estimators all
// satisfy it.
type Estimator interface {
	// EstimateProber estimates E[I(u|·)] under an arbitrary
	// edge-probability source.
	EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result
}

// FrontierEstimator is an optional Estimator capability: estimating a
// whole frontier of sibling tag sets for one user in a single call. The
// explorer batches the children of each expansion and hands over one
// per-topic weight row per child — the Eq. 1 posterior of a full-size
// child, the Lemma 8 completion weights of a partial one (see the
// package comment) — letting the estimator share per-edge probe work
// across siblings (frontier-scoped probe caching, bitset hit-testing)
// and stop sampling a sibling early once stop proves it cannot beat the
// pruning threshold. Results are positional: Result[i] scores
// posteriors[i] through graph.EdgeProb. With stopping disabled the
// results must be identical to per-sibling EstimateProber calls; bound
// rows are only ever sent with stopping disabled.
type FrontierEstimator interface {
	EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result
}

// Stats reports how much work a query performed; the Fig. 11/12 discussion
// is about these numbers (pruning driven by tag-topic density).
type Stats struct {
	// FullSetsEstimated is the number of size-k tag sets whose influence
	// was actually estimated.
	FullSetsEstimated int64
	// PartialBoundsEstimated is the number of partial sets whose Lemma 8
	// upper bound was estimated: every row bounded through the frontier
	// batch under a FrontierEstimator, every sampled bound otherwise
	// (zero under CheapBounds, whose bounds are reach counts).
	PartialBoundsEstimated int64
	// PrunedUnsupported counts branches discarded because no completion
	// had a defined posterior.
	PrunedUnsupported int64
	// PrunedByBound counts branches discarded by the upper-bound test.
	PrunedByBound int64
	// FrontierExpansions is the number of heap entries expanded into
	// children (the best-first loop's fan-out events).
	FrontierExpansions int64
	// SamplesDrawn totals the sample instances the estimator generated
	// across every full-set and bound estimation of the query.
	SamplesDrawn int64
	// BoundCacheHits counts CheapBounds evaluations answered from the
	// per-query live-topic-mask memo instead of a fresh BFS (sibling
	// partial sets overwhelmingly share the mask). The memo only runs
	// under estimators without the frontier capability, so this stays 0
	// for the index and coordinator estimators.
	BoundCacheHits int64
}

// Scored is one candidate answer: a size-k tag set with its estimated
// influence.
type Scored struct {
	Tags      []topics.TagID
	Influence float64
}

// Result is a PITEX answer: the best tag set plus, for top-m queries, the
// runners-up.
type Result struct {
	Tags      []topics.TagID
	Influence float64
	// All holds the m best tag sets in descending influence order
	// (All[0] repeats Tags/Influence).
	All   []Scored
	Stats Stats
}

// Explorer answers PITEX queries with Algo 5: a max-heap over partial tag
// sets ordered by upper-bound influence, expanding in canonical
// (increasing-tag) order so every set is generated exactly once.
type Explorer struct {
	g *graph.Graph
	m *topics.Model
	// est estimates real tag sets and Lemma 8 upper bounds alike.
	est Estimator
	// CheapBounds replaces the sampled upper-bound estimate with
	// |R_{p+}(u)| (the reachable-set size under p+(e|W)), which upper
	// bounds the influence at one BFS instead of a sampling run. Looser
	// but far cheaper; the ablation benchmark compares both. It only
	// governs estimators without the frontier capability: under a
	// FrontierEstimator every bound is a frontier row and the flag is
	// never read.
	CheapBounds bool
	// StopLogInvDelta, when positive, arms sequential stopping inside
	// frontier batches: each batch carries StopRule{threshold(), this},
	// so the estimator may stop sampling a sibling once a Hoeffding
	// upper confidence bound at confidence exp(-StopLogInvDelta) proves
	// it cannot reach the current pruning threshold. Zero keeps batched
	// estimates byte-identical to the sequential path.
	StopLogInvDelta float64

	// fest is est's frontier-batching capability, detected at
	// construction; nil keeps the one-call-per-full-set path and the
	// CheapBounds / sampled-prober bounds.
	fest FrontierEstimator
	// bounder holds the model-only Lemma 8 tables, built on the first
	// query and retargeted at each query's k.
	bounder *Bounder

	posterior []float64
	reachMark []bool
	// Per-query scratch: the heap, the arena backing every pending
	// entry's tag set (one query expands thousands of partial sets; a
	// per-child make() dominated query allocations), and the
	// reachableUnder BFS buffers.
	heap       maxHeap
	tags       tagArena
	reachStack []graph.VertexID
	reached    []graph.VertexID

	// CheapBounds memoization: partial sets sharing a live-topic mask
	// have identical positive-edge sets, hence identical reachable-set
	// bounds. boundMemo caches |R_{p+}(u)| per mask for the current
	// query; edgeTopicMask[e] (bit z set when p(e|z) > 0) is built once
	// per explorer and lets the masked BFS test edge liveness with one
	// AND instead of Lemma 8 arithmetic.
	boundMemo     map[uint64]float64
	edgeTopicMask []uint64
	// maskList mirrors boundMemo in insertion order for the dominance
	// scans (reach counts are monotone in the mask: supersets bound
	// subsets from above); maxReach is the all-topics reach count,
	// computed lazily once per query (-1 until then).
	maskList []maskVal
	maxReach float64
	// Batch-bounding scratch: one expansion's surviving children before
	// their bounds are resolved (pend), the deduped unresolved masks
	// (pendMasks), and the word-parallel BFS buffers — a reach word per
	// vertex, an allowed word per edge, and the touched-vertex list for
	// sparse reset.
	pend         []pendChild
	pendMasks    []uint64
	batchReach   []uint64
	batchAllowed []uint64
	batchInQueue []bool
	batchTouched []graph.VertexID

	// Incremental-posterior scratch: the expanding set's posterior and
	// the one-tag-extended child posterior handed to PreparePosterior.
	parentPost []float64
	childPost  []float64

	// Frontier-batch scratch: the weight rows of one EstimateFrontier
	// call — full-set posteriors or partial-set bound rows — as arena +
	// row headers + member index per row, reused across batches (the
	// estimator only reads rows during the call).
	postArena []float64
	postRows  [][]float64
	postIdx   []int32
}

// tagArena hands out small tag-set slices from chunked backing arrays
// that are reused across queries. Allocated slices stay valid until the
// next reset (chunks are never grown in place).
type tagArena struct {
	chunks [][]topics.TagID
	ci     int
}

const tagArenaChunk = 1 << 13

func (a *tagArena) alloc(n int) []topics.TagID {
	for {
		if a.ci == len(a.chunks) {
			a.chunks = append(a.chunks, make([]topics.TagID, 0, max(tagArenaChunk, n)))
		}
		c := a.chunks[a.ci]
		if len(c)+n <= cap(c) {
			s := c[len(c) : len(c)+n : len(c)+n]
			a.chunks[a.ci] = c[:len(c)+n]
			return s
		}
		a.ci++
	}
}

func (a *tagArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.ci = 0
}

// NewExplorer builds an explorer using est for full tag sets and for
// Lemma 8 upper-bound graphs.
func NewExplorer(g *graph.Graph, m *topics.Model, est Estimator) *Explorer {
	ex := &Explorer{
		g:         g,
		m:         m,
		est:       est,
		posterior: make([]float64, m.NumTopics()),
		reachMark: make([]bool, g.NumVertices()),
	}
	ex.fest, _ = est.(FrontierEstimator)
	return ex
}

// heapEntry orders partial solutions by bound, descending: the entry's
// own bound when it was computed eagerly at expansion (bounded: a
// frontier row bound or a CheapBounds reach count), the parent's
// otherwise. lastAdded is the largest tag appended after the fixed prefix
// (-1 when only the prefix is present); children only append larger tags
// so each completion is generated exactly once. Full-size entries spawned
// by the same expansion share a frontierBatch; fbIdx is the entry's slot
// in it.
type heapEntry struct {
	tags      []topics.TagID
	lastAdded topics.TagID
	bound     float64
	bounded   bool
	fb        *frontierBatch
	fbIdx     int32
}

// maskVal is one memoized CheapBounds evaluation: the live-topic mask
// and its reachable-set count (or a proven upper bound on it, for
// dominance-derived deep-level entries — every consumer treats the
// value as an upper bound, so looseness is safe).
type maskVal struct {
	mask uint64
	val  float64
}

// pendChild is one expansion child awaiting its batch-resolved bound:
// row i of the frontier arena under a FrontierEstimator, the reach count
// of mask under CheapBounds.
type pendChild struct {
	tags      []topics.TagID
	lastAdded topics.TagID
	mask      uint64
}

// frontierBatch groups the size-k children of one expansion for a single
// FrontierEstimator call. It is evaluated lazily when its first member is
// popped: Algo 5 estimates every popped full set unconditionally, so
// deferring to first pop changes neither pop order nor recorded results,
// while the then-current pruning threshold arms sequential stopping for
// the whole batch.
type frontierBatch struct {
	tags [][]topics.TagID // member tag sets, arena-backed
	inf  []float64        // per-member influence, valid once done
	done bool
}

// maxHeap is a hand-rolled binary max-heap on bound. container/heap moves
// entries through interface{} values, which boxes one allocation per
// push/pop — a measurable share of per-query allocations on this path.
type maxHeap []heapEntry

func (h *maxHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].bound >= s[i].bound {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *maxHeap) pop() heapEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = heapEntry{} // drop the tag-slice reference
	s = s[:n]
	*h = s
	i := 0
	for {
		m := i
		if l := 2*i + 1; l < n && s[l].bound > s[m].bound {
			m = l
		}
		if r := 2*i + 2; r < n && s[r].bound > s[m].bound {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Query answers the PITEX query (u, k): the size-k tag set maximizing the
// estimated E[I(u|W)], with Lemma 8 pruning of partial branches.
func (ex *Explorer) Query(u graph.VertexID, k int) (Result, error) {
	return ex.QueryTop(u, k, 1)
}

// QueryTop returns the m best size-k tag sets in descending estimated
// influence (fewer if fewer exist). m > 1 widens the pruning threshold to
// the m-th best value, so larger m explores more.
func (ex *Explorer) QueryTop(u graph.VertexID, k, m int) (Result, error) {
	return ex.run(context.Background(), u, nil, k, m)
}

// QueryTopCtx is QueryTop under a context: the explorer checks ctx between
// best-first expansions and abandons the query with ctx.Err() once the
// context is cancelled or its deadline passes, so a serving layer can bound
// tail latency and drop work for disconnected clients.
func (ex *Explorer) QueryTopCtx(ctx context.Context, u graph.VertexID, k, m int) (Result, error) {
	return ex.run(ctx, u, nil, k, m)
}

// Complete answers a constrained query: the best size-k tag set that
// CONTAINS the given prefix. This is the interactive exploration flow the
// paper motivates — a user pins the tags they will certainly post about
// and asks what to add.
func (ex *Explorer) Complete(u graph.VertexID, prefix []topics.TagID, k int) (Result, error) {
	return ex.CompleteCtx(context.Background(), u, prefix, k)
}

// CompleteCtx is Complete under a context (see QueryTopCtx).
func (ex *Explorer) CompleteCtx(ctx context.Context, u graph.VertexID, prefix []topics.TagID, k int) (Result, error) {
	seen := map[topics.TagID]bool{}
	for _, w := range prefix {
		if int(w) < 0 || int(w) >= ex.m.NumTags() {
			return Result{}, fmt.Errorf("bestfirst: prefix tag %d outside [0,%d)", w, ex.m.NumTags())
		}
		if seen[w] {
			return Result{}, fmt.Errorf("bestfirst: duplicate prefix tag %d", w)
		}
		seen[w] = true
	}
	if len(prefix) > k {
		return Result{}, fmt.Errorf("bestfirst: prefix size %d exceeds k = %d", len(prefix), k)
	}
	return ex.run(ctx, u, prefix, k, 1)
}

// run is the shared Algo 5 engine.
func (ex *Explorer) run(ctx context.Context, u graph.VertexID, prefix []topics.TagID, k, m int) (Result, error) {
	if int(u) < 0 || int(u) >= ex.g.NumVertices() {
		return Result{}, fmt.Errorf("bestfirst: user %d outside [0,%d)", u, ex.g.NumVertices())
	}
	if k <= 0 || k > ex.m.NumTags() {
		return Result{}, fmt.Errorf("bestfirst: k = %d outside [1,%d]", k, ex.m.NumTags())
	}
	if m <= 0 {
		return Result{}, fmt.Errorf("bestfirst: m = %d, want >= 1", m)
	}

	if ex.bounder == nil {
		ex.bounder = NewBounder(ex.g, ex.m, k)
	}
	bounder := ex.bounder.forK(k)
	var res Result
	// best holds up to m results, sorted descending by influence.
	best := make([]Scored, 0, m)
	// threshold is the pruning bar: the m-th best influence, or -1 until m
	// results exist.
	threshold := func() float64 {
		if len(best) < m {
			return -1
		}
		return best[len(best)-1].Influence
	}
	record := func(tags []topics.TagID, inf float64) {
		i := sort.Search(len(best), func(i int) bool { return best[i].Influence < inf })
		if i >= m {
			return
		}
		// Copy out of the arena (entries die at query end); slices.Sort is
		// allocation-free, unlike sort.Slice's reflection path.
		cp := append([]topics.TagID(nil), tags...)
		slices.Sort(cp)
		best = append(best, Scored{})
		copy(best[i+1:], best[i:])
		best[i] = Scored{Tags: cp, Influence: inf}
		if len(best) > m {
			best = best[:m]
		}
	}

	// admit pushes an eagerly bounded child keyed by its own bound, unless
	// the bound already cannot beat the threshold.
	admit := func(pc pendChild, ub float64) {
		if ub <= threshold() {
			res.Stats.PrunedByBound++
			return
		}
		ex.heap.push(heapEntry{tags: pc.tags, lastAdded: pc.lastAdded, bound: ub, bounded: true})
	}

	inPrefix := make(map[topics.TagID]bool, len(prefix))
	for _, w := range prefix {
		inPrefix[w] = true
	}

	ex.tags.reset()
	if ex.fest == nil {
		if ex.boundMemo == nil {
			ex.boundMemo = make(map[uint64]float64)
		} else {
			clear(ex.boundMemo) // reachability depends on u; memo is per-query
		}
		ex.maskList = ex.maskList[:0]
		ex.maxReach = -1
	}
	h := &ex.heap
	*h = (*h)[:0]
	root := heapEntry{
		tags:      append(ex.tags.alloc(len(prefix))[:0], prefix...),
		lastAdded: -1,
		bound:     float64(ex.g.NumVertices()),
	}
	h.push(root)

	for len(*h) > 0 {
		// Each iteration estimates a full set, a partial bound or one
		// frontier batch of either — the expensive units of work — so the
		// cancellation check here bounds overrun to one estimation.
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		ent := h.pop()
		if len(ent.tags) == k {
			if ent.fb != nil {
				if !ent.fb.done {
					ex.evalFrontier(u, ent.fb, threshold(), &res.Stats)
				}
				record(ent.tags, ent.fb.inf[ent.fbIdx])
				continue
			}
			if !ex.m.PosteriorInto(ent.tags, ex.posterior) {
				// Undefined posterior: influence is exactly 1.
				record(ent.tags, 1)
				continue
			}
			res.Stats.FullSetsEstimated++
			// Estimators that revisit edges (the index strategies) carry
			// their own query-scoped ProbeCache; single-pass estimators
			// like TIM are handed the raw prober — a cache layer would be
			// all misses.
			est := ex.est.EstimateProber(u, sampling.PosteriorProber{G: ex.g, Posterior: ex.posterior})
			res.Stats.SamplesDrawn += est.Samples
			record(ent.tags, est.Influence)
			continue
		}

		// Partial set: bound (unless expansion already did), prune, or
		// expand. Under a frontier estimator only a prefix root arrives
		// unbounded; it is bounded like any child, as a frontier of one.
		if len(ent.tags) > 0 && !ent.bounded {
			prober, ok := bounder.Prepare(ent.tags)
			if !ok {
				res.Stats.PrunedUnsupported++
				continue
			}
			switch {
			case ex.fest != nil:
				ex.stageBoundRow(0, prober)
				ent.bound = ex.boundStaged(u, 1, &res.Stats)[0].Influence
			case ex.CheapBounds:
				if mask, ok := prober.LiveTopics(); ok {
					var resolved bool
					ent.bound, resolved = ex.boundFor(u, mask, threshold(), &res.Stats, false)
					if !resolved {
						ent.bound = float64(ex.reachableMasked(u, mask))
						ex.memoizeBound(mask, ent.bound)
					}
				} else {
					ent.bound = float64(ex.reachableUnder(u, prober))
				}
			default:
				res.Stats.PartialBoundsEstimated++
				bres := ex.est.EstimateProber(u, prober)
				res.Stats.SamplesDrawn += bres.Samples
				ent.bound = bres.Influence
			}
			ent.bounded = true
		}
		if ent.bounded && ent.bound <= threshold() {
			res.Stats.PrunedByBound++
			continue
		}

		// Expand with every non-prefix tag above the last appended tag
		// (canonical order: each completion generated exactly once).
		res.Stats.FrontierExpansions++
		var fb *frontierBatch
		full := len(ent.tags)+1 == k
		batching := ex.fest != nil && full
		// Partial children of a frontier estimator are bounded eagerly, as
		// rows: each child's Lemma 8 completion weights become one row of
		// a single EstimateFrontier call over the whole expansion, so
		// unsupported or already-beaten children never enter the heap and
		// survivors carry their own bound as heap key.
		rows := ex.fest != nil && !full
		// Without the capability, CheapBounds children are bounded eagerly
		// too, by masked reach: shallow children (whose subtrees are large)
		// get exact counts, batched into one word-parallel BFS per
		// expansion; deepest-level children (whose children are the full
		// sets) settle for the dominance upper bound — no BFS at all. The
		// sampled-bound path stays lazy: eager sampling would reorder RNG
		// consumption.
		masks := ex.fest == nil && ex.CheapBounds && !full
		deepest := len(ent.tags)+1 == k-1
		ex.pend = ex.pend[:0]
		ex.pendMasks = ex.pendMasks[:0]
		// Every eager child shares the parent posterior, so materialize it
		// once and derive each child's by a single-tag extension instead of
		// re-multiplying the whole set per child.
		haveParent := false
		if rows || masks {
			if ex.parentPost == nil {
				ex.parentPost = make([]float64, ex.m.NumTopics())
				ex.childPost = make([]float64, ex.m.NumTopics())
			}
			haveParent = ex.m.PosteriorInto(ent.tags, ex.parentPost)
		}
		for w := ent.lastAdded + 1; int(w) < ex.m.NumTags(); w++ {
			if inPrefix[w] {
				continue
			}
			child := ex.tags.alloc(len(ent.tags) + 1)
			copy(child, ent.tags)
			child[len(ent.tags)] = w
			ce := heapEntry{tags: child, lastAdded: w, bound: ent.bound}
			if batching {
				if fb == nil {
					fb = &frontierBatch{}
				}
				ce.fb, ce.fbIdx = fb, int32(len(fb.tags))
				fb.tags = append(fb.tags, child)
			} else if rows || masks {
				var prober Prober
				var ok bool
				if haveParent {
					if !ex.m.PosteriorExtendInto(ex.parentPost, w, ex.childPost) {
						res.Stats.PrunedUnsupported++
						continue
					}
					prober, ok = bounder.PreparePosterior(child, ex.childPost)
				} else {
					prober, ok = bounder.Prepare(child)
				}
				if !ok {
					res.Stats.PrunedUnsupported++
					continue
				}
				if rows {
					ex.stageBoundRow(len(ex.pend), prober)
					ex.pend = append(ex.pend, pendChild{tags: child, lastAdded: w})
					continue
				}
				mask, mok := prober.LiveTopics()
				if !mok {
					// Mask too wide to pack: push unbounded; the pop
					// path falls back to reachableUnder.
					h.push(ce)
					continue
				}
				ub, resolved := ex.boundFor(u, mask, threshold(), &res.Stats, deepest)
				if !resolved && deepest {
					// A deepest-level mask with no usable superset (a
					// prefix root, or k == 2): resolve it exactly.
					ub = float64(ex.reachableMasked(u, mask))
					ex.memoizeBound(mask, ub)
					resolved = true
				}
				if resolved {
					admit(pendChild{tags: child, lastAdded: w}, ub)
					continue
				}
				// Unresolved shallow mask: hold the child back for the
				// expansion's batch BFS.
				ex.pend = append(ex.pend, pendChild{tags: child, lastAdded: w, mask: mask})
				if !slices.Contains(ex.pendMasks, mask) {
					ex.pendMasks = append(ex.pendMasks, mask)
				}
				continue
			}
			h.push(ce)
		}
		switch {
		case len(ex.pend) == 0:
		case rows:
			for i, r := range ex.boundStaged(u, len(ex.pend), &res.Stats) {
				admit(ex.pend[i], r.Influence)
			}
		default:
			ex.resolveMaskBatch(u)
			for _, pc := range ex.pend {
				admit(pc, ex.boundMemo[pc.mask])
			}
		}
	}

	if len(best) == 0 {
		// Every tag set was undefined; return the lexicographically first
		// completion with its exact trivial influence.
		tags := append([]topics.TagID(nil), prefix...)
		for w := topics.TagID(0); len(tags) < k; w++ {
			if !inPrefix[w] {
				tags = append(tags, w)
			}
		}
		sort.Slice(tags, func(a, b int) bool { return tags[a] < tags[b] })
		best = append(best, Scored{Tags: tags, Influence: 1})
	}
	res.All = best
	res.Tags = best[0].Tags
	res.Influence = best[0].Influence
	return res, nil
}

// reachableUnder counts vertices reachable from u across edges with
// positive probability under prober — a one-BFS influence upper bound.
// The traversal buffers live on the explorer (one bound per expansion
// made per-call slices a top allocation source).
func (ex *Explorer) reachableUnder(u graph.VertexID, prober sampling.EdgeProber) int {
	g := ex.g
	mark := ex.reachMark
	stack := append(ex.reachStack[:0], u)
	mark[u] = true
	reached := append(ex.reached[:0], u)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		edges := g.OutEdges(v)
		nbrs := g.OutNeighbors(v)
		for i, e := range edges {
			if prober.Prob(e) <= 0 {
				continue
			}
			if t := nbrs[i]; !mark[t] {
				mark[t] = true
				reached = append(reached, t)
				stack = append(stack, t)
			}
		}
	}
	for _, v := range reached {
		mark[v] = false
	}
	ex.reachStack, ex.reached = stack, reached
	return len(reached)
}

// boundFor answers one CheapBounds evaluation for a live-topic mask
// without running a BFS: (ub, true) when the memo or a dominance
// shortcut yields a usable upper bound on |R_{p+}(u)|, (0, false) when
// the mask is unresolved and the caller must compute it (singly or in a
// batch). Dominance exploits monotonicity of reach in the mask: a
// memoized subset that already matches the all-topics count pins this
// mask to the same count, and any memoized superset's value
// upper-bounds this mask's. A superset value at or below thr resolves
// the entry (the caller will prune on it); with deep set, any superset
// value resolves it — deepest-level entries trade bound tightness for
// skipping the BFS entirely, which is safe because every value is only
// ever used as an upper bound.
func (ex *Explorer) boundFor(u graph.VertexID, mask uint64, thr float64, stats *Stats, deep bool) (float64, bool) {
	if v, hit := ex.boundMemo[mask]; hit {
		stats.BoundCacheHits++
		return v, true
	}
	if ex.maxReach < 0 {
		ex.maxReach = float64(ex.reachableMasked(u, ^uint64(0)))
	}
	super := math.Inf(1)
	for _, mv := range ex.maskList {
		if mv.mask&^mask == 0 && mv.val == ex.maxReach {
			stats.BoundCacheHits++
			ex.memoizeBound(mask, ex.maxReach)
			return ex.maxReach, true
		}
		if mv.mask&mask == mask && mv.val < super {
			super = mv.val
		}
	}
	if super <= thr || (deep && !math.IsInf(super, 1)) {
		stats.BoundCacheHits++
		ex.memoizeBound(mask, super)
		return super, true
	}
	return 0, false
}

// memoizeBound records one computed mask count in both memo shapes.
func (ex *Explorer) memoizeBound(mask uint64, v float64) {
	ex.boundMemo[mask] = v
	ex.maskList = append(ex.maskList, maskVal{mask, v})
}

// resolveMaskBatch computes |R_{p+}(u)| for every pending mask (at most
// 64 per pass) in one word-parallel traversal and memoizes the counts.
// Bit j of a vertex's reach word means "reachable from u under
// pendMasks[j]"; an edge propagates exactly the mask bits it carries a
// live topic for, so a worklist fixed-point over reach words replaces
// one BFS per mask — the same kernel the rrindex posting scans use for
// sibling hit-testing.
func (ex *Explorer) resolveMaskBatch(u graph.VertexID) {
	if ex.edgeTopicMask == nil {
		ex.buildEdgeTopicMasks()
	}
	g := ex.g
	if ex.batchReach == nil {
		ex.batchReach = make([]uint64, g.NumVertices())
		ex.batchAllowed = make([]uint64, g.NumEdges())
		ex.batchInQueue = make([]bool, g.NumVertices())
	}
	for start := 0; start < len(ex.pendMasks); start += 64 {
		masks := ex.pendMasks[start:min(start+64, len(ex.pendMasks))]
		// topicWord[z]: which masks carry topic z. LiveTopics only packs
		// models with <= 64 topics, so the table is complete.
		var topicWord [64]uint64
		for j, m := range masks {
			for m != 0 {
				z := bits.TrailingZeros64(m)
				topicWord[z] |= 1 << uint(j)
				m &= m - 1
			}
		}
		allowed := ex.batchAllowed
		for e, em := range ex.edgeTopicMask {
			var w uint64
			for t := em; t != 0; t &= t - 1 {
				w |= topicWord[bits.TrailingZeros64(t)]
			}
			allowed[e] = w
		}
		full := ^uint64(0) >> uint(64-len(masks))
		reach := ex.batchReach
		touched := append(ex.batchTouched[:0], u)
		reach[u] = full
		// Deduplicated FIFO worklist: a vertex re-enters only when its
		// word grows while it is not already queued, so each fixpoint
		// round costs at most one scan per live vertex (an undeduped
		// stack degrades to one re-scan per word bit).
		queue := append(ex.reachStack[:0], u)
		inQueue := ex.batchInQueue
		inQueue[u] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			inQueue[v] = false
			rv := reach[v]
			edges := g.OutEdges(v)
			nbrs := g.OutNeighbors(v)
			for i, e := range edges {
				add := rv & allowed[e]
				if add == 0 {
					continue
				}
				t := nbrs[i]
				if add &^= reach[t]; add == 0 {
					continue
				}
				if reach[t] == 0 {
					touched = append(touched, t)
				}
				reach[t] |= add
				if !inQueue[t] {
					inQueue[t] = true
					queue = append(queue, t)
				}
			}
		}
		var counts [64]int
		for _, v := range touched {
			for w := reach[v]; w != 0; w &= w - 1 {
				counts[bits.TrailingZeros64(w)]++
			}
			reach[v] = 0
		}
		ex.reachStack, ex.batchTouched = queue[:0], touched
		for j, m := range masks {
			ex.memoizeBound(m, float64(counts[j]))
		}
	}
}

// reachableMasked is reachableUnder specialized to a live-topic mask: an
// edge has positive p+(e|W) exactly when it carries a topic in the mask
// (see Prober.LiveTopics), so the BFS tests one AND per edge against the
// precomputed edgeTopicMask instead of running Lemma 8 arithmetic.
func (ex *Explorer) reachableMasked(u graph.VertexID, mask uint64) int {
	if ex.edgeTopicMask == nil {
		ex.buildEdgeTopicMasks()
	}
	em := ex.edgeTopicMask
	g := ex.g
	mark := ex.reachMark
	stack := append(ex.reachStack[:0], u)
	mark[u] = true
	reached := append(ex.reached[:0], u)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		edges := g.OutEdges(v)
		nbrs := g.OutNeighbors(v)
		for i, e := range edges {
			if em[e]&mask == 0 {
				continue
			}
			if t := nbrs[i]; !mark[t] {
				mark[t] = true
				reached = append(reached, t)
				stack = append(stack, t)
			}
		}
	}
	for _, v := range reached {
		mark[v] = false
	}
	ex.reachStack, ex.reached = stack, reached
	return len(reached)
}

// buildEdgeTopicMasks fills edgeTopicMask: bit z of entry e is set when
// p(e|z) > 0. Graph-only state, built once per explorer on the first
// masked bound. Only reachableMasked consults it, and LiveTopics already
// refuses models with more than 64 topics, so truncation cannot occur.
func (ex *Explorer) buildEdgeTopicMasks() {
	em := make([]uint64, ex.g.NumEdges())
	for e := range em {
		ids, probs := ex.g.EdgeTopics(graph.EdgeID(e))
		var m uint64
		for i, z := range ids {
			if probs[i] > 0 {
				m |= 1 << uint(z)
			}
		}
		em[e] = m
	}
	ex.edgeTopicMask = em
}

// frontierRow returns row i of the frontier arena, sized once for the
// widest possible frontier: no expansion has more children than tags.
func (ex *Explorer) frontierRow(i int) []float64 {
	Z := ex.m.NumTopics()
	if ex.postArena == nil {
		ex.postArena = make([]float64, ex.m.NumTags()*Z)
	}
	return ex.postArena[i*Z : (i+1)*Z]
}

// stageBoundRow copies a prepared partial set's Lemma 8 completion
// weights pzBound into frontier row i (the prober's state dies at the
// next Prepare). Estimated as a row — graph.EdgeProb's
// min(1, Σ_z p(e|z)·pzBound(z)) per edge — it is the sum branch of
// p+(e|W), which dominates p(e|W') for every completion W'.
func (ex *Explorer) stageBoundRow(i int, p Prober) {
	_, weights := p.Spec()
	copy(ex.frontierRow(i), weights)
}

// boundStaged estimates the first n staged bound rows in one
// EstimateFrontier call. Stopping is always disarmed: a bound must never
// be an extrapolation, or it could undercut a completion it covers.
func (ex *Explorer) boundStaged(u graph.VertexID, n int, stats *Stats) []sampling.Result {
	rows := ex.postRows[:0]
	for i := 0; i < n; i++ {
		rows = append(rows, ex.frontierRow(i))
	}
	ex.postRows = rows
	stats.PartialBoundsEstimated += int64(n)
	results := ex.fest.EstimateFrontier(u, rows, sampling.StopRule{})
	for _, r := range results {
		stats.SamplesDrawn += r.Samples
	}
	return results
}

// evalFrontier evaluates a lazily-deferred frontier batch: posteriors for
// every member are materialized into reused scratch rows, undefined
// members score exactly 1 without touching the estimator, and the rest go
// to the FrontierEstimator in one call carrying the current pruning
// threshold as the stop rule.
func (ex *Explorer) evalFrontier(u graph.VertexID, fb *frontierBatch, thr float64, stats *Stats) {
	rows := ex.postRows[:0]
	idx := ex.postIdx[:0]
	fb.inf = make([]float64, len(fb.tags))
	for i, tags := range fb.tags {
		row := ex.frontierRow(len(rows))
		if !ex.m.PosteriorInto(tags, row) {
			fb.inf[i] = 1 // undefined posterior: influence is exactly 1
			continue
		}
		rows = append(rows, row)
		idx = append(idx, int32(i))
	}
	if len(rows) > 0 {
		stats.FullSetsEstimated += int64(len(rows))
		results := ex.fest.EstimateFrontier(u, rows, sampling.StopRule{
			Threshold:   thr,
			LogInvDelta: ex.StopLogInvDelta,
		})
		for j, r := range results {
			fb.inf[idx[j]] = r.Influence
			stats.SamplesDrawn += r.Samples
		}
	}
	ex.postRows, ex.postIdx = rows, idx
	fb.done = true
}
