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
// whole frontier of tag sets for one user in a single call. The explorer
// hands over one round at a time, one per-topic weight row per set — the
// Eq. 1 posterior of a full-size set, the Lemma 8 completion weights of a
// partial one (see the package comment) — letting the estimator share
// per-edge probe work across rows (frontier-scoped probe caching, bitset
// hit-testing). Results are positional: Result[i] scores posteriors[i]
// through graph.EdgeProb, identical to per-row EstimateProber calls. The
// returned slice may be the estimator's scratch, overwritten by its next
// call; the explorer reads it before estimating again. The explorer
// always passes the empty StopRule.
type FrontierEstimator interface {
	EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result
}

// RoundSizer is an optional FrontierEstimator capability for estimators
// whose every call carries a fixed cost beyond its rows, like a
// coordinator's scatter: one round trip to every shard. RoundRows is how
// many rows one call should carry; the explorer keeps adding heap entries
// to a round while their children fit, so one call carries several
// expansions. Without the capability — every in-process estimator, where a
// wider round only adds rows — a round is one expansion.
type RoundSizer interface {
	RoundRows() int
}

// Stats reports how much work a query performed; the Fig. 11/12 discussion
// is about these numbers (pruning driven by tag-topic density).
type Stats struct {
	// FullSetsEstimated is the number of size-k tag sets whose influence
	// was actually estimated.
	FullSetsEstimated int64
	// PartialBoundsEstimated is the number of partial sets whose Lemma 8
	// upper bound was estimated: every bound row of a round under a
	// FrontierEstimator. It is 0 for the online loop, whose bounds are
	// reach counts, not estimates.
	PartialBoundsEstimated int64
	// PrunedUnsupported counts branches discarded because no completion
	// had a defined posterior or, under a FrontierEstimator, because too
	// few tags above the branch's last one remain to complete it.
	PrunedUnsupported int64
	// PrunedByBound counts branches discarded by the upper-bound test.
	PrunedByBound int64
	// FrontierExpansions is the number of heap entries expanded into
	// children (the best-first loop's fan-out events).
	FrontierExpansions int64
	// SamplesDrawn totals the sample instances the estimator generated
	// across every full-set and bound estimation of the query.
	SamplesDrawn int64
	// BoundCacheHits counts reach-count bounds answered from the
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
	// All holds the m best tag sets in canonical answer order: influence
	// descending, then sorted tag IDs ascending (All[0] repeats
	// Tags/Influence).
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
	// CheapBounds is read by nothing: the online loop always bounds a
	// partial set by its reach count. The field stays only because the
	// benchmark harness in bench/ still sets it; ROADMAP item 1 removes
	// both.
	CheapBounds bool
	// StopLogInvDelta is read by nothing: no estimate is ever stopped
	// early. The field stays only because the benchmark harness in bench/
	// still sets it.
	StopLogInvDelta float64

	// fest is est's frontier capability, detected at construction; nil
	// keeps the online loop: one call per full set and reach-count
	// bounds. roundRows is fest's RoundSizer width, 0 for one expansion
	// per round.
	fest      FrontierEstimator
	roundRows int
	// bounder holds the model-only Lemma 8 tables, built on the first
	// query and retargeted at each query's k. roots[k] memoises the round
	// of an empty-prefix root at k (see rootRound), built on the first
	// such query.
	bounder *Bounder
	roots   []*rootRound

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
	// freeAbove[w] counts the tags ≥ w outside the query's prefix, so tag
	// w is free exactly when freeAbove[w] > freeAbove[w+1]; key is the
	// scratch for one sorted tag list under canonical comparison.
	freeAbove []int
	key       []topics.TagID

	// Reach-count memoization: partial sets sharing a live-topic mask
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
	// Deferred-children scratch: the rows staged by the current round
	// under a FrontierEstimator, or one expansion's children awaiting the
	// batch reach count in the online loop (pend); the deduped unresolved
	// masks (pendMasks); and the word-parallel BFS buffers — a reach word
	// per vertex, an allowed word per edge, and the touched-vertex list
	// for sparse reset.
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

	// Round scratch: the weight rows of one EstimateFrontier call —
	// full-set posteriors and partial-set bound rows — as an arena plus
	// row headers, reused across rounds (the estimator only reads rows
	// during the call).
	postArena []float64
	postRows  [][]float64
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
		g:          g,
		m:          m,
		est:        est,
		posterior:  make([]float64, m.NumTopics()),
		reachMark:  make([]bool, g.NumVertices()),
		freeAbove:  make([]int, m.NumTags()+1),
		parentPost: make([]float64, m.NumTopics()),
		childPost:  make([]float64, m.NumTopics()),
	}
	ex.fest, _ = est.(FrontierEstimator)
	if rs, ok := est.(RoundSizer); ok && ex.fest != nil {
		ex.roundRows = rs.RoundRows()
	}
	// The round loop pops equal bounds in ascending tag order, the order
	// its answers and prunes use; the online loop keeps its pop order.
	ex.heap.byTags = ex.fest != nil
	return ex
}

// heapEntry orders partial solutions by bound, descending: in the round
// loop the entry's own row bound; in the online loop its own bound when
// computed eagerly at expansion (bounded: a reach count), the parent's
// otherwise. lastAdded is the largest tag appended after the fixed prefix
// (-1 when only the prefix is present); children only append larger tags
// so each completion is generated exactly once.
type heapEntry struct {
	tags      []topics.TagID
	lastAdded topics.TagID
	bound     float64
	bounded   bool
}

// maskVal is one memoized reach-count bound: the live-topic mask
// and its reachable-set count (or a proven upper bound on it, for
// dominance-derived deep-level entries — every consumer treats the
// value as an upper bound, so looseness is safe).
type maskVal struct {
	mask uint64
	val  float64
}

// pendChild is one child awaiting its estimate: row i of the round's
// frontier arena under a FrontierEstimator (full marks a full-size set's
// posterior, otherwise a bound row), the reach count of mask in the
// online loop.
type pendChild struct {
	tags      []topics.TagID
	lastAdded topics.TagID
	mask      uint64
	full      bool
}

// rootRound is the memoised expansion of an empty-prefix root for one k:
// the rows its children stage (row i of rows belongs to pend[i]), the
// full children it records at influence 1 (k = 1 only) and its
// PrunedUnsupported count. expand reads the model and k alone — never the
// user, m or the threshold — so every empty-prefix query at k begins with
// this same round.
type rootRound struct {
	rows        []float64
	pend        []pendChild
	undefined   []Scored
	unsupported int64
}

// maxHeap is a hand-rolled binary max-heap on bound. container/heap moves
// entries through interface{} values, which boxes one allocation per
// push/pop — a measurable share of per-query allocations on this path.
// With byTags, equal bounds pop in ascending tag-list order; the compare
// runs only on exactly equal bounds.
type maxHeap struct {
	s      []heapEntry
	byTags bool
}

// above reports whether entry i belongs above entry j.
func (h *maxHeap) above(i, j int) bool {
	a, b := &h.s[i], &h.s[j]
	if a.bound > b.bound {
		return true
	}
	return h.byTags && a.bound == b.bound && slices.Compare(a.tags, b.tags) < 0
}

func (h *maxHeap) push(e heapEntry) {
	h.s = append(h.s, e)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.above(i, p) {
			break
		}
		h.s[p], h.s[i] = h.s[i], h.s[p]
		i = p
	}
}

func (h *maxHeap) pop() heapEntry {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = heapEntry{} // drop the tag-slice reference
	h.s = s[:n]
	h.down(0)
	return top
}

// prune drops every entry cut reports in one pass and restores the heap
// order bottom-up, returning how many it dropped. With a cut that is
// monotone in the heap order — once an entry is cut, so is every entry
// that would pop after it — this drops exactly what popping while the top
// is cut would, in O(n) instead of O(n log n).
func (h *maxHeap) prune(cut func(*heapEntry) bool) int {
	kept := h.s[:0]
	for i := range h.s {
		if !cut(&h.s[i]) {
			kept = append(kept, h.s[i])
		}
	}
	dropped := len(h.s) - len(kept)
	clear(h.s[len(kept):]) // drop the tag-slice references
	h.s = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return dropped
}

// down sifts entry i towards the leaves until the heap order holds below it.
func (h *maxHeap) down(i int) {
	s, n := h.s, len(h.s)
	for {
		m := i
		if l := 2*i + 1; l < n && h.above(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && h.above(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// QueryTopCtx is Run without a prefix. It exists only for the benchmark
// harness in bench/ until ROADMAP item 1(b) moves it to Run.
func (ex *Explorer) QueryTopCtx(ctx context.Context, u graph.VertexID, k, m int) (Result, error) {
	return ex.Run(ctx, u, k, m, nil)
}

// search is one query's state, shared by the online and the round loop.
type search struct {
	ex      *Explorer
	u       graph.VertexID
	k, m    int
	bounder *Bounder
	// best holds up to m results in canonical answer order.
	best  []Scored
	stats Stats
}

// Run answers the PITEX query (u, k): the m best size-k tag sets in
// canonical answer order (fewer if fewer exist), by estimated E[I(u|W)]
// with Lemma 8 pruning of partial branches. m > 1 widens the pruning
// threshold to the m-th best value, so larger m explores more. A non-empty
// prefix constrains every answer to contain it: the interactive exploration
// flow the paper motivates, where a user pins the tags they will certainly
// post about and asks what to add. The explorer checks ctx between
// best-first expansions and abandons the query with ctx.Err() once the
// context is cancelled or its deadline passes, so a serving layer can bound
// tail latency and drop work for disconnected clients.
//
// Run is all of Algo 5: its argument checks, then the online loop or,
// under a frontier estimator, the round loop.
func (ex *Explorer) Run(ctx context.Context, u graph.VertexID, k, m int, prefix []topics.TagID) (Result, error) {
	if int(u) < 0 || int(u) >= ex.g.NumVertices() {
		return Result{}, fmt.Errorf("bestfirst: user %d outside [0,%d)", u, ex.g.NumVertices())
	}
	if k <= 0 || k > ex.m.NumTags() {
		return Result{}, fmt.Errorf("bestfirst: k = %d outside [1,%d]", k, ex.m.NumTags())
	}
	if m <= 0 {
		return Result{}, fmt.Errorf("bestfirst: m = %d, want >= 1", m)
	}
	if len(prefix) > k {
		return Result{}, fmt.Errorf("bestfirst: prefix size %d exceeds k = %d", len(prefix), k)
	}
	for i, w := range prefix {
		if int(w) < 0 || int(w) >= ex.m.NumTags() {
			return Result{}, fmt.Errorf("bestfirst: prefix tag %d outside [0,%d)", w, ex.m.NumTags())
		}
		if slices.Contains(prefix[:i], w) {
			return Result{}, fmt.Errorf("bestfirst: duplicate prefix tag %d", w)
		}
	}

	if ex.bounder == nil {
		ex.bounder = NewBounder(ex.g, ex.m, k)
	}
	s := search{ex: ex, u: u, k: k, m: m, bounder: ex.bounder.forK(k), best: make([]Scored, 0, m)}
	ex.markFree(prefix)
	ex.tags.reset()
	ex.heap.s = ex.heap.s[:0]
	root := heapEntry{
		tags:      append(ex.tags.alloc(len(prefix))[:0], prefix...),
		lastAdded: -1,
		bound:     float64(ex.g.NumVertices()),
	}
	var err error
	if ex.fest == nil {
		err = s.online(ctx, root)
	} else {
		err = s.rounds(ctx, root)
	}
	if err != nil {
		return Result{}, err
	}

	best := s.best
	if len(best) == 0 {
		// Every tag set was undefined; return the lexicographically first
		// completion with its exact trivial influence.
		tags := append([]topics.TagID(nil), prefix...)
		for w := topics.TagID(0); len(tags) < k; w++ {
			if ex.free(w) {
				tags = append(tags, w)
			}
		}
		slices.Sort(tags)
		best = append(best, Scored{Tags: tags, Influence: 1})
	}
	return Result{Tags: best[0].Tags, Influence: best[0].Influence, All: best, Stats: s.stats}, nil
}

// markFree fills freeAbove for a query with this prefix.
func (ex *Explorer) markFree(prefix []topics.TagID) {
	fa := ex.freeAbove
	T := len(fa) - 1
	for w := range fa[:T] {
		fa[w] = 1
	}
	fa[T] = 0
	for _, w := range prefix {
		fa[w] = 0
	}
	for w := T - 1; w >= 0; w-- {
		fa[w] += fa[w+1]
	}
}

// free reports whether tag w lies outside the query's prefix.
func (ex *Explorer) free(w topics.TagID) bool {
	return ex.freeAbove[w] > ex.freeAbove[w+1]
}

// threshold is the pruning bar: the m-th best influence, or -1 until m
// results exist.
func (s *search) threshold() float64 {
	if len(s.best) < s.m {
		return -1
	}
	return s.best[len(s.best)-1].Influence
}

// record inserts a scored full set into best in canonical answer order —
// influence descending, then sorted tag IDs ascending — keeping the first
// m. The kept set is thus independent of the order sets are recorded in.
func (s *search) record(tags []topics.TagID, inf float64) {
	if len(s.best) == s.m && inf < s.best[s.m-1].Influence {
		return
	}
	key := append(s.ex.key[:0], tags...)
	slices.Sort(key)
	s.ex.key = key
	i := sort.Search(len(s.best), func(i int) bool { return s.best[i].Influence <= inf })
	for i < len(s.best) && s.best[i].Influence == inf && slices.Compare(s.best[i].Tags, key) < 0 {
		i++
	}
	if i >= s.m {
		return
	}
	// Copy out of the arena: entries die at query end.
	s.best = append(s.best, Scored{})
	copy(s.best[i+1:], s.best[i:])
	s.best[i] = Scored{Tags: slices.Clone(key), Influence: inf}
	if len(s.best) > s.m {
		s.best = s.best[:s.m]
	}
}

// cut is the round loop's prune test in canonical order: no completion of
// W (bound ub, last appended tag last) can enter the top m. Influence
// decides unless ub ties the m-th best; then W's lexicographically
// smallest completion — W plus the smallest free tags above last — must
// not sort before the m-th best's tags. Every completion of W estimates at
// most ub, so each one either ranks below the m-th best or is it.
//
// cut is monotone in the round heap's order: an entry that pops after a
// cut one has a lower bound, or the same bound and a later tag list, whose
// smallest completion sorts no earlier (the lists share the prefix and
// append ascending tags). So once the top is cut, the whole heap is.
func (s *search) cut(tags []topics.TagID, last topics.TagID, ub float64) bool {
	if len(s.best) < s.m {
		return false
	}
	mth := &s.best[s.m-1]
	if ub != mth.Influence {
		return ub < mth.Influence
	}
	key := append(s.ex.key[:0], tags...)
	for w := last + 1; len(key) < s.k; w++ {
		if s.ex.free(w) {
			key = append(key, w)
		}
	}
	slices.Sort(key)
	s.ex.key = key
	return slices.Compare(key, mth.Tags) >= 0
}

// online is Algo 5 for estimators without the frontier capability: one
// estimation per full set, and a partial set bounded by its reach count
// under positive p+(e|W) edges — a true upper bound on the influence of
// every completion (Lemma 8) — resolved at expansion.
func (s *search) online(ctx context.Context, root heapEntry) error {
	ex, u, k := s.ex, s.u, s.k
	if ex.boundMemo == nil {
		ex.boundMemo = make(map[uint64]float64)
	} else {
		clear(ex.boundMemo) // reachability depends on u; memo is per-query
	}
	ex.maskList = ex.maskList[:0]
	ex.maxReach = -1

	// admit pushes an eagerly bounded child keyed by its own bound, unless
	// the bound already cannot beat the threshold.
	admit := func(pc pendChild, ub float64) {
		if ub <= s.threshold() {
			s.stats.PrunedByBound++
			return
		}
		ex.heap.push(heapEntry{tags: pc.tags, lastAdded: pc.lastAdded, bound: ub, bounded: true})
	}

	h := &ex.heap
	h.push(root)
	for len(h.s) > 0 {
		// Each iteration estimates a full set or a partial bound — the
		// expensive units of work — so the cancellation check here bounds
		// overrun to one estimation.
		if err := ctx.Err(); err != nil {
			return err
		}
		ent := h.pop()
		if len(ent.tags) == k {
			if !ex.m.PosteriorInto(ent.tags, ex.posterior) {
				// Undefined posterior: influence is exactly 1.
				s.record(ent.tags, 1)
				continue
			}
			s.stats.FullSetsEstimated++
			// Index estimators cache each edge's probability in their own
			// width-1 scan scope; single-pass estimators like TIM are
			// handed the raw prober — a cache layer would be all misses.
			est := ex.est.EstimateProber(u, sampling.PosteriorProber{G: ex.g, Posterior: ex.posterior})
			s.stats.SamplesDrawn += est.Samples
			s.record(ent.tags, est.Influence)
			continue
		}

		// Partial set: bound (unless expansion already did), prune, or
		// expand.
		if len(ent.tags) > 0 && !ent.bounded {
			prober, ok := s.bounder.Prepare(ent.tags)
			if !ok {
				s.stats.PrunedUnsupported++
				continue
			}
			if mask, ok := prober.LiveTopics(); ok {
				var resolved bool
				ent.bound, resolved = ex.boundFor(u, mask, s.threshold(), &s.stats, false)
				if !resolved {
					ent.bound = float64(ex.reachableMasked(u, mask))
					ex.memoizeBound(mask, ent.bound)
				}
			} else {
				ent.bound = float64(ex.reachableUnder(u, prober))
			}
			ent.bounded = true
		}
		if ent.bounded && ent.bound <= s.threshold() {
			s.stats.PrunedByBound++
			continue
		}

		// Expand with every non-prefix tag above the last appended tag
		// (canonical order: each completion generated exactly once).
		s.stats.FrontierExpansions++
		full := len(ent.tags)+1 == k
		// Partial children are bounded eagerly, by masked reach: shallow
		// children (whose subtrees are large) get exact counts, batched
		// into one word-parallel BFS per expansion; deepest-level children
		// (whose children are the full sets) settle for the dominance upper
		// bound — no BFS at all.
		deepest := len(ent.tags)+1 == k-1
		ex.pend = ex.pend[:0]
		ex.pendMasks = ex.pendMasks[:0]
		// Every eager child shares the parent posterior, so materialize it
		// once and derive each child's by a single-tag extension instead of
		// re-multiplying the whole set per child.
		haveParent := !full && ex.m.PosteriorInto(ent.tags, ex.parentPost)
		for w := ent.lastAdded + 1; int(w) < ex.m.NumTags(); w++ {
			if !ex.free(w) {
				continue
			}
			child := ex.tags.alloc(len(ent.tags) + 1)
			copy(child, ent.tags)
			child[len(ent.tags)] = w
			if full {
				h.push(heapEntry{tags: child, lastAdded: w, bound: ent.bound})
				continue
			}
			prober, ok := s.bounder.prepareChild(child, haveParent, ex.parentPost, ex.childPost)
			if !ok {
				s.stats.PrunedUnsupported++
				continue
			}
			mask, mok := prober.LiveTopics()
			if !mok {
				// Mask too wide to pack: push unbounded; the pop path
				// falls back to reachableUnder.
				h.push(heapEntry{tags: child, lastAdded: w, bound: ent.bound})
				continue
			}
			ub, resolved := ex.boundFor(u, mask, s.threshold(), &s.stats, deepest)
			if !resolved && deepest {
				// A deepest-level mask with no usable superset (a prefix
				// root, or k == 2): resolve it exactly.
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
		}
		if len(ex.pend) > 0 {
			ex.resolveMaskBatch(u)
			for _, pc := range ex.pend {
				admit(pc, ex.boundMemo[pc.mask])
			}
		}
	}
	return nil
}

// rounds is Algo 5 under a frontier estimator. Each round pops heap
// entries and stages all their children as rows of one EstimateFrontier
// call: a full-size child's posterior, a partial child's Lemma 8 bound
// row. A round takes entries while the staged rows plus the next entry's
// children fit in roundRows; its first entry is always taken. The
// results are then handled in two steps, every full set recorded before
// any bound is admitted, so a round's bounds meet the threshold its own
// full sets raised. Because record and cut both use the canonical answer
// order, the answer does not depend on how wide the rounds are.
func (s *search) rounds(ctx context.Context, root heapEntry) error {
	ex := s.ex
	if len(root.tags) == s.k {
		// A full prefix is the only candidate: a round of one row.
		ex.pend = ex.pend[:0]
		s.stageFull(root.tags)
		s.flush()
		return nil
	}
	h := &ex.heap
	if len(root.tags) == 0 {
		// The empty root is its round's only entry, and that round
		// depends on the model and k alone: replay it from the memo.
		if err := ctx.Err(); err != nil {
			return err
		}
		s.replayRoot()
		s.flush()
	} else {
		// A prefix root's bound could prune nothing — nothing is recorded
		// yet — so it is checked for support but never estimated.
		if _, ok := s.bounder.Prepare(root.tags); !ok {
			s.stats.PrunedUnsupported++
			return nil
		}
		h.push(root)
	}
	cut := func(e *heapEntry) bool { return s.cut(e.tags, e.lastAdded, e.bound) }
	for len(h.s) > 0 {
		// Each round is one estimator call, so checking here bounds the
		// overrun to one call.
		if err := ctx.Err(); err != nil {
			return err
		}
		ex.pend = ex.pend[:0]
		for expanded := 0; len(h.s) > 0; {
			if cut(&h.s[0]) {
				// cut is monotone in the heap order, so this drops what
				// popping while the top is cut would.
				s.stats.PrunedByBound += int64(h.prune(cut))
				continue
			}
			top := &h.s[0]
			if expanded > 0 && len(ex.pend)+s.children(top) > ex.roundRows {
				break
			}
			s.expand(h.pop())
			expanded++
		}
		s.flush()
	}
	return nil
}

// replayRoot stages the empty root's round from the explorer's memo for
// k, building the memo on first use by expanding the root into a search
// that keeps every set it records.
func (s *search) replayRoot() {
	ex := s.ex
	if len(ex.roots) <= s.k {
		ex.roots = append(ex.roots, make([]*rootRound, s.k+1-len(ex.roots))...)
	}
	r := ex.roots[s.k]
	if r == nil {
		build := search{ex: ex, k: s.k, m: ex.m.NumTags(), bounder: s.bounder}
		ex.pend = ex.pend[:0]
		build.expand(heapEntry{lastAdded: -1})
		r = &rootRound{
			rows:        slices.Clone(ex.postArena[:len(ex.pend)*ex.m.NumTopics()]),
			pend:        slices.Clone(ex.pend),
			undefined:   build.best,
			unsupported: build.stats.PrunedUnsupported,
		}
		// The root's children are one-tag sets; give them storage that
		// outlives the query's tag arena.
		tags := make([]topics.TagID, len(r.pend))
		for i := range r.pend {
			tags[i] = r.pend[i].tags[0]
			r.pend[i].tags = tags[i : i+1 : i+1]
		}
		ex.roots[s.k] = r
	}
	// expand counts nothing but the expansion and its unsupported children.
	s.stats.FrontierExpansions++
	s.stats.PrunedUnsupported += r.unsupported
	for _, sc := range r.undefined {
		s.record(sc.Tags, 1)
	}
	copy(ex.postArena, r.rows) // the build sized the arena for these rows
	ex.pend = append(ex.pend[:0], r.pend...)
}

// children is how many children expanding ent stages at most: its free
// tags above lastAdded, less those too high to leave room for a
// completion.
func (s *search) children(ent *heapEntry) int {
	return s.ex.freeAbove[ent.lastAdded+1] - (s.k - len(ent.tags) - 1)
}

// expand stages ent's children as rows of the current round: each
// full-size child's posterior, and the bound row of each partial child
// that can still complete. Undefined full sets are recorded at once, at
// their exact influence 1.
func (s *search) expand(ent heapEntry) {
	ex := s.ex
	s.stats.FrontierExpansions++
	full := len(ent.tags)+1 == s.k
	// Every partial child shares the parent posterior, so materialize it
	// once and derive each child's by a single-tag extension.
	haveParent := !full && ex.m.PosteriorInto(ent.tags, ex.parentPost)
	// A full child whose tag supports none of the topics ent's tags all
	// support has no posterior; the masks find it without a PosteriorInto.
	support, masked := s.bounder.support(ent.tags)
	// need is how many free tags a partial child must find above its own
	// last tag to complete in canonical order.
	need := s.k - len(ent.tags) - 1
	for w := ent.lastAdded + 1; int(w) < ex.m.NumTags(); w++ {
		if !ex.free(w) {
			continue
		}
		if ex.freeAbove[w+1] < need {
			// Neither w nor any later tag leaves room for a completion.
			s.stats.PrunedUnsupported += int64(ex.freeAbove[w])
			return
		}
		child := ex.tags.alloc(len(ent.tags) + 1)
		copy(child, ent.tags)
		child[len(ent.tags)] = w
		if full {
			if masked && support&s.bounder.tagMask[w] == 0 {
				s.record(child, 1)
			} else {
				s.stageFull(child)
			}
			continue
		}
		prober, ok := s.bounder.prepareChild(child, haveParent, ex.parentPost, ex.childPost)
		if !ok {
			s.stats.PrunedUnsupported++
			continue
		}
		ex.stageBoundRow(len(ex.pend), prober)
		ex.pend = append(ex.pend, pendChild{tags: child, lastAdded: w})
	}
}

// stageFull stages a full set's posterior as the round's next row, or
// records it at influence exactly 1 when the posterior is undefined.
func (s *search) stageFull(tags []topics.TagID) {
	ex := s.ex
	if !ex.m.PosteriorInto(tags, ex.frontierRow(len(ex.pend))) {
		s.record(tags, 1)
		return
	}
	ex.pend = append(ex.pend, pendChild{tags: tags, full: true})
}

// flush estimates the round's staged rows in one EstimateFrontier call,
// records its full sets, then admits its bounds.
func (s *search) flush() {
	ex := s.ex
	if len(ex.pend) == 0 {
		return
	}
	rows := ex.postRows[:0]
	var fulls int64
	for i, pc := range ex.pend {
		rows = append(rows, ex.frontierRow(i))
		if pc.full {
			fulls++
		}
	}
	ex.postRows = rows
	s.stats.FullSetsEstimated += fulls
	s.stats.PartialBoundsEstimated += int64(len(rows)) - fulls
	results := ex.fest.EstimateFrontier(s.u, rows, sampling.StopRule{})
	for i, r := range results {
		s.stats.SamplesDrawn += r.Samples
		if pc := ex.pend[i]; pc.full {
			s.record(pc.tags, r.Influence)
		}
	}
	for i, r := range results {
		pc := ex.pend[i]
		switch {
		case pc.full:
		case s.cut(pc.tags, pc.lastAdded, r.Influence):
			s.stats.PrunedByBound++
		default:
			ex.heap.push(heapEntry{tags: pc.tags, lastAdded: pc.lastAdded, bound: r.Influence})
		}
	}
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

// boundFor answers one reach-count bound for a live-topic mask
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

// frontierRow returns row i of the round arena, sized once for the widest
// possible round: its first expansion stages at most one row per tag, and
// further entries join only while the round fits in roundRows.
func (ex *Explorer) frontierRow(i int) []float64 {
	Z := ex.m.NumTopics()
	if ex.postArena == nil {
		ex.postArena = make([]float64, max(ex.m.NumTags(), ex.roundRows)*Z)
	}
	return ex.postArena[i*Z : (i+1)*Z]
}

// stageBoundRow copies a prepared partial set's Lemma 8 completion
// weights pzBound into frontier row i (the prober's state dies at the
// next Prepare). Estimated as a row — graph.EdgeProb's
// min(1, Σ_z p(e|z)·pzBound(z)) per edge — it is the sum branch of
// p+(e|W), which dominates p(e|W') for every completion W'.
func (ex *Explorer) stageBoundRow(i int, p Prober) {
	copy(ex.frontierRow(i), p.Weights())
}
