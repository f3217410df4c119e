package rrindex

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
)

// DelayMat is the delay-materialization index of Sec. 6.3: the offline
// phase stores only θ(u) — how many of the θ RR-Graphs contain each user —
// and the query phase "recovers" θ(u) RR-Graphs that (a) all contain the
// query user and (b) follow exactly the distribution of offline RR-Graphs
// conditioned on containing the user (Theorem 3, Algo 4):
//
//  1. forward-sample a cascade subgraph G' from u under p(e) = max_z p(e|z);
//  2. pick a uniform vertex v' among the activated set V';
//  3. the recovered RR-Graph is the part of G' that reaches v', with fresh
//     draws c(e) ~ U[0, p(e)) on its edges.
type DelayMat struct {
	g     *graph.Graph
	theta int64
	// counts[u] = θ(u).
	counts []int64

	// members is the optional incremental-repair bookkeeping
	// (BuildOptions.TrackMembers): the target and member set of each
	// conceptual offline RR-Graph, as a store's vertex half, so Repair can
	// decide which graphs a mutation invalidates and patch counters by
	// decrement/re-sample/increment. nil when not tracked (the Table 3
	// counters-only configuration); a DelayMat loaded from disk is never
	// repairable.
	members *graphStore

	footprint int64 // cached MemoryFootprint
}

// BuildDelayMat runs the offline counting phase: it samples the same θ
// RR-Graphs as Build would, but only increments per-user counters instead
// of materializing anything. With opts.TrackMembers it additionally
// records each graph's member set and target for incremental Repair.
func BuildDelayMat(g *graph.Graph, opts BuildOptions) (*DelayMat, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, fmt.Errorf("rrindex: %w", err)
	}
	theta, err := opts.Theta(g.NumVertices())
	if err != nil {
		return nil, err
	}
	return newBuild(g).delayMat(opts, nil, theta)
}

// Theta returns θ, the offline sample count.
func (dm *DelayMat) Theta() int64 { return dm.theta }

// Count returns θ(u).
func (dm *DelayMat) Count(u graph.VertexID) int64 { return dm.counts[u] }

// MemoryFootprint is the bytes the index retains: one counter per user
// (Table 3's "DelayMat size" column), plus the member store when the
// index was built with TrackMembers, all by capacity. Cached at
// build/load/repair time, so the call is O(1).
func (dm *DelayMat) MemoryFootprint() int64 { return dm.footprint }

// recomputeFootprint refreshes the cached MemoryFootprint value.
func (dm *DelayMat) recomputeFootprint() {
	b := int64(cap(dm.counts)) * 8
	if dm.members != nil {
		b += dm.members.footprint()
	}
	dm.footprint = b
}

// DelayEstimator is the DelayMat scan policy: recover the query user's
// RR-Graphs, then hit-test them exactly as Estimator does an index's.
// Recovered RR-Graphs are cached per user so repeated estimations for the
// same query user (one PITEX query estimates many tag sets) pay recovery
// once, exactly like the materialized index amortizes construction.
// Recovered graphs are assembled into a per-estimator store (reused across
// recoveries), so a recovery costs a handful of allocations rather than
// six per graph. Not safe for concurrent use.
//
// Algo 4 needs θ(u) accepted forward cascades out of about θ attempts. It
// tosses no coin per out-edge, and most attempts run no cascade at all:
// the paper's own lazy propagation (Sec. 5.1, Algo 2) draws which edges
// fire, and an attempt that stops at u's own out-neighbours is jumped.
// Exactness, in five steps:
//
//  1. One uniform per visit. A visit of v fires a subset of its out-edges
//     under the product law. One uniform x picks the first fired edge by
//     inverse CDF over the fireTable's prefix survival products — the
//     first i with S_i < 1 − x, none when 1 − x ≤ q(v) = S_{d−1} — and each
//     further one is the first j > i with S_j < (1 − y)·S_i, y uniform:
//     O(1 + f·log d) for f fired edges, never O(d).
//  2. Shallow attempts. Grouped by head (the rootTable), u's out-edges
//     activate head c with probability α_c, and c then fires at its visit
//     with 1 − q(c): c is activated-and-firing with δ_c, independently of
//     the other heads. An attempt in which no head is, with probability
//     Q = Π_c (1 − δ_c), is shallow: its cascade is u and the heads u
//     activated, each with π_c independently, all silent. Accepted with
//     |V'∩V_s|/|V_s| and given a uniform target there, a shallow attempt
//     yields {u} with probability 1[u∈V_s]/|V_s|, and u→c — c's fired
//     parallel edges conditioned on one firing, with fresh c(e) — with
//     π_c·1[c∈V_s]/|V_s|, whatever the other heads did. So a recovery
//     jumps shallow attempts in bulk: deep ones arrive at Geometric(1 − Q)
//     gaps, the accepted shallow ones at Geometric(a) gaps among the
//     shallow ones, a the sum of those rates (memoryless, so a gap cut
//     short by a deep attempt carries over), and every jumped attempt is
//     charged to the budget. A user whose heads never fire runs no
//     cascade at all.
//  3. Deep attempts. Conditioned on the attempt being deep, the first
//     activated-and-firing head j follows the inverse CDF over the prefix
//     products of 1 − δ. The heads before j are activated, and silent,
//     with probability π each; those after it are activated with α each
//     and visited like any vertex; both are drawn by skipping over the
//     prefix products of 1 − π and 1 − α as step 1 skips over edges, a coin
//     per head once a product is spent. Head j fires conditioned on at
//     least one edge firing, and the cascade goes on by step 1 — a head u
//     left alone may still be reached later, and is then visited as any
//     other vertex. Acceptance, target and restriction are Algo 4's.
//  4. Blocks. The attempts are cut into blocks of blockAttempts(θ)
//     consecutive ones, a length that depends on θ alone. Block b runs on
//     its own stream rng.Mix(seed, shard, u, b) and starts a fresh deep gap
//     and a fresh shallow gap. Attempts are i.i.d. and both gaps are
//     geometric, hence memoryless, so gaps restarted at a block boundary
//     draw the next attempts from the same law as gaps carried over.
//  5. Same stopping rule. The blocks concatenated in order are one
//     attempt sequence whose accepted graphs arrive i.i.d. from the law the
//     per-attempt loop draws from (Theorem 3), so stopping at the θ(u)-th
//     — or at the 8θ+1024 attempt budget — is the same stopping rule.
//     Attempts and cascades are charged up to that graph only.
//
// Recovery is therefore a pure function of (seed, shard, user, θ),
// whatever the number of cores: what an estimator recovered before —
// which users a pool clone happened to serve — cannot change what it
// recovers next, neither scan can perturb the recovered sample, and
// neither can which goroutine ran which block. The calling goroutine
// appends the blocks to the recovered store in order, running a block
// nobody has claimed yet straight into it. Up to GOMAXPROCS − 1 helpers,
// taken without waiting from the generation's helperPool, each claim the
// lowest unclaimed block and run it ahead into one of their slots, at
// least two per goroutine at work. While a helper runs the block the
// caller needs next, the caller runs one ahead as well, and it waits only
// when every slot is taken. When the recovery stops, the blocks still
// running abort and are dropped. A recovery that finds no helper idle runs
// every block itself, straight into its store. The cap counts helpers
// only, not recoveries running on other estimators of the generation.
//
// The fireTable and the helpers are scoped to the graph generation (see
// delayGen), the rootTable to the recovery; a block keeps its gaps in
// locals and clears its cascade's marks, so consecutive blocks and
// recoveries share nothing.
type DelayEstimator struct {
	dm *DelayMat
	scanState

	// The last recovery, as the one-user index the plain scans walk: the
	// recovered graphs, the positions of the deeper ones, the user's
	// in-star entries, how many graphs are rooted at the user (direct
	// hits) and the largest graph's vertex count.
	cachedUser    graph.VertexID
	cachedValid   bool
	recovered     graphStore
	cachedMaxSize int
	posts         []int32
	stars         []uint32
	direct        int

	// gen is what the generation's estimators share; job the recovery's
	// parameters, which the helpers it took (helpers) read.
	gen     *delayGen
	job     recoveryJob
	helpers []*blockHelper
	// The calling goroutine's own blocks run on this scratch. recovering is
	// set while a recovery runs: still set at the next one, it says a block
	// panicked and left the scratch mid-block.
	blockRunner
	recovering bool

	// recoveryAttempts counts Algo 4 attempts charged to the budget,
	// jumped shallow ones included; recoveryCascades the cascades actually
	// simulated (the deep attempts).
	recoveryAttempts, recoveryCascades int64
}

// delayGen is what every DelayEstimator over one ShardedDelayMat
// generation shares: the firing table and the recovery helpers, both made
// on first use and gone with the generation.
type delayGen struct {
	fire    lazyFireTable
	helpers helperPool
}

// recoveryJob is one recovery as its blocks see it: the estimator's seed
// and shard scope, the user, θ(u), u's rootTable and the block layout,
// written by the caller before it starts a helper and left alone until
// every helper has stopped; and the claims, which caller and helpers
// share. Padded: the helpers poll it at every attempt while the caller's
// runner changes at every draw.
type recoveryJob struct {
	_     [64]byte
	g     *graph.Graph
	table *fireTable
	// seed is the estimator's base seed. Shard scope: when numShards > 1
	// the estimator recovers RR-Graphs for one hash partition — cascades
	// are accepted with |V'∩V_s|/|V_s| and targets drawn from V'∩V_s,
	// matching the offline per-shard target distribution. numShards <= 1
	// is the monolithic paper behavior.
	seed      uint64
	shardID   int
	numShards int
	poolSize  int

	u        graph.VertexID
	ownsUser bool  // u is in the pool, so it can be its own target
	need     int64 // θ(u)
	root     rootTable
	// budget is the 8θ+1024 attempts, cut into blocks of blockLen.
	budget, blockLen, blocks int64

	// next is the first block nobody has claimed, appended how many blocks
	// the recovered store holds. Block b runs into slots[b mod len(slots)],
	// the slots of the helpers taken, unless the caller runs it in order,
	// so it may be claimed once appended > b − len(slots). ready wakes the
	// caller when a helper has filled a slot; stop ends the recovery.
	next, appended atomic.Int64
	stop           atomic.Bool
	slots          []*blockOut
	ready          chan struct{}
	_              [64]byte
}

// blockOut is a slot for one block run ahead of the recovered store: the
// block's graphs, the mark at each, the whole block's cost and the
// store's refusal, if any. filled is b+1 once block b is in the slot.
type blockOut struct {
	filled   atomic.Int64
	store    graphStore
	trail    []workMark
	spent    workMark
	accepted int64
	err      error
}

// minBlockAttempts is the shortest recovery block.
const minBlockAttempts = 16

// blockAttempts is the length of a recovery block under θ: θ/16 attempts
// — a recovery takes about θ, so about 16 blocks — and at least
// minBlockAttempts. It depends on θ alone, never on the machine.
func blockAttempts(theta int64) int64 { return max((theta+15)/16, minBlockAttempts) }

// workMark is the work a recovery has charged: attempts, jumped shallow
// ones included, and the cascades actually simulated.
type workMark struct{ attempts, cascades int64 }

// blockRunner is one goroutine's scratch for recovery blocks: the block's
// stream, kept by value, and the forward-cascade buffers. Padded, so the
// fields it writes at every draw share no cache line with another
// runner's.
type blockRunner struct {
	_         [64]byte
	rng       rng.Source
	sc        genScratch
	live      []liveEdge
	activated []graph.VertexID
	inShard   []graph.VertexID
	_         [64]byte
}

// liveEdge is one live edge of a forward cascade during Algo 4 recovery.
type liveEdge struct {
	from, to graph.VertexID
	id       graph.EdgeID
}

// newDelayEstimatorShard creates a scan recovering RR-Graphs for one
// shard of a hash partition (numShards <= 1 means the whole graph) on the
// streams derived from seed, sharing gen with the generation's other
// estimators over dm's graph.
func newDelayEstimatorShard(dm *DelayMat, seed uint64, gen *delayGen, shardID, numShards, poolSize int) *DelayEstimator {
	return &DelayEstimator{
		dm:          dm,
		scanState:   newScanState(dm.g),
		recovered:   graphStore{g: dm.g},
		gen:         gen,
		job:         recoveryJob{g: dm.g, seed: seed, shardID: shardID, numShards: numShards, poolSize: poolSize},
		blockRunner: blockRunner{sc: *newGenScratch(dm.g.NumVertices())},
	}
}

func (de *DelayEstimator) postings(u graph.VertexID) int { return int(de.dm.counts[u]) }

// WorkStats adds what recovery cost to the scan counters.
func (de *DelayEstimator) WorkStats() sampling.WorkStats {
	ws := de.scanState.WorkStats()
	ws.RecoveryAttempts = de.recoveryAttempts
	ws.RecoveryCascades = de.recoveryCascades
	return ws
}

// graphsOf returns u's recovered graphs, recovering them on the first
// touch of a new query user.
func (de *DelayEstimator) graphsOf(u graph.VertexID) graphSet {
	if !de.cachedValid || de.cachedUser != u {
		de.recover(u)
	}
	return graphSet{
		graphs: &de.recovered, postings: de.posts, stars: de.stars, direct: de.direct,
		maxSize: de.cachedMaxSize, theta: de.dm.theta,
	}
}

func (de *DelayEstimator) scanFrontier(shard, users int, u graph.VertexID, prober sampling.EdgeProber, chunk [][]float64, rows []Partial, stride int) {
	de.plainFrontier(de.graphsOf(u), shard, users, u, prober, chunk, rows, stride)
}

// recover materializes θ(u) RR-Graphs containing u per Algo 4 into the
// estimator's store, replacing the previous recovery, block by block (see
// the type comment). A store that outgrows its offsets ends the recovery
// early, like an exhausted attempt budget.
//
// Distribution note: an offline RR-Graph containing u corresponds to the
// pair (possible world g, target v) with v uniform over all of V and
// v ∈ R_g(u); conditioning on containment therefore size-biases worlds by
// |R_g(u)|. Sampling the target uniformly from the activated set alone
// would over-weight small cascades and bias the estimate upward, so each
// forward cascade is accepted only with probability |V'|/|V| before a
// target is drawn from V' — exactly the offline joint distribution. The
// shallow attempts, at which no out-neighbour the root activated fires,
// are cascades too (V' = {u} and the silent heads); they are jumped, not
// dropped, and an accepted one yields exactly the graph Algo 4 would keep
// from it (step 2 of the type comment), so the accepted sequence is the
// one a cascade per attempt would produce.
func (de *DelayEstimator) recover(u graph.VertexID) {
	dm, j := de.dm, &de.job
	if de.recovering {
		de.blockRunner.clear()
	}
	de.recovering, de.cachedValid = true, false
	de.recovered.reset()
	if j.table == nil {
		j.table = de.gen.fire.get(dm.g)
	}
	j.u, j.need = u, dm.counts[u]
	j.ownsUser = ShardOf(u, j.numShards) == j.shardID
	// Safety valve against pathological acceptance rates; recovery beyond
	// it degrades the sample count (and the guarantee) rather than hanging.
	j.budget = 8*dm.theta + 1024
	j.blockLen = blockAttempts(dm.theta)
	j.blocks = (j.budget + j.blockLen - 1) / j.blockLen
	j.next.Store(0)
	j.appended.Store(0)
	j.stop.Store(false)
	if j.need > 0 {
		j.buildRoot(&de.sc)
		de.helpers = de.gen.helpers.take(dm.g, int(j.blocks-1), de.helpers)
	}
	if len(de.helpers) > 0 {
		de.startHelpers()
		defer de.stopHelpers() // when a block panics on this goroutine
	}
	var spent workMark
	for b, got := int64(0), int64(0); b < j.blocks && got < j.need && !j.stop.Load(); {
		var m workMark
		var n int64
		var err error
		switch {
		case len(de.helpers) > 0 && j.slot(b).filled.Load() == b+1:
			m, n, err = de.collect(b, j.need-got)
		case j.next.CompareAndSwap(b, b+1):
			m, n, err = de.runBlock(j, b, j.need-got, &de.recovered, nil)
		default:
			// A helper is running block b: run one ahead into its slot,
			// or wait for the helper when every slot is taken.
			if c := j.next.Load(); c < min(j.blocks, b+int64(len(j.slots))) && j.next.CompareAndSwap(c, c+1) {
				de.runSlot(j, c)
			} else {
				<-j.ready
			}
			continue
		}
		spent.attempts, spent.cascades, got = spent.attempts+m.attempts, spent.cascades+m.cascades, got+n
		b++
		j.appended.Store(b)
		for _, h := range de.helpers {
			h.nudge()
		}
		if err != nil {
			break
		}
	}
	de.stopHelpers()
	de.recoveryAttempts += spent.attempts
	de.recoveryCascades += spent.cascades

	de.cachedUser = u
	de.cachedMaxSize = de.recovered.maxSize()
	de.posts, de.stars, de.direct = de.recovered.split(u, de.posts[:0], de.stars[:0])
	de.recovering, de.cachedValid = false, true
}

// startHelpers sets the helpers taken running, their slots the
// recovery's.
func (de *DelayEstimator) startHelpers() {
	j := &de.job
	if j.ready == nil {
		j.ready = make(chan struct{}, 1)
	}
	j.slots = j.slots[:0]
	for _, h := range de.helpers {
		for i := range h.slots {
			h.slots[i].filled.Store(0)
			j.slots = append(j.slots, &h.slots[i])
		}
	}
	for _, h := range de.helpers {
		h.job = j
		go h.run()
	}
}

// stopHelpers stops the recovery's helpers, aborting the blocks they are
// running, waits until each has stopped and hands them back; a second
// call finds none. A panic in a helper's block is re-raised here, on the
// calling goroutine, where a panic in its own blocks would surface.
func (de *DelayEstimator) stopHelpers() {
	if len(de.helpers) == 0 {
		return
	}
	de.job.stop.Store(true)
	for _, h := range de.helpers {
		h.nudge()
	}
	var panicked any
	for _, h := range de.helpers {
		<-h.exit
		h.job = nil
		if h.panicked != nil {
			panicked, h.panicked = h.panicked, nil
		}
	}
	de.gen.helpers.put(de.helpers)
	de.helpers = de.helpers[:0]
	if panicked != nil {
		panic(panicked)
	}
}

// slot returns block b's slot.
func (j *recoveryJob) slot(b int64) *blockOut { return j.slots[b%int64(len(j.slots))] }

// collect appends block b, filled in its slot, to the recovered store up
// to its want-th graph, and returns what that part of the block cost. A
// block the store cannot take whole, or one the slot's store refused, is
// run again here straight into the recovered store: its graphs depend on b
// alone, and add then refuses the graph the inline run would.
func (de *DelayEstimator) collect(b, want int64) (workMark, int64, error) {
	out := de.job.slot(b)
	n := min(want, out.accepted)
	r := storeRange{&out.store, 0, int(n)}
	if out.err != nil || !de.recovered.canTake(r) {
		return de.runBlock(&de.job, b, want, &de.recovered, nil)
	}
	de.recovered.appendRange(r)
	if n == want {
		return out.trail[n-1], n, nil // the recovery ends in this block
	}
	return out.spent, n, nil
}

// runSlot runs block b, claimed, into its slot and marks the slot filled.
// The block stops at θ(u) graphs, as no block can yield more.
func (br *blockRunner) runSlot(j *recoveryJob, b int64) {
	out := j.slot(b)
	out.store.reset()
	out.trail = out.trail[:0]
	out.spent, out.accepted, out.err = br.runBlock(j, b, j.need, &out.store, &out.trail)
	out.filled.Store(b + 1)
}

// runBlock runs block b of job j into out — attempts [b·L, b·L + L) of
// the recovery, L = j.blockLen, cut at the budget — on the block's own
// stream and fresh gaps, and stops at the want-th accepted graph, or
// aborts when the recovery stops. trail, when not nil, gets the mark at
// each accepted graph. It returns the block's cost, the graphs it accepted
// and the store's refusal, if any, charged up to the refused graph's
// attempt.
func (br *blockRunner) runBlock(j *recoveryJob, b, want int64, out *graphStore, trail *[]workMark) (m workMark, accepted int64, err error) {
	r, rt := &br.rng, &j.root
	r.Seed(rng.Mix(j.seed, uint64(j.shardID), uint64(j.u), uint64(b)))
	span := min(j.blockLen, j.budget-b*j.blockLen)
	// deep is the attempt of the block that runs the next cascade (step 2
	// of the type comment), shallowGap the number of shallow attempts up
	// to and including the next accepted one.
	deep := r.GeometricInvLog(rt.invLogDeep)
	shallowGap := r.GeometricInvLog(rt.invLogShallow)
	for accepted < want && m.attempts < span && !j.stop.Load() {
		var ok bool
		if shallow := min(deep-m.attempts-1, span-m.attempts); shallow > 0 {
			step := min(shallow, shallowGap)
			m.attempts += step
			if shallowGap -= step; shallowGap > 0 {
				continue
			}
			ok, err = true, br.recoverShallow(j, out)
			shallowGap = r.GeometricInvLog(rt.invLogShallow)
		} else {
			m.attempts++
			m.cascades++
			deep = rng.Never
			if gap := r.GeometricInvLog(rt.invLogDeep); gap < rng.Never-m.attempts {
				deep = m.attempts + gap
			}
			ok, err = br.recoverOne(j, out)
		}
		if err != nil {
			break
		}
		if ok {
			accepted++
			if trail != nil {
				*trail = append(*trail, m)
			}
		}
	}
	return m, accepted, err
}

// clear forgets a cascade a panic cut short.
func (br *blockRunner) clear() { clear(br.sc.mark) }

// recoverShallow appends the graph of an accepted shallow attempt to out
// (step 2 of the type comment): {u}, or u→c with c drawn by its weight.
func (br *blockRunner) recoverShallow(j *recoveryJob, out *graphStore) error {
	g, u, rt := j.g, j.u, &j.root
	r, sc := &br.rng, &br.sc
	w := rt.weight
	// (1 − y)·w_last lies in (0, w_last], so the first weight reaching it
	// is never a zero-weight entry's.
	k, _ := slices.BinarySearch(w, (1-r.Float64())*w[len(w)-1])
	sc.edges = sc.edges[:0]
	if k == 0 {
		sc.members = append(sc.members[:0], u)
		return out.add(u, sc)
	}
	c := rt.heads[k-1]
	sc.members = append(sc.members[:0], c, u)
	br.live = br.live[:0]
	br.rootEdges(j, k-1)
	for _, le := range br.live {
		sc.edges = append(sc.edges, rrEdge{from: u, to: c, id: le.id, c: r.UniformIn(g.EdgeMaxProb(le.id))})
	}
	return out.add(c, sc)
}

// rootEdges appends to br.live the edges from u to head k that fire,
// given that at least one does.
func (br *blockRunner) rootEdges(j *recoveryJob, k int) {
	rt := &j.root
	c, lo, hi := rt.heads[k], rt.start[k], rt.start[k+1]
	edges, surv := rt.edges[lo:hi], rt.surv[lo:hi]
	if len(edges) == 1 {
		br.live = append(br.live, liveEdge{from: j.u, to: c, id: edges[0]})
		return
	}
	for i := firstFired(surv, br.rng.Float64()); i < len(surv); i = nextFired(j.g, edges, surv, i, &br.rng) {
		br.live = append(br.live, liveEdge{from: j.u, to: c, id: edges[i]})
	}
}

// reach marks c activated, if it is not yet, and stacks it for a visit
// when push says so.
func (br *blockRunner) reach(c graph.VertexID, push bool) {
	if sc := &br.sc; !sc.mark[c] {
		sc.mark[c] = true
		br.activated = append(br.activated, c)
		if push {
			sc.stack = append(sc.stack, c)
		}
	}
}

// fire appends the fired out-edges of v from edge i on — i the first
// fired one, len(surv) for none — and stacks the vertices they activate.
func (br *blockRunner) fire(g *graph.Graph, v graph.VertexID, surv []float64, i int) {
	edges, nbrs := g.OutEdges(v), g.OutNeighbors(v)
	for ; i < len(surv); i = nextFired(g, edges, surv, i, &br.rng) {
		br.live = append(br.live, liveEdge{from: v, to: nbrs[i], id: edges[i]})
		br.reach(nbrs[i], true)
	}
}

// recoverOne implements Algo 4 (RetainRRGraphs) with the acceptance step
// for one deep attempt; it appends the recovered graph to out and reports
// whether the cascade was accepted.
func (br *blockRunner) recoverOne(j *recoveryJob, out *graphStore) (bool, error) {
	g, u, rt, table := j.g, j.u, &j.root, j.table
	r := &br.rng
	sc := &br.sc

	// Step 1: forward cascade from u under p(e); collect activated
	// vertices V' and live edges E'. u's heads are drawn given that the
	// attempt is deep (step 3 of the type comment), every later visit by
	// one uniform (step 1).
	br.live, br.activated = br.live[:0], append(br.activated[:0], u)
	sc.stack = sc.stack[:0]
	sc.mark[u] = true
	first := firstFired(rt.deep, r.Float64())
	for k := nextHit(rt.silent[:first], rt.pi, -1, r); k < first; k = nextHit(rt.silent[:first], rt.pi, k, r) {
		br.rootEdges(j, k)
		br.reach(rt.heads[k], false)
	}
	br.rootEdges(j, first)
	br.reach(rt.heads[first], false)
	for k := nextHit(rt.act, rt.alpha, first, r); k < len(rt.heads); k = nextHit(rt.act, rt.alpha, k, r) {
		br.rootEdges(j, k)
		br.reach(rt.heads[k], true)
	}
	c := rt.heads[first]
	lo, hi := g.OutRange(c)
	surv := table.surv[lo:hi]
	br.fire(g, c, surv, firstFired(surv, r.Float64()))
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		lo, hi := g.OutRange(v)
		if lo == hi {
			continue
		}
		surv := table.surv[lo:hi]
		if t := 1 - r.Float64(); t > surv[len(surv)-1] {
			br.fire(g, v, surv, firstBelow(surv, 0, t))
		}
	}
	live, activated := br.live, br.activated
	for _, v := range activated {
		sc.mark[v] = false
	}

	// Step 2: accept the cascade with probability |V'∩pool|/|pool|
	// (size-biased world selection restricted to the estimator's shard;
	// the monolithic pool is all of V), then draw the target uniformly
	// from the in-pool activated set. A cascade activating nobody in the
	// shard is rejected without consuming a draw (Bernoulli(0)).
	cands := activated
	if j.numShards > 1 {
		br.inShard = br.inShard[:0]
		for _, v := range activated {
			if ShardOf(v, j.numShards) == j.shardID {
				br.inShard = append(br.inShard, v)
			}
		}
		cands = br.inShard
	}
	if !r.Bernoulli(float64(len(cands)) / float64(j.poolSize)) {
		return false, nil
	}
	target := cands[r.Intn(len(cands))]

	// Step 3: restrict to the part of G' that reaches target — a fixpoint
	// over the live edges, walked backwards because the cascade appended a
	// vertex's out-edges after the edge that activated it — then draw
	// fresh c(e) ~ U[0, p(e)) per surviving edge (Theorem 3's conditional
	// distribution of offline draws given the edge was live).
	sc.members = append(sc.members[:0], target)
	sc.mark[target] = true
	for grew := true; grew; {
		grew = false
		for i := len(live) - 1; i >= 0; i-- {
			if le := live[i]; sc.mark[le.to] && !sc.mark[le.from] {
				sc.mark[le.from] = true
				sc.members = append(sc.members, le.from)
				grew = true
			}
		}
	}
	sc.edges = sc.edges[:0]
	for _, le := range live {
		if sc.mark[le.from] && sc.mark[le.to] {
			sc.edges = append(sc.edges, rrEdge{
				from: le.from, to: le.to, id: le.id,
				c: r.UniformIn(g.EdgeMaxProb(le.id)),
			})
		}
	}
	for _, v := range sc.members {
		sc.mark[v] = false
	}
	return true, out.add(target, sc)
}

// helperPool holds a generation's recovery helpers: made on first need,
// kept for the generation's life, and at most GOMAXPROCS − 1 at work at
// once across all of its estimators.
type helperPool struct {
	mu   sync.Mutex
	idle []*blockHelper
	busy int
}

// take appends to hs up to want helpers over g, idle ones first, then new
// ones, without waiting for any to come free.
func (p *helperPool) take(g *graph.Graph, want int, hs []*blockHelper) []*blockHelper {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := min(want, runtime.GOMAXPROCS(0)-1-p.busy); n > 0; n-- {
		if k := len(p.idle); k > 0 {
			hs = append(hs, p.idle[k-1])
			p.idle = p.idle[:k-1]
		} else {
			hs = append(hs, newBlockHelper(g))
		}
		p.busy++
	}
	return hs
}

// put hands back helpers that have stopped.
func (p *helperPool) put(hs []*blockHelper) {
	p.mu.Lock()
	p.idle = append(p.idle, hs...)
	p.busy -= len(hs)
	p.mu.Unlock()
}

// blockHelper claims a recovery's blocks on a goroutine of its own, the
// lowest unclaimed one each time, and runs them into their slots ahead of
// the caller. It brings four slots to a recovery, so every goroutine at
// work on it has at least two, and the slots' stores stay grown for the
// generation's next recovery, whichever estimator runs it. wake tells it
// a slot may have come free or the recovery stopped; exit says it has
// stopped, and panicked holds what a block of it panicked with.
type blockHelper struct {
	blockRunner
	job        *recoveryJob
	slots      [4]blockOut
	wake, exit chan struct{}
	panicked   any
	run        func() // loop, bound once, so that go h.run() allocates nothing
}

func newBlockHelper(g *graph.Graph) *blockHelper {
	n := g.NumVertices()
	h := &blockHelper{
		blockRunner: blockRunner{sc: *newGenScratch(n)},
		wake:        make(chan struct{}, 1),
		exit:        make(chan struct{}, 1),
	}
	for i := range h.slots {
		h.slots[i].store.g = g
	}
	h.run = h.loop
	return h
}

// nudge wakes h if it waits for a slot.
func (h *blockHelper) nudge() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// loop is a helper's goroutine: it claims blocks until none is left or
// the recovery stops, then says so on exit. A panic in a block stops the
// recovery and goes to the caller with the exit.
func (h *blockHelper) loop() {
	j := h.job
	defer func() {
		if h.panicked = recover(); h.panicked != nil {
			h.blockRunner.clear()
			j.stop.Store(true)
			select {
			case j.ready <- struct{}{}:
			default:
			}
		}
		h.exit <- struct{}{}
	}()
	for b := j.next.Add(1) - 1; b < j.blocks; b = j.next.Add(1) - 1 {
		for b >= j.appended.Load()+int64(len(j.slots)) && !j.stop.Load() {
			<-h.wake
		}
		if j.stop.Load() {
			break
		}
		h.runSlot(j, b)
		select {
		case j.ready <- struct{}{}:
		default:
		}
	}
}
