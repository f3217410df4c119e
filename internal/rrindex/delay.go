package rrindex

import (
	"fmt"
	"runtime"
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
// does not toss a coin per out-edge per attempt: the paper's own lazy
// propagation (Sec. 5.1, Algo 2) drives the cascades. A recovery keeps,
// per vertex, how often it was visited and the visit at which any of its
// out-edges next fires; a visit before that is one compare. Exactness, in
// four steps:
//
//  1. Aggregated gap. Under per-visit coins the visits of v at which at
//     least one out-edge fires are Bernoulli(1 − q(v)) trials, q(v) =
//     Π_{e∈out(v)} (1 − p(e)), so the gap to the next one is
//     Geometric(1 − q(v)) — Lemma 6 applied to the union of v's edges —
//     and at such a visit the fired subset follows the product law
//     conditioned on being non-empty, drawn by inverse CDF over the
//     fireTable's prefix survival products: the first fired edge is the
//     first i with S_i < 1 − x·(1 − q(v)), each further one the first
//     j > i with S_j < (1 − y)·S_i, x and y uniform — O(f·log d) for f
//     fired edges, never O(d).
//  2. Empty cascades. An attempt at which the root does not fire is the
//     cascade V' = {u}, E' = ∅, accepted with probability 1/|V_s| when u
//     belongs to the estimator's pool and never otherwise. The run of
//     attempts before the root's next firing is therefore a
//     Bernoulli(1/|V_s|) sequence: a recovery jumps it in bulk, locating
//     the accepted ones by Geometric(1/|V_s|) gaps (memoryless, so a gap
//     cut short by the root's firing carries over to the next run), and
//     charges every jumped attempt to the budget.
//  3. Blocks. The attempts are cut into blocks of blockAttempts(θ)
//     consecutive ones, a length that depends on θ alone. Block b runs on
//     its own stream rng.Mix(seed, shard, u, b) and starts a fresh firing
//     schedule and a fresh empty-cascade gap. Attempts are i.i.d. and
//     every gap above is geometric, hence memoryless, so a schedule
//     restarted at a block boundary draws the next attempts from the same
//     law as one carried over.
//  4. Same stopping rule. The blocks concatenated in order are one
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
// delayGen); a block's firing schedule is reset through a touched-list
// when the block ends, so consecutive blocks and recoveries share nothing.
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
	// The calling goroutine's own blocks run on this scratch; its schedule
	// (16·|V| bytes) is set up by the first recovery, so an estimator that
	// never recovers carries none. recovering is set while a recovery runs:
	// still set at the next one, it says a block panicked and left the
	// scratch mid-block.
	blockRunner
	recovering bool

	// recoveryAttempts counts Algo 4 attempts charged to the budget,
	// jumped empty cascades included; recoveryCascades the cascades
	// actually simulated (attempts at which the root fired).
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
// and shard scope, the user, θ(u) and the block layout, written by the
// caller before it starts a helper and left alone until every helper has
// stopped; and the claims, which caller and helpers share. Padded: the
// helpers poll it at every attempt while the caller's runner changes at
// every draw.
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
	ownsUser bool  // u is in the pool, so its empty cascade can be accepted
	need     int64 // θ(u)
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

// workMark is the work a recovery has charged: attempts, jumped empty
// cascades included, and the cascades actually simulated.
type workMark struct{ attempts, cascades int64 }

// blockRunner is one goroutine's scratch for recovery blocks: the block's
// stream, kept by value, the firing schedule — the generation's table,
// one firing per vertex and the vertices the block touched — and the
// forward-cascade buffers. Padded, so the fields it writes at every draw
// share no cache line with another runner's.
type blockRunner struct {
	_         [64]byte
	rng       rng.Source
	table     *fireTable
	sched     []firing
	touched   []graph.VertexID
	sc        genScratch
	live      []liveEdge
	activated []graph.VertexID
	inShard   []graph.VertexID
	_         [64]byte
}

// firing is one vertex's block-scoped schedule: how many cascades of this
// block have visited it, and the visit at which any of its out-edges next
// fires (0 = not visited yet in this block).
type firing struct {
	visits, next int64
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
// attempts at which the root fires nothing are cascades too (V' = {u});
// they are jumped, not dropped (step 2 of the type comment), so the
// accepted sequence is the one a cascade per attempt would produce.
func (de *DelayEstimator) recover(u graph.VertexID) {
	dm, j := de.dm, &de.job
	if de.recovering {
		de.blockRunner.clear()
	}
	de.recovering, de.cachedValid = true, false
	de.recovered.reset()
	if de.sched == nil {
		j.table = de.gen.fire.get(dm.g)
		de.sched = make([]firing, dm.g.NumVertices())
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
// stream and a fresh firing schedule, and stops at the want-th accepted
// graph, or aborts when the recovery stops. trail, when not nil, gets the
// mark at each accepted graph. It returns the block's cost, the graphs it
// accepted and the store's refusal, if any, charged up to the refused
// graph's attempt.
func (br *blockRunner) runBlock(j *recoveryJob, b, want int64, out *graphStore, trail *[]workMark) (m workMark, accepted int64, err error) {
	r, sc := &br.rng, &br.sc
	r.Seed(rng.Mix(j.seed, uint64(j.shardID), uint64(j.u), uint64(b)))
	br.table = j.table
	span := min(j.blockLen, j.budget-b*j.blockLen)
	// emptyGap is the number of empty cascades up to and including the
	// next accepted one; a user outside the pool has none accepted.
	acceptEmpty := 1 / float64(j.poolSize)
	emptyGap := int64(rng.Never)
	if j.ownsUser {
		emptyGap = r.Geometric(acceptEmpty)
	}
	root := br.firingOf(j.u)
	for accepted < want && m.attempts < span && !j.stop.Load() {
		var ok bool
		if empties := min(root.next-root.visits-1, span-m.attempts); empties > 0 {
			step := min(empties, emptyGap)
			m.attempts += step
			root.visits += step
			if emptyGap -= step; emptyGap > 0 {
				continue
			}
			sc.members = append(sc.members[:0], j.u)
			sc.edges = sc.edges[:0]
			ok, err = true, out.add(j.u, sc)
			emptyGap = r.Geometric(acceptEmpty)
		} else {
			m.attempts++
			m.cascades++
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
	for _, v := range br.touched {
		br.sched[v] = firing{}
	}
	br.touched = br.touched[:0]
	return m, accepted, err
}

// clear forgets a block a panic cut short: its firing schedule and its
// cascade's marks.
func (br *blockRunner) clear() {
	clear(br.sched)
	clear(br.sc.mark)
	br.touched = br.touched[:0]
}

// firingOf returns v's schedule, drawing its first firing visit when this
// block touches v for the first time.
func (br *blockRunner) firingOf(v graph.VertexID) *firing {
	f := &br.sched[v]
	if f.next == 0 {
		f.next = br.rng.GeometricInvLog(br.table.invLogQ[v])
		br.touched = append(br.touched, v)
	}
	return f
}

// recoverOne implements Algo 4 (RetainRRGraphs) with the acceptance step
// for one attempt at which the root fires; it appends the recovered graph
// to out and reports whether the cascade was accepted.
func (br *blockRunner) recoverOne(j *recoveryJob, out *graphStore) (bool, error) {
	g, u := j.g, j.u
	r := &br.rng
	sc := &br.sc
	table := br.table

	// Step 1: forward cascade from u under p(e); collect activated
	// vertices V' and live edges E'. A visit short of the vertex's next
	// firing activates nothing; a firing visit draws its fired subset from
	// the prefix survival products (step 1 of the type comment).
	live := br.live[:0]
	activated := br.activated[:0]
	sc.stack = sc.stack[:0]
	sc.stack = append(sc.stack, u)
	sc.mark[u] = true
	activated = append(activated, u)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		f := br.firingOf(v)
		if f.visits++; f.visits < f.next {
			continue
		}
		f.next = rng.Never
		if gap := r.GeometricInvLog(table.invLogQ[v]); gap < rng.Never-f.visits {
			f.next = f.visits + gap
		}
		lo, hi := g.OutRange(v)
		surv := table.surv[lo:hi]
		edges := g.OutEdges(v)
		nbrs := g.OutNeighbors(v)
		for i := firstFired(surv, r.Float64()); i < len(surv); i = nextFired(g, edges, surv, i, r) {
			t := nbrs[i]
			live = append(live, liveEdge{from: v, to: t, id: edges[i]})
			if !sc.mark[t] {
				sc.mark[t] = true
				activated = append(activated, t)
				sc.stack = append(sc.stack, t)
			}
		}
	}
	for _, v := range activated {
		sc.mark[v] = false
	}
	br.live, br.activated = live, activated

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
		blockRunner: blockRunner{sched: make([]firing, n), sc: *newGenScratch(n)},
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
