package rrindex

import (
	"fmt"

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

// memberScratch carries the reusable buffers of sampleMemberSet.
type memberScratch struct {
	stack   []graph.VertexID
	members []graph.VertexID
}

// sampleMemberSet runs the reverse BFS of Def. 2 from target over live
// draws and returns the member set (target first) without materializing
// edges. The returned slice aliases sc.members and is valid only until
// the next call — callers that retain it must copy. mark is caller
// scratch of length |V|, all false on entry and reset before return.
func sampleMemberSet(g *graph.Graph, target graph.VertexID, r *rng.Source, mark []bool, sc *memberScratch) []graph.VertexID {
	sc.members = sc.members[:0]
	sc.stack = sc.stack[:0]
	sc.stack = append(sc.stack, target)
	mark[target] = true
	sc.members = append(sc.members, target)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		ins := g.InEdges(v)
		nbrs := g.InNeighbors(v)
		for j, e := range ins {
			p := g.EdgeMaxProb(e)
			if p <= 0 || r.Float64() >= p {
				continue
			}
			if f := nbrs[j]; !mark[f] {
				mark[f] = true
				sc.members = append(sc.members, f)
				sc.stack = append(sc.stack, f)
			}
		}
	}
	for _, m := range sc.members {
		mark[m] = false
	}
	return sc.members
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
	return buildDelayMatPool(g, opts, nil, theta)
}

// buildDelayMatPool is BuildDelayMat with an explicit target pool and θ —
// the shared core of the monolithic build and of per-shard builds (pool =
// the shard's user partition, θ its apportioned sample count).
func buildDelayMatPool(g *graph.Graph, opts BuildOptions, pool []graph.VertexID, theta int64) (*DelayMat, error) {
	r := rng.New(opts.Seed)
	dm := &DelayMat{g: g, theta: theta, counts: make([]int64, g.NumVertices())}
	if opts.TrackMembers {
		dm.members = newStore(g)
	}
	mark := make([]bool, g.NumVertices())
	var sc memberScratch
	for i := int64(0); i < theta; i++ {
		target := drawTarget(r, pool, g.NumVertices())
		members := sampleMemberSet(g, target, r, mark, &sc)
		for _, m := range members {
			dm.counts[m]++
		}
		if opts.TrackMembers {
			if _, err := dm.members.push(target, members, 0); err != nil {
				return nil, err
			}
		}
	}
	if opts.TrackMembers {
		var err error
		if dm.members, err = mergeStores(g, dm.members); err != nil {
			return nil, err
		}
	}
	dm.recomputeFootprint()
	return dm, nil
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
// Recovery is a pure function of (seed, shard, user): each one runs on its
// own stream rng.Mix(seed, shard, user), so what an estimator recovered
// before — which users a pool clone happened to serve — cannot change what
// it recovers next, and neither scan can perturb the recovered sample.
//
// Algo 4 needs θ(u) accepted forward cascades out of about θ attempts. It
// does not toss a coin per out-edge per attempt: the paper's own lazy
// propagation (Sec. 5.1, Algo 2) drives the cascades. A recovery keeps,
// per vertex, how often it was visited and the visit at which any of its
// out-edges next fires; a visit before that is one compare. Exactness, in
// three steps:
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
//     Bernoulli(1/|V_s|) sequence: recover jumps it in bulk, locating the
//     accepted ones by Geometric(1/|V_s|) gaps (memoryless, so a gap cut
//     short by the root's firing carries over to the next run), and
//     charges every jumped attempt to the budget.
//  3. Same stopping rule. Accepted graphs thus arrive in attempt order,
//     i.i.d. from the law the per-attempt loop draws from (Theorem 3),
//     so stopping at the θ(u)-th is the same stopping rule.
//
// The fireTable is scoped to the graph generation (see lazyFireTable); the
// visit counters are scoped to one recovery and reset through a
// touched-list, so consecutive recoveries share nothing.
type DelayEstimator struct {
	dm *DelayMat
	// seed is the estimator's base seed; rng is the current recovery's
	// stream, re-derived from it at the start of every recovery.
	seed uint64
	rng  *rng.Source
	scanState

	// Shard scope: when numShards > 1 the estimator recovers RR-Graphs for
	// one hash partition — cascades are accepted with |V'∩V_s|/|V_s| and
	// targets drawn from V'∩V_s, matching the offline per-shard target
	// distribution. numShards <= 1 is the monolithic paper behavior.
	shardID   int
	numShards int
	poolSize  int
	inShard   []graph.VertexID

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

	// The firing schedule: the generation's table, one firing per vertex
	// (16·|V| bytes; both set up by the first recovery, so an estimator
	// that never recovers carries neither), and the vertices whose firing
	// the current recovery initialized.
	fire    *lazyFireTable
	table   *fireTable
	sched   []firing
	touched []graph.VertexID

	sc *genScratch
	// Forward-cascade buffers, reused across recoverOne calls.
	live      []liveEdge
	activated []graph.VertexID

	// recoveryAttempts counts Algo 4 attempts charged to the budget,
	// jumped empty cascades included; recoveryCascades the cascades
	// actually simulated (attempts at which the root fired).
	recoveryAttempts, recoveryCascades int64
}

// firing is one vertex's recovery-scoped schedule: how many cascades of
// this recovery have visited it, and the visit at which any of its
// out-edges next fires (0 = not visited yet in this recovery).
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
// streams derived from seed, over the firing table fire builds for dm's
// graph.
func newDelayEstimatorShard(dm *DelayMat, seed uint64, fire *lazyFireTable, shardID, numShards, poolSize int) *DelayEstimator {
	return &DelayEstimator{
		dm:        dm,
		seed:      seed,
		scanState: newScanState(dm.g),
		shardID:   shardID,
		numShards: numShards,
		poolSize:  poolSize,
		fire:      fire,
		recovered: graphStore{g: dm.g},
		sc:        newGenScratch(dm.g.NumVertices()),
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
// estimator's store, replacing the previous recovery. A store that
// outgrows its offsets ends the recovery early, like an exhausted
// attempt budget.
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
	dm := de.dm
	n := dm.counts[u]
	de.recovered.reset()
	if de.table == nil {
		de.table = de.fire.get(dm.g)
		de.sched = make([]firing, dm.g.NumVertices())
	}
	r := rng.New(rng.Mix(de.seed, uint64(de.shardID), uint64(u)))
	de.rng = r
	// emptyGap is the number of empty cascades up to and including the
	// next accepted one; a user outside the pool has none accepted.
	acceptEmpty := 1 / float64(de.poolSize)
	emptyGap := int64(rng.Never)
	if ShardOf(u, de.numShards) == de.shardID {
		emptyGap = r.Geometric(acceptEmpty)
	}
	root := de.firingOf(u)
	// Safety valve against pathological acceptance rates; recovery beyond
	// it degrades the sample count (and the guarantee) rather than hanging.
	maxAttempts := 8*dm.theta + 1024
	var attempts, accepted int64
	for accepted < n && attempts < maxAttempts {
		if empties := min(root.next-root.visits-1, maxAttempts-attempts); empties > 0 {
			step := min(empties, emptyGap)
			attempts += step
			root.visits += step
			if emptyGap -= step; emptyGap == 0 {
				de.sc.members = append(de.sc.members[:0], u)
				de.sc.edges = de.sc.edges[:0]
				if de.recovered.add(u, de.sc) != nil {
					break
				}
				accepted++
				emptyGap = r.Geometric(acceptEmpty)
			}
			continue
		}
		attempts++
		de.recoveryCascades++
		ok, err := de.recoverOne(u)
		if err != nil {
			break
		}
		if ok {
			accepted++
		}
	}
	de.recoveryAttempts += attempts
	for _, v := range de.touched {
		de.sched[v] = firing{}
	}
	de.touched = de.touched[:0]

	de.cachedUser = u
	de.cachedValid = true
	de.cachedMaxSize = de.recovered.maxSize()
	de.posts, de.stars, de.direct = de.recovered.split(u, de.posts[:0], de.stars[:0])
}

// firingOf returns v's schedule, drawing its first firing visit when this
// recovery touches v for the first time.
func (de *DelayEstimator) firingOf(v graph.VertexID) *firing {
	f := &de.sched[v]
	if f.next == 0 {
		f.next = de.rng.GeometricInvLog(de.table.invLogQ[v])
		de.touched = append(de.touched, v)
	}
	return f
}

// recoverOne implements Algo 4 (RetainRRGraphs) with the acceptance step
// for one attempt at which the root fires; it appends the recovered graph
// to the store and reports whether the cascade was accepted.
func (de *DelayEstimator) recoverOne(u graph.VertexID) (bool, error) {
	g := de.dm.g
	r := de.rng
	sc := de.sc
	table := de.table

	// Step 1: forward cascade from u under p(e); collect activated
	// vertices V' and live edges E'. A visit short of the vertex's next
	// firing activates nothing; a firing visit draws its fired subset from
	// the prefix survival products (step 1 of the type comment).
	live := de.live[:0]
	activated := de.activated[:0]
	sc.stack = sc.stack[:0]
	sc.stack = append(sc.stack, u)
	sc.mark[u] = true
	activated = append(activated, u)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		f := de.firingOf(v)
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
		for i := firstFired(surv, r.Float64()); i < len(surv); {
			t := nbrs[i]
			live = append(live, liveEdge{from: v, to: t, id: edges[i]})
			if !sc.mark[t] {
				sc.mark[t] = true
				activated = append(activated, t)
				sc.stack = append(sc.stack, t)
			}
			// Next fired edge. Once the prefix product is spent (an edge
			// with p(e) = 1, or hundreds of near-certain ones) it no longer
			// orders the edges after i — nor, being non-increasing, any
			// later one: those get a coin each, this visit only.
			if surv[i] >= survExhausted {
				i = firstBelow(surv, i+1, (1-r.Float64())*surv[i])
				continue
			}
			for i++; i < len(surv); i++ {
				if p := g.EdgeMaxProb(edges[i]); p > 0 && r.Float64() < p {
					break
				}
			}
		}
	}
	for _, v := range activated {
		sc.mark[v] = false
	}
	de.live, de.activated = live, activated

	// Step 2: accept the cascade with probability |V'∩pool|/|pool|
	// (size-biased world selection restricted to the estimator's shard;
	// the monolithic pool is all of V), then draw the target uniformly
	// from the in-pool activated set. A cascade activating nobody in the
	// shard is rejected without consuming a draw (Bernoulli(0)).
	cands := activated
	if de.numShards > 1 {
		de.inShard = de.inShard[:0]
		for _, v := range activated {
			if ShardOf(v, de.numShards) == de.shardID {
				de.inShard = append(de.inShard, v)
			}
		}
		cands = de.inShard
	}
	if !r.Bernoulli(float64(len(cands)) / float64(de.poolSize)) {
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
	return true, de.recovered.add(target, sc)
}
