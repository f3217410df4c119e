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

	// members and targets are the optional incremental-repair bookkeeping
	// (BuildOptions.TrackMembers): the member set and target of each
	// conceptual offline RR-Graph, so Repair can decide which graphs a
	// mutation invalidates and patch counters by decrement/re-sample/
	// increment. Both nil when not tracked (the Table 3 counters-only
	// configuration); a DelayMat loaded from disk is never repairable.
	members [][]graph.VertexID
	targets []graph.VertexID

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
	return buildDelayMatPool(g, opts, nil, opts.Theta(g.NumVertices()))
}

// buildDelayMatPool is BuildDelayMat with an explicit target pool and θ —
// the shared core of the monolithic build and of per-shard builds (pool =
// the shard's user partition, θ its apportioned sample count).
func buildDelayMatPool(g *graph.Graph, opts BuildOptions, pool []graph.VertexID, theta int64) (*DelayMat, error) {
	r := rng.New(opts.Seed)
	dm := &DelayMat{g: g, theta: theta, counts: make([]int64, g.NumVertices())}
	if opts.TrackMembers {
		dm.members = make([][]graph.VertexID, 0, theta)
		dm.targets = make([]graph.VertexID, 0, theta)
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
			dm.members = append(dm.members, append([]graph.VertexID(nil), members...))
			dm.targets = append(dm.targets, target)
		}
	}
	dm.recomputeFootprint()
	return dm, nil
}

// Theta returns θ, the offline sample count.
func (dm *DelayMat) Theta() int64 { return dm.theta }

// Count returns θ(u).
func (dm *DelayMat) Count(u graph.VertexID) int64 { return dm.counts[u] }

// MemoryFootprint is the index size: one counter per user (Table 3's
// "DelayMat size" column), plus the member/target bookkeeping when the
// index was built with TrackMembers. Cached at build/load/repair time, so
// the call is O(1).
func (dm *DelayMat) MemoryFootprint() int64 { return dm.footprint }

// recomputeFootprint refreshes the cached MemoryFootprint value.
func (dm *DelayMat) recomputeFootprint() {
	b := int64(len(dm.counts)) * 8
	for _, m := range dm.members {
		b += int64(len(m)) * 4
	}
	b += int64(len(dm.targets)) * 4
	dm.footprint = b
}

// DelayEstimator is the DelayMat scan policy: recover the query user's
// RR-Graphs, then hit-test them exactly as Estimator does an index's.
// Recovered RR-Graphs are cached per user so repeated estimations for the
// same query user (one PITEX query estimates many tag sets) pay recovery
// once, exactly like the materialized index amortizes construction.
// Recovered graphs are assembled into a per-recovery arena (reused across
// recoveries), so a recovery costs a handful of allocations rather than
// six per graph. The estimator's RNG is consumed only by recovery, so
// neither scan — nor batching siblings into one — can perturb the
// recovered sample. Not safe for concurrent use.
type DelayEstimator struct {
	dm  *DelayMat
	rng *rng.Source
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
	// recovered graphs, their identity postings list (grown, never
	// shrunk) and the largest graph's vertex count.
	cachedUser    graph.VertexID
	cachedValid   bool
	cachedGraphs  []RRGraph
	cachedMaxSize int
	identity      []int32
	arena         arenaBuilder

	sc *genScratch
	// Forward-cascade buffers, reused across recoverOne attempts (up to
	// 8θ rejected cascades per recovery would otherwise each allocate).
	live      []liveEdge
	activated []graph.VertexID
}

// liveEdge is one live edge of a forward cascade during Algo 4 recovery.
type liveEdge struct {
	from, to graph.VertexID
	id       graph.EdgeID
}

// newDelayEstimatorShard creates a scan recovering RR-Graphs for one
// shard of a hash partition (numShards <= 1 means the whole graph).
func newDelayEstimatorShard(dm *DelayMat, r *rng.Source, shardID, numShards, poolSize int) *DelayEstimator {
	return &DelayEstimator{
		dm:        dm,
		rng:       r,
		scanState: newScanState(dm.g),
		shardID:   shardID,
		numShards: numShards,
		poolSize:  poolSize,
		sc:        newGenScratch(dm.g.NumVertices()),
	}
}

func (de *DelayEstimator) postings(u graph.VertexID) int { return int(de.dm.counts[u]) }

// recovered returns u's recovered graphs, recovering them on the first
// touch of a new query user.
func (de *DelayEstimator) recovered(u graph.VertexID) graphSet {
	if !de.cachedValid || de.cachedUser != u {
		de.recover(u)
	}
	return graphSet{
		graphs: de.cachedGraphs, postings: de.identity[:len(de.cachedGraphs)],
		maxSize: de.cachedMaxSize, theta: de.dm.theta,
	}
}

func (de *DelayEstimator) scanProber(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	return de.plainProber(de.recovered(u), shard, users, u, prober)
}

func (de *DelayEstimator) scanFrontier(shard, users, totalUsers int, u graph.VertexID, chunk [][]float64, stop sampling.StopRule, rows []Partial, stride int) {
	de.plainFrontier(de.recovered(u), shard, users, totalUsers, u, chunk, stop, rows, stride)
}

// recover materializes θ(u) RR-Graphs containing u per Algo 4. Accepted
// graphs accumulate in the estimator's arena; views are taken only after
// the last acceptance (arena growth moves the backing arrays), replacing
// the previous recovery's cache.
//
// Distribution note: an offline RR-Graph containing u corresponds to the
// pair (possible world g, target v) with v uniform over all of V and
// v ∈ R_g(u); conditioning on containment therefore size-biases worlds by
// |R_g(u)|. Sampling the target uniformly from the activated set alone
// would over-weight small cascades and bias the estimate upward, so each
// forward cascade is accepted only with probability |V'|/|V| before a
// target is drawn from V' — exactly the offline joint distribution.
func (de *DelayEstimator) recover(u graph.VertexID) {
	dm := de.dm
	n := dm.counts[u]
	de.arena.reset()
	// Safety valve against pathological acceptance rates; recovery beyond
	// it degrades the sample count (and the guarantee) rather than hanging.
	maxAttempts := 8*dm.theta + 1024
	accepted := int64(0)
	for attempts := int64(0); accepted < n && attempts < maxAttempts; attempts++ {
		if de.recoverOne(u) {
			accepted++
		}
	}
	de.cachedGraphs = de.arena.takeViews()
	de.cachedUser = u
	de.cachedValid = true
	de.cachedMaxSize = 0
	for i := range de.cachedGraphs {
		de.cachedMaxSize = max(de.cachedMaxSize, de.cachedGraphs[i].NumVertices())
	}
	for i := len(de.identity); i < len(de.cachedGraphs); i++ {
		de.identity = append(de.identity, int32(i))
	}
}

// recoverOne implements Algo 4 (RetainRRGraphs) with the acceptance step;
// it appends the recovered graph to the arena and reports whether the
// cascade was accepted.
func (de *DelayEstimator) recoverOne(u graph.VertexID) bool {
	g := de.dm.g
	r := de.rng
	sc := de.sc

	// Step 1: forward cascade from u under p(e); collect activated
	// vertices V' and live edges E'.
	live := de.live[:0]
	activated := de.activated[:0]
	sc.stack = sc.stack[:0]
	sc.stack = append(sc.stack, u)
	sc.mark[u] = true
	activated = append(activated, u)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		edges := g.OutEdges(v)
		nbrs := g.OutNeighbors(v)
		for i, e := range edges {
			p := g.EdgeMaxProb(e)
			if p <= 0 || r.Float64() >= p {
				continue
			}
			t := nbrs[i]
			live = append(live, liveEdge{from: v, to: t, id: e})
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
		return false
	}
	target := cands[r.Intn(len(cands))]

	// Step 3: restrict to the part of G' that reaches target, then draw
	// fresh c(e) ~ U[0, p(e)) per surviving edge (Theorem 3's conditional
	// distribution of offline draws given the edge was live).
	reach := map[graph.VertexID]bool{target: true}
	// Reverse adjacency of the live subgraph.
	radj := map[graph.VertexID][]liveEdge{}
	for _, le := range live {
		radj[le.to] = append(radj[le.to], le)
	}
	queue := []graph.VertexID{target}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, le := range radj[v] {
			if !reach[le.from] {
				reach[le.from] = true
				queue = append(queue, le.from)
			}
		}
	}
	sc.members = sc.members[:0]
	for v := range reach {
		sc.members = append(sc.members, v)
	}
	sc.edges = sc.edges[:0]
	for _, le := range live {
		if reach[le.from] && reach[le.to] {
			sc.edges = append(sc.edges, rrEdge{
				from: le.from, to: le.to, id: le.id,
				c: r.UniformIn(g.EdgeMaxProb(le.id)),
			})
		}
	}
	de.arena.add(target, sc)
	return true
}
