package rrindex

import (
	"fmt"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// This file holds the one value a shard scan produces — the Partial row
// — and the one fold that consumes it, plus everything a shard server
// and a scatter-gather coordinator need to split one ShardedIndex across
// processes while keeping the math byte-identical to the in-process path.
//
//   - BuildShard(g, opts, S, s) constructs the same *Index that
//     BuildSharded(g, opts, S) would hold at shards[s] — same hash
//     partition, same apportioned θ_s, same derived seed, same per-shard
//     worker split — so a fleet of shard servers, each building its own
//     slice, reproduces the monolithic deployment's index bit for bit.
//   - Estimator.Partial / PrunedEstimator.Partial (and PartialFrontier)
//     run the scan ShardedEstimator runs on that shard and return its
//     rows verbatim, in a wire-friendly shape.
//   - gather is the single home of the estimator arithmetic: the
//     in-process ShardedEstimator and the coordinator's GatherPartials,
//     GatherFrontierPartials and GatherPartialsDegraded all fold their
//     rows through it, so distributed ≡ in-process holds by construction.
//   - GatherPartialsDegraded is the missing-shard fallback: the unbiased
//     sum over responding shards, extrapolated to the full population by
//     |V| / |V_responding|. The extrapolation multiply runs only on this
//     path, so a healthy gather never picks up a stray rounding step.

// Partial is one shard's contribution to one estimation — the only
// pre-gather value there is: the raw coverage counts plus the
// normalization metadata (θ_s, |V_s|) the gather needs. The JSON tags
// make it the wire row shard servers return verbatim.
type Partial struct {
	Shard int `json:"shard"`
	// Hits is the number of this shard's RR-Graphs containing the query
	// user that the user actually reaches under the probed edge
	// probabilities.
	Hits int64 `json:"hits"`
	// Samples counts the RR-Graphs whose reachability was verified
	// (after cut pruning for IndexEst+), mirroring Result.Samples.
	Samples int64 `json:"samples"`
	// Contained is θ_s(u), the shard's postings-list length for the user
	// (the recovered-graph count for DelayMat).
	Contained int `json:"contained"`
	// Theta is the shard's offline sample count θ_s.
	Theta int64 `json:"theta"`
	// Users is |V_s|, the shard's target-pool size.
	Users int `json:"users"`
	// EstHits and Stopped carry the sequential-stopping outcome of a
	// frontier-batched scan: when Stopped is true
	// the shard terminated the scan early and EstHits holds the unbiased
	// (h/n)·N extrapolation the gather should use instead of Hits. Both
	// are zero-valued on the classic per-candidate path, keeping the v1
	// wire rows byte-identical.
	EstHits float64 `json:"est_hits,omitempty"`
	Stopped bool    `json:"stopped,omitempty"`
}

// effectiveHits returns the hit count a gather should normalize: the
// exact count, or the extrapolation recorded by an early-stopped scan.
func (p Partial) effectiveHits() float64 {
	if p.Stopped {
		return p.EstHits
	}
	return float64(p.Hits)
}

// shardLayout recomputes the deterministic (pools, θ apportionment) of a
// BuildSharded call and validates the shard id.
func shardLayout(numVertices int, opts BuildOptions, numShards, shard int) (pools [][]graph.VertexID, thetas []int64, err error) {
	S := numShards
	if S < 1 {
		S = 1
	}
	if shard < 0 || shard >= S {
		return nil, nil, fmt.Errorf("rrindex: shard %d outside [0,%d)", shard, S)
	}
	pools = shardPools(numVertices, S)
	sizes := make([]int, S)
	for s := range pools {
		sizes[s] = poolSizeOf(pools[s], numVertices)
	}
	return pools, shardThetas(opts.Theta(numVertices), sizes), nil
}

// BuildShard constructs shard `shard` of an S-way sharded index, exactly
// as BuildSharded(g, opts, numShards) builds its shards[shard]: the same
// hash partition, apportioned θ, derived RNG stream and per-shard worker
// count. The second return is |V_s|. A shard-server fleet built this way
// is byte-identical, shard for shard, to the in-process ShardedIndex.
func BuildShard(g *graph.Graph, opts BuildOptions, numShards, shard int) (*Index, int, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, 0, fmt.Errorf("rrindex: %w", err)
	}
	S := numShards
	if S < 1 {
		S = 1
	}
	pools, thetas, err := shardLayout(g.NumVertices(), opts, numShards, shard)
	if err != nil {
		return nil, 0, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	o.Workers = (workers + S - 1) / S
	idx, err := buildWithPool(g, o, pools[shard], thetas[shard])
	return idx, poolSizeOf(pools[shard], g.NumVertices()), err
}

// BuildDelayMatShard is BuildShard for the DelayMat counter structure.
func BuildDelayMatShard(g *graph.Graph, opts BuildOptions, numShards, shard int) (*DelayMat, int, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, 0, fmt.Errorf("rrindex: %w", err)
	}
	pools, thetas, err := shardLayout(g.NumVertices(), opts, numShards, shard)
	if err != nil {
		return nil, 0, err
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	dm, err := buildDelayMatPool(g, o, pools[shard], thetas[shard])
	return dm, poolSizeOf(pools[shard], g.NumVertices()), err
}

// shardRepairPlan is the single-shard replica of routeRepair's per-shard
// decision: whether shard `shard` needs re-sampling under this batch, and
// the repairSpec to run if so. oldTheta is the shard's current θ_s and
// ownsTouched whether its postings/counters contain a touched head.
func shardRepairPlan(newVertices, oldVertices, addedVertices int, opts BuildOptions, numShards, shard int,
	oldTheta int64, ownsTouched bool) (needs bool, spec repairSpec, users int, err error) {
	if newVertices != oldVertices+addedVertices {
		return false, spec, 0, fmt.Errorf("rrindex: graph has %d vertices, want %d + %d added",
			newVertices, oldVertices, addedVertices)
	}
	S := numShards
	if S < 1 {
		S = 1
	}
	pools, thetas, err := shardLayout(newVertices, opts, numShards, shard)
	if err != nil {
		return false, spec, 0, err
	}
	pool := pools[shard]
	users = poolSizeOf(pool, newVertices)
	var addedPool []graph.VertexID
	if S > 1 {
		i := sort.Search(len(pool), func(i int) bool { return pool[i] >= graph.VertexID(oldVertices) })
		addedPool = pool[i:]
	}
	thetaNew := thetas[shard]
	if thetaNew < oldTheta {
		thetaNew = oldTheta // θ never shrinks
	}
	needs = thetaNew > oldTheta ||
		(S > 1 && len(addedPool) > 0) ||
		(S == 1 && addedVertices > 0) ||
		ownsTouched
	spec = repairSpec{addedVertices: addedVertices, thetaNew: thetaNew}
	if S > 1 {
		spec.pool = pool
		spec.addedPool = addedPool
	}
	return needs, spec, users, nil
}

// RepairShard repairs this index as shard `shard` of an S-way layout,
// applying exactly the routing decision ShardedIndex.Repair would for
// that shard: re-sample only when its postings contain a touched head,
// its partition gained users, or its apportioned θ grew — otherwise the
// receiver's arenas are shared via a zero-copy graph re-bind. opts.Seed
// must be the cluster's base repair seed for the new generation; the
// per-shard derivation happens here. Returns the new shard, its repair
// stats and the new |V_s|.
func (idx *Index) RepairShard(g *graph.Graph, opts BuildOptions, numShards, shard int,
	touched []graph.VertexID, addedVertices int) (*Index, RepairStats, int, error) {
	var stats RepairStats
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, stats, 0, fmt.Errorf("rrindex: %w", err)
	}
	owns := false
	for _, h := range touched {
		if int(h) < len(idx.containing) && len(idx.containing[h]) > 0 {
			owns = true
			break
		}
	}
	needs, spec, users, err := shardRepairPlan(g.NumVertices(), idx.g.NumVertices(), addedVertices,
		opts, numShards, shard, idx.theta, owns)
	if err != nil {
		return nil, stats, 0, err
	}
	if !needs {
		stats.Total = len(idx.graphs)
		return idx.withGraph(g), stats, users, nil
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	next, stats, err := idx.repair(g, o, touched, spec)
	return next, stats, users, err
}

// RepairShard is the DelayMat analog of Index.RepairShard; it requires
// TrackMembers bookkeeping (ErrNotRepairable otherwise).
func (dm *DelayMat) RepairShard(g *graph.Graph, opts BuildOptions, numShards, shard int,
	touched []graph.VertexID, addedVertices int) (*DelayMat, RepairStats, int, error) {
	var stats RepairStats
	if !dm.CanRepair() {
		return nil, stats, 0, ErrNotRepairable
	}
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, stats, 0, fmt.Errorf("rrindex: %w", err)
	}
	owns := false
	for _, h := range touched {
		if int(h) < len(dm.counts) && dm.counts[h] > 0 {
			owns = true
			break
		}
	}
	needs, spec, users, err := shardRepairPlan(g.NumVertices(), dm.g.NumVertices(), addedVertices,
		opts, numShards, shard, dm.theta, owns)
	if err != nil {
		return nil, stats, 0, err
	}
	if !needs {
		stats.Total = len(dm.members)
		return dm.withGraph(g), stats, users, nil
	}
	o := opts
	o.Seed = shardSeed(opts.Seed, shard)
	next, stats, err := dm.repair(g, o, touched, spec)
	return next, stats, users, err
}

// NumGraphs returns the number of materialized RR-Graphs.
func (idx *Index) NumGraphs() int { return len(idx.graphs) }

// Partial runs the per-prober scan against this shard's index. shard and
// users identify the shard's slot and |V_s| in the cluster layout.
func (est *Estimator) Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	return est.scanProber(shard, users, u, prober)
}

// Partial is Estimator.Partial with the cut-pruning layer: Samples counts
// only the graphs that survived the filter and were verified.
func (pe *PrunedEstimator) Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	return pe.scanProber(shard, users, u, prober)
}

// PartialFrontier is the frontier-batched scan: one wire row per sibling
// posterior, decided in a single masked pass over this shard's postings.
// totalUsers is the cluster's full |V| (the stopping threshold is
// apportioned by θ_s/|V|); stop follows the StopRule contract. With
// stopping disabled each row is byte-identical to a Partial call for
// that sibling.
func (est *Estimator) PartialFrontier(shard, users, totalUsers int, u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []Partial {
	out := make([]Partial, len(posteriors))
	scanFrontierChunks(est, shard, users, totalUsers, u, posteriors, stop, out, 1)
	return out
}

// PartialFrontier is Estimator.PartialFrontier with the cut-pruning
// layer in front of verification.
func (pe *PrunedEstimator) PartialFrontier(shard, users, totalUsers int, u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []Partial {
	out := make([]Partial, len(posteriors))
	scanFrontierChunks(pe, shard, users, totalUsers, u, posteriors, stop, out, 1)
	return out
}

// gather folds one estimation's rows, one per shard in ascending shard
// order, into the unbiased spread estimate Σ_s (hits_s/θ_s)·|V_s|,
// clamped at 1 (the query user is always active). It is the only place
// rows become an influence, so every caller performs the identical float
// operations in the identical order. renorm is the degraded gather's
// |V|/|V_responding| factor, exactly 1 — and then not applied — for a
// complete set.
func gather(rows []Partial, renorm float64) sampling.Result {
	var r sampling.Result
	for i := range rows {
		p := &rows[i]
		r.Samples += p.Samples
		r.Theta += p.Theta
		r.Reachable += p.Contained
		if p.Theta > 0 {
			r.Influence += p.effectiveHits() / float64(p.Theta) * float64(p.Users)
		}
	}
	if renorm != 1 {
		r.Influence *= renorm
	}
	if r.Influence < 1 {
		r.Influence = 1
	}
	return r
}

// sortPartials orders parts ascending by shard id — the order a
// ShardedEstimator's rows are in, which fixes the float summation order.
func sortPartials(parts []Partial) {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Shard < parts[j].Shard })
}

// GatherPartials folds a COMPLETE set of per-shard partials (one per
// shard of the layout, any order) exactly as the in-process
// ShardedEstimator folds its own rows.
func GatherPartials(parts []Partial) sampling.Result {
	sortPartials(parts)
	return gather(parts, 1)
}

// GatherFrontierPartials folds per-shard PartialFrontier row sets —
// parts[s][i] is one shard's row for sibling i, every shard covering the
// same sibling list, shards in any order — into one Result per sibling,
// each exactly GatherPartials of that sibling's rows. Early-stopped rows
// contribute their extrapolated hit counts.
func GatherFrontierPartials(parts [][]Partial) []sampling.Result {
	if len(parts) == 0 || len(parts[0]) == 0 {
		return nil
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0].Shard < parts[j][0].Shard })
	out := make([]sampling.Result, len(parts[0]))
	sibling := make([]Partial, len(parts))
	for i := range out {
		for s := range parts {
			sibling[s] = parts[s][i]
		}
		out[i] = gather(sibling, 1)
	}
	return out
}

// GatherPartialsDegraded folds an INCOMPLETE set of partials — some
// shards unreachable — into a degraded estimate: the unbiased sum over
// responding shards, extrapolated to the full population by
// |V| / |V_responding| (the responding shards' estimate of the mean
// per-user coverage, applied to every user). totalUsers is the cluster's
// full |V|. Theta reports Σ θ_s over RESPONDING shards only, so callers
// can derive the achieved (weakened) ε from it.
func GatherPartialsDegraded(parts []Partial, totalUsers int) sampling.Result {
	sortPartials(parts)
	respUsers := 0
	for _, p := range parts {
		respUsers += p.Users
	}
	renorm := 1.0
	if respUsers > 0 && totalUsers > respUsers {
		renorm = float64(totalUsers) / float64(respUsers)
	}
	return gather(parts, renorm)
}
