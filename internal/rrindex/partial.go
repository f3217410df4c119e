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
//   - BuildSharded is BuildShard per shard, and ShardedIndex.Repair is
//     RepairShard per shard: both run the one shard recipe of shard.go
//     (layout, per-shard options, plan), so a fleet of shard servers,
//     each building and repairing its own slice, reproduces the in-process
//     deployment's index bit for bit. CheckShard holds a slice copied
//     between replicas to the same layout.
//   - Estimator.Partial / PrunedEstimator.Partial (and PartialFrontier)
//     run the scan ShardedEstimator runs on that shard and return its
//     rows verbatim, in a wire-friendly shape.
//   - gather is the single home of the estimator arithmetic: the
//     in-process ShardedEstimator, GatherPartials, and the coordinator's
//     GatherFrontierPartials and GatherPartialsDegraded all fold their
//     rows through it, so distributed ≡ in-process holds by construction.
//   - GatherPartialsDegraded is the missing-shard fallback: the unbiased
//     sum over responding shards, extrapolated to the full population by
//     |V| / |V_responding|. The extrapolation multiply runs only on this
//     path, so a healthy gather never picks up a stray rounding step.

// Partial is one shard's contribution to one estimation — the only
// pre-gather value there is: the raw coverage counts plus the
// normalization metadata (θ_s, |V_s|) the gather needs. Shard servers
// return it verbatim, every field in a distrib frame record.
type Partial struct {
	Shard int
	// Hits is the number of this shard's RR-Graphs containing the query
	// user that the user actually reaches under the probed edge
	// probabilities.
	Hits int64
	// Samples counts the RR-Graphs whose reachability was verified
	// (after cut pruning for IndexEst+), mirroring Result.Samples.
	Samples int64
	// Contained is θ_s(u), the shard's postings-list length for the user
	// (the recovered-graph count for DelayMat).
	Contained int
	// Theta is the shard's offline sample count θ_s.
	Theta int64
	// Users is |V_s|, the shard's target-pool size.
	Users int
}

// BuildShard constructs shard `shard` of an S-way sharded index — the
// same layout and per-shard build that BuildSharded runs for each of its
// shards, so a shard-server fleet built this way is byte-identical, shard
// for shard, to the in-process ShardedIndex. The second return is |V_s|.
func BuildShard(g *graph.Graph, opts BuildOptions, numShards, shard int) (*Index, int, error) {
	l, err := layoutFor(g.NumVertices(), opts, numShards, shard)
	if err != nil {
		return nil, 0, err
	}
	idx, err := l.buildIndex(g, opts, shard)
	return idx, l.sizes[shard], err
}

// RepairShard repairs this index as shard `shard` of an S-way layout,
// exactly as ShardedIndex.Repair repairs that shard: re-sample only when
// its postings contain a touched head, its partition gained users, or its
// apportioned θ grew — otherwise the receiver's arenas are shared via a
// zero-copy graph re-bind. opts.Seed must be the cluster's base repair
// seed for the new generation; the per-shard derivation happens here.
// Returns the new shard, its repair stats and the new |V_s|.
func (idx *Index) RepairShard(g *graph.Graph, opts BuildOptions, numShards, shard int,
	touched []graph.VertexID, addedVertices int) (*Index, RepairStats, int, error) {
	l, err := layoutFor(g.NumVertices(), opts, numShards, shard)
	if err != nil {
		return nil, RepairStats{}, 0, err
	}
	next, stats, err := repairShard(idx, idx.g.NumVertices(), g, l, opts, shard, touched, addedVertices)
	return next, stats, l.sizes[shard], err
}

// CheckShard reports whether idx, a slice copied from another process
// that claims |V_s| = users, fits as shard `shard` of the S-way layout
// over its graph: users must be the layout's |V_s| and every graph's
// target must hash to the shard. A replica runs it before serving an
// installed slice.
func (idx *Index) CheckShard(opts BuildOptions, numShards, shard, users int) error {
	l, err := layoutFor(idx.g.NumVertices(), opts, numShards, shard)
	if err != nil {
		return err
	}
	if users != l.sizes[shard] {
		return fmt.Errorf("rrindex: shard %d claims %d users, the layout gives it %d", shard, users, l.sizes[shard])
	}
	return idx.checkTargets(numShards, shard)
}

// checkTargets reports a graph whose target is not in shard s of an
// S-way partition.
func (idx *Index) checkTargets(numShards, s int) error {
	for gi := range idx.graphs {
		if t := idx.graphs[gi].target; ShardOf(t, numShards) != s {
			return fmt.Errorf("rrindex: shard %d: graph %d target %d belongs to shard %d",
				s, gi, t, ShardOf(t, numShards))
		}
	}
	return nil
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
// Each row is byte-identical to a Partial call for that sibling.
func (est *Estimator) PartialFrontier(shard, users int, u graph.VertexID, posteriors [][]float64) []Partial {
	out := make([]Partial, len(posteriors))
	scanFrontierChunks(est, shard, users, u, posteriors, out, 1)
	return out
}

// PartialFrontier is Estimator.PartialFrontier with the cut-pruning
// layer in front of verification.
func (pe *PrunedEstimator) PartialFrontier(shard, users int, u graph.VertexID, posteriors [][]float64) []Partial {
	out := make([]Partial, len(posteriors))
	scanFrontierChunks(pe, shard, users, u, posteriors, out, 1)
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
			r.Influence += float64(p.Hits) / float64(p.Theta) * float64(p.Users)
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
// each exactly GatherPartials of that sibling's rows.
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
