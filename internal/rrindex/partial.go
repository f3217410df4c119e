package rrindex

import (
	"fmt"
	"io"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// This file holds the one value a shard scan produces — the Partial row
// — and the one fold that consumes it, plus everything a shard server
// and a scatter-gather coordinator need to split one ShardedIndex across
// processes while keeping the math byte-identical to the in-process path.
//
//   - A shard server holds the shards it owns in the container an engine
//     holds all of them in (BuildOwned, shard.go), so it builds and
//     repairs each of them bit for bit as the in-process index does.
//     ReadOwned installs shards copied between replicas, refusing any
//     that does not fit the layout under its label.
//   - ShardedEstimator.Partials returns the rows its scatter produced,
//     one slice per held shard, in the shape the wire carries;
//     Estimator.Partial / PrunedEstimator.Partial are one shard's
//     single-row scan.
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
	// Contained is θ_s(u), how many of the shard's RR-Graphs contain the
	// user: its postings plus its one-vertex graphs (the recovered-graph
	// count for DelayMat).
	Contained int
	// Theta is the shard's offline sample count θ_s.
	Theta int64
	// Users is |V_s|, the shard's target-pool size.
	Users int
}

// BuildShard constructs shard `shard` of an S-way sharded index:
// BuildOwned holding that shard alone. The second return is |V_s|.
func BuildShard(g *graph.Graph, opts BuildOptions, numShards, shard int) (*Index, int, error) {
	si, err := BuildOwned(g, opts, numShards, []int{shard})
	if err != nil {
		return nil, 0, err
	}
	return si.shards[0], si.users[0], nil
}

// ReadOwned is BuildOwned for shards copied from another process instead
// of built: it loads the one-shard files (WriteShard's) of the shards
// owned (ascending) of the S-way layout over g, files[i] claiming
// |V_s| = users[i] for shard owned[i]. Every gather trusts a shard's
// |V_s| and targets, so each claim must be the layout's |V_s| and every
// graph's target must hash to its shard. A replica runs it before
// serving a resync snapshot.
func ReadOwned(g *graph.Graph, opts BuildOptions, numShards int, owned, users []int, files []io.Reader) (*ShardedIndex, error) {
	if len(users) != len(owned) || len(files) != len(owned) {
		return nil, fmt.Errorf("rrindex: %d shards, %d user counts and %d files", len(owned), len(users), len(files))
	}
	l, err := newLayout(g.NumVertices(), opts, numShards)
	if err != nil {
		return nil, err
	}
	set, err := holding[*Index](g, l.sizes, owned)
	if err != nil {
		return nil, err
	}
	for i, s := range set.ids {
		if users[i] != set.users[i] {
			return nil, fmt.Errorf("rrindex: shard %d claims %d users, the layout gives it %d", s, users[i], set.users[i])
		}
		if set.shards[i], err = ReadIndex(files[i], g); err != nil {
			return nil, fmt.Errorf("rrindex: shard %d: %w", s, err)
		}
		if err := set.shards[i].checkTargets(numShards, s); err != nil {
			return nil, err
		}
	}
	return &ShardedIndex{set}, nil
}

// checkTargets reports a graph whose target is not in shard s of an
// S-way partition.
func (idx *Index) checkTargets(numShards, s int) error {
	for gi := 0; gi < idx.graphs.size(); gi++ {
		if t := idx.graphs.target(gi); ShardOf(t, numShards) != s {
			return fmt.Errorf("rrindex: shard %d: graph %d target %d belongs to shard %d",
				s, gi, t, ShardOf(t, numShards))
		}
	}
	return nil
}

// Partial runs this shard's masked scan as a width-1 frontier under
// prober. shard and users identify the shard's slot and |V_s| in the
// cluster layout.
func (est *Estimator) Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	var row [1]Partial
	est.scanFrontier(shard, users, u, prober, oneRow, row[:], 1)
	return row[0]
}

// Partial is Estimator.Partial with the cut-pruning layer: Samples counts
// only the graphs that survived the filter and were verified.
func (pe *PrunedEstimator) Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	var row [1]Partial
	pe.scanFrontier(shard, users, u, prober, oneRow, row[:], 1)
	return row[0]
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

// GatherFrontierPartials folds per-shard Partials row sets —
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
