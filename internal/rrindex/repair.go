package rrindex

import (
	"errors"
	"fmt"
	"slices"

	"pitex/internal/graph"
	"pitex/internal/rng"
)

// This file implements incremental index maintenance under graph updates
// (pitex.Engine.ApplyUpdates): instead of rebuilding the offline structures
// from scratch after a batch of edge mutations, only the RR-Graphs whose
// sampled outcome could have changed are re-sampled, and DelayMat counters
// are patched in place.
//
// Soundness of the invalidation rule. RR-Graph generation (Def. 2) probes
// the in-edges of member vertices and keeps edges with c(e) < p(e). A
// mutation can change a graph's outcome only by changing the in-edge list
// or an in-edge probability of some member vertex — and every mutated edge
// changes exactly the in-list of its head. Therefore a graph whose member
// set is disjoint from the touched heads would be re-sampled to an
// identically distributed outcome, and keeping it preserves the index
// distribution exactly. Graphs containing a touched head are re-sampled
// from the NEW graph with fresh draws, keeping their original target, so
// the target marginal stays uniform.
//
// Vertex additions change |V|, which enters both θ = λ|V| and the uniform
// target distribution. Repair restores both: every existing graph
// re-targets onto a uniformly chosen new vertex with probability
// ΔV/|V_new| (old targets were uniform over V_old, so the mixture is
// uniform over V_new), and θ_new - θ_old fresh graphs with targets uniform
// over V_new are appended.
//
// Copy-on-write happens at store granularity: a repair writes a fresh
// graph store in one ordered pass (spliceStores). Re-sampled and appended
// graphs are generated into a small side store first, so the new store is
// sized exactly; untouched graphs' bytes are then copied in bulk runs and
// the re-sampled ones spliced in at their old indices. The old index
// never changes, and nothing of it is retained by the new one except the
// postings lists of clean vertices. The new store is always compact, so
// no generation pins an earlier one's graphs. A shard that needs no
// repair hands its store to the next generation whole (Index.share).

// ErrNotRepairable reports an index that lacks the bookkeeping incremental
// repair needs (a DelayMat built without TrackMembers, or one loaded from
// disk). Callers should fall back to a full rebuild.
var ErrNotRepairable = errors.New(
	"rrindex: index has no repair bookkeeping (rebuild required)")

// RepairStats summarizes what one Repair call re-sampled.
type RepairStats struct {
	// Invalidated counts graphs re-sampled because a touched head was a
	// member.
	Invalidated int
	// Retargeted counts graphs re-targeted onto newly added vertices to
	// restore target uniformity.
	Retargeted int
	// Appended counts fresh graphs appended for θ growth.
	Appended int
	// Total is the resulting graph count (= θ_new).
	Total int
}

// Repaired is Invalidated + Retargeted + Appended: how many graphs were
// sampled, the work a full rebuild would have spent θ times.
func (s RepairStats) Repaired() int { return s.Invalidated + s.Retargeted + s.Appended }

// repairSpec carries the pool-aware parameters of one repair: the
// monolithic Repair passes nil pools (the whole vertex range) while a
// sharded repair passes the shard's new user partition, the partition
// members added by this batch, and the shard's apportioned θ target.
type repairSpec struct {
	addedVertices int // global vertex growth (layout validation)
	// pool is the new target pool (nil = every vertex of the new graph).
	pool []graph.VertexID
	// addedPool lists pool members added by this batch; nil means the
	// identity tail [oldV, newV) of a monolithic repair.
	addedPool []graph.VertexID
	// thetaNew is the target θ after growth; values at or below the
	// current θ leave it unchanged (θ never shrinks).
	thetaNew int64
}

// poolCounts returns the retarget numerator (pool members added) and
// denominator (new pool size) of the spec.
func (rs repairSpec) poolCounts(newV int) (added, size int) {
	if rs.pool == nil {
		return rs.addedVertices, newV
	}
	return len(rs.addedPool), len(rs.pool)
}

// drawAdded draws a uniform retarget target among the pool members added
// by this batch.
func (rs repairSpec) drawAdded(r *rng.Source, oldV int) graph.VertexID {
	if rs.addedPool == nil {
		return graph.VertexID(oldV + r.Intn(rs.addedVertices))
	}
	return rs.addedPool[r.Intn(len(rs.addedPool))]
}

// walk is the one ordered pass of both repairs. It draws every graph's
// retarget Bernoulli in order and calls f for each graph to re-sample: a
// marked one with its old target, a retargeted one (marked now too) with
// a uniform added pool member. Then θ grows with |V| (Eq. 7), f called
// with gi = -1 for each appended graph, its target uniform over the new
// pool. It returns the new θ, which never shrinks: a cap change cannot
// retroactively unsample graphs without biasing the estimator.
func (spec repairSpec) walk(r *rng.Source, old *graphStore, marked []bool, theta int64, newV int, stats *RepairStats,
	f func(gi int, target graph.VertexID) error) (int64, error) {
	retargetP := 0.0
	if added, size := spec.poolCounts(newV); added > 0 {
		retargetP = float64(added) / float64(size)
	}
	for gi := range marked {
		var target graph.VertexID
		switch {
		case retargetP > 0 && r.Bernoulli(retargetP):
			target, marked[gi] = spec.drawAdded(r, newV-spec.addedVertices), true
			stats.Retargeted++
		case marked[gi]:
			target = old.target(gi)
			stats.Invalidated++
		default:
			continue
		}
		if err := f(gi, target); err != nil {
			return theta, err
		}
	}
	for ; theta < spec.thetaNew; theta++ {
		if err := f(-1, drawTarget(r, spec.pool, newV)); err != nil {
			return theta, err
		}
		stats.Appended++
	}
	return theta, nil
}

// Repair returns a new Index over the updated graph g, re-sampling only
// the RR-Graphs invalidated by the mutation batch. g must be the result of
// graph.ApplyDelta on the index's graph (edge IDs stable, addedVertices
// vertices appended); touched are the DeltaInfo.TouchedHeads. opts must
// carry the accuracy parameters the index was built with (θ growth is
// recomputed from them) and the seed for the repair sampler — vary the
// seed per update generation to keep repairs independent.
//
// The receiver is not modified: the new index gets its own store, so
// concurrent readers of the old index are unaffected — this is what makes
// zero-downtime hot-swap possible.
func (idx *Index) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*Index, RepairStats, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, RepairStats{}, fmt.Errorf("rrindex: %w", err)
	}
	theta, err := opts.Theta(g.NumVertices())
	if err != nil {
		return nil, RepairStats{}, err
	}
	return idx.repair(g, opts, touched, repairSpec{addedVertices: addedVertices, thetaNew: theta})
}

// repair is the pool-aware core of Repair; see repairSpec.
func (idx *Index) repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, spec repairSpec) (*Index, RepairStats, error) {
	var stats RepairStats
	oldV := idx.g.NumVertices()
	newV := g.NumVertices()
	if newV != oldV+spec.addedVertices {
		return nil, stats, fmt.Errorf("rrindex: graph has %d vertices, want %d + %d added",
			newV, oldV, spec.addedVertices)
	}

	// resampled marks the graph indices whose old postings entries are
	// stale: first those a touched head invalidates, then, in the pass
	// below, the retargeted ones.
	old := idx.graphs
	resampled := make([]bool, old.size())
	idx.markContaining(touched, resampled)

	// The one ordered pass re-samples the invalidated, retargeted and
	// appended graphs into fresh. dirty marks vertices whose postings list
	// must change: old or new posted members of any re-sampled graph, and
	// those of appended ones.
	r := rng.New(opts.Seed)
	sc := newGenScratch(newV)
	dirty := make([]bool, newV)
	fresh := newStoreLike(g, old, resampled)
	theta, err := spec.walk(r, old, resampled, idx.theta, newV, &stats, func(gi int, target graph.VertexID) error {
		if gi >= 0 {
			for _, v := range old.posted(gi) {
				dirty[v] = true
			}
		}
		return generate(g, target, r, sc, fresh)
	})
	if err != nil {
		return nil, stats, err
	}
	st, err := spliceStores(old, fresh, resampled)
	if err != nil {
		return nil, stats, err
	}
	next := &Index{g: g, theta: theta, graphs: st, maxSize: max(idx.maxSize, fresh.maxSize())}

	// Patch postings per affected vertex rather than rebuilding them from
	// the graphs: clean vertices share the old index's list (it is never
	// mutated), dirty ones get old-minus-resampled plus the re-sampled and
	// appended memberships. This keeps the per-batch fixed cost at
	// O(Σ_dirty |containing(v)|) sequential int32 scans instead of a
	// pointer chase over every graph — the difference between repair
	// amortizing θ and repair costing a rebuild.
	addCount := make([]int32, newV)
	for _, v := range fresh.verts {
		dirty[v] = true
		addCount[v]++
	}
	next.containing = make([][]int32, newV)
	total := 0
	for v := 0; v < newV; v++ {
		if !dirty[v] {
			if v < oldV {
				next.containing[v] = idx.containing[v]
			}
			continue
		}
		if v < oldV {
			total += len(idx.containing[v])
		}
		total += int(addCount[v])
	}
	flat := make([]int32, 0, total)
	for v := 0; v < newV; v++ {
		if !dirty[v] {
			continue
		}
		start := len(flat)
		if v < oldV {
			for _, gi := range idx.containing[v] {
				if !resampled[gi] {
					flat = append(flat, gi)
				}
			}
		}
		// Reserve the addition slots; filled in graph order below.
		next.containing[v] = flat[start : len(flat) : len(flat)+int(addCount[v])]
		flat = flat[:len(flat)+int(addCount[v])]
	}
	appendAdds := func(gi int) {
		for _, v := range next.graphs.posted(gi) {
			l := next.containing[v]
			next.containing[v] = append(l, int32(gi))
		}
	}
	for gi := range resampled {
		if resampled[gi] {
			appendAdds(gi)
		}
	}
	for gi := len(resampled); gi < next.graphs.size(); gi++ {
		appendAdds(gi)
	}
	stats.Total = next.graphs.size()
	next.seal()
	return next, stats, nil
}

// CanRepair reports whether the DelayMat carries the member bookkeeping
// Repair needs (built with BuildOptions.TrackMembers).
func (dm *DelayMat) CanRepair() bool { return dm.members != nil }

// Repair returns a new DelayMat over the updated graph g by patching
// counters: for each conceptual RR-Graph whose member set intersects the
// touched heads, the old members' counters are decremented, the member set
// is re-sampled from the new graph (same target), and the new members'
// counters are incremented. Vertex additions re-target and append exactly
// like Index.Repair. Requires TrackMembers bookkeeping; ErrNotRepairable
// otherwise. The receiver is not modified.
func (dm *DelayMat) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*DelayMat, RepairStats, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, RepairStats{}, fmt.Errorf("rrindex: %w", err)
	}
	theta, err := opts.Theta(g.NumVertices())
	if err != nil {
		return nil, RepairStats{}, err
	}
	return dm.repair(g, opts, touched, repairSpec{addedVertices: addedVertices, thetaNew: theta})
}

// repair is the pool-aware core of DelayMat.Repair; see repairSpec.
func (dm *DelayMat) repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, spec repairSpec) (*DelayMat, RepairStats, error) {
	var stats RepairStats
	if !dm.CanRepair() {
		return nil, stats, ErrNotRepairable
	}
	oldV := dm.g.NumVertices()
	newV := g.NumVertices()
	if newV != oldV+spec.addedVertices {
		return nil, stats, fmt.Errorf("rrindex: graph has %d vertices, want %d + %d added",
			newV, oldV, spec.addedVertices)
	}

	touchedSet := make([]bool, oldV)
	for _, h := range touched {
		if int(h) < oldV {
			touchedSet[h] = true
		}
	}

	next := &DelayMat{g: g, theta: dm.theta, counts: make([]int64, newV)}
	copy(next.counts, dm.counts)

	// The same ordered pass as Index.repair: re-sampled member sets go to
	// fresh, and spliceStores writes the new store.
	old := dm.members
	resampled := make([]bool, old.size())
	for i := range resampled {
		resampled[i] = slices.ContainsFunc(old.members(i), func(v graph.VertexID) bool { return touchedSet[v] })
	}
	fresh := newStore(g)
	r := rng.New(opts.Seed)
	mark := make([]bool, newV)
	var scratch memberScratch
	var err error
	next.theta, err = spec.walk(r, old, resampled, dm.theta, newV, &stats, func(i int, target graph.VertexID) error {
		if i >= 0 {
			for _, v := range old.members(i) {
				next.counts[v]--
			}
		}
		members := sampleMemberSet(g, target, r, mark, &scratch)
		for _, v := range members {
			next.counts[v]++
		}
		_, err := fresh.push(target, members, 0)
		return err
	})
	if err != nil {
		return nil, stats, err
	}
	if next.members, err = spliceStores(old, fresh, resampled); err != nil {
		return nil, stats, err
	}
	stats.Total = next.members.size()
	next.recomputeFootprint()
	return next, stats, nil
}
