package rrindex

import (
	"errors"
	"fmt"

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
// With the arena layout, copy-on-write happens at segment granularity:
// the new index copies the view table (slice headers only), untouched
// views keep aliasing the old arena, and every re-sampled or appended
// graph is generated into one fresh per-repair arena whose views are
// patched in after generation finishes. The old index never changes.
// Because a single surviving view pins its entire backing array, repairs
// count their out-of-primary-arena views and compact into one fresh arena
// once those exceed half of θ, so retained memory across many update
// generations stays within ~2x the live index.

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

// Repair returns a new Index over the updated graph g, re-sampling only
// the RR-Graphs invalidated by the mutation batch. g must be the result of
// graph.ApplyDelta on the index's graph (edge IDs stable, addedVertices
// vertices appended); touched are the DeltaInfo.TouchedHeads. opts must
// carry the accuracy parameters the index was built with (θ growth is
// recomputed from them) and the seed for the repair sampler — vary the
// seed per update generation to keep repairs independent.
//
// The receiver is not modified: untouched views still alias the old
// (immutable) arena, so concurrent readers of the old index are
// unaffected — this is what makes zero-downtime hot-swap possible.
func (idx *Index) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*Index, RepairStats, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, RepairStats{}, fmt.Errorf("rrindex: %w", err)
	}
	spec := repairSpec{addedVertices: addedVertices, thetaNew: opts.Theta(g.NumVertices())}
	return idx.repair(g, opts, touched, spec)
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

	invalid := make([]bool, len(idx.graphs))
	for _, h := range touched {
		if int(h) >= len(idx.containing) {
			continue // head is a brand-new vertex: no graph can contain it
		}
		for _, gi := range idx.containing[h] {
			invalid[gi] = true
		}
	}

	r := rng.New(opts.Seed)
	sc := newGenScratch(newV)
	next := &Index{
		g:       g,
		graphs:  append([]RRGraph(nil), idx.graphs...),
		maxSize: idx.maxSize,
	}
	addedToPool, poolSize := spec.poolCounts(newV)
	retargetP := 0.0
	if addedToPool > 0 {
		retargetP = float64(addedToPool) / float64(poolSize)
	}
	// dirty marks vertices whose postings list must change: old or new
	// members of any re-sampled graph, and members of appended ones.
	// resampled marks the graph indices whose old postings entries are
	// stale. Old member sets must be recorded before the views are
	// swapped; the replacement views are patched in after generation (the
	// repair arena moves while it grows).
	resampled := make([]bool, len(idx.graphs))
	dirty := make([]bool, newV)
	ab := &arenaBuilder{}
	patched := make([]int, 0, 64)
	for gi := range next.graphs {
		rr := &next.graphs[gi]
		target := rr.target
		resample := invalid[gi]
		if retargetP > 0 && r.Bernoulli(retargetP) {
			target = spec.drawAdded(r, oldV)
			stats.Retargeted++
			resample = true
		} else if resample {
			stats.Invalidated++
		}
		if !resample {
			continue
		}
		resampled[gi] = true
		for _, v := range rr.verts {
			dirty[v] = true
		}
		generate(g, target, r, sc, ab)
		patched = append(patched, gi)
	}

	// θ grows with |V| (Eq. 7). It never shrinks: a cap change cannot
	// retroactively unsample graphs without biasing the estimator.
	next.theta = idx.theta
	if spec.thetaNew > next.theta {
		for i := next.theta; i < spec.thetaNew; i++ {
			generate(g, drawTarget(r, spec.pool, newV), r, sc, ab)
			stats.Appended++
		}
		next.theta = spec.thetaNew
	}

	// Swap in the repair-arena views: re-sampled graphs at their old
	// indices, appended ones at the end.
	views := ab.takeViews()
	for j, gi := range patched {
		next.graphs[gi] = views[j]
	}
	next.graphs = append(next.graphs, views[len(patched):]...)
	for i := range views {
		if n := views[i].NumVertices(); n > next.maxSize {
			next.maxSize = n
		}
	}

	// Patch postings per affected vertex rather than rebuilding them from
	// the graphs: clean vertices share the old index's list (it is never
	// mutated), dirty ones get old-minus-resampled plus the re-sampled and
	// appended memberships. This keeps the per-batch fixed cost at
	// O(Σ_dirty |containing(v)|) sequential int32 scans instead of a
	// pointer chase over every graph — the difference between repair
	// amortizing θ and repair costing a rebuild.
	addCount := make([]int32, newV)
	countAdds := func(gi int) {
		for _, v := range next.graphs[gi].verts {
			dirty[v] = true
			addCount[v]++
		}
	}
	for gi := range resampled {
		if resampled[gi] {
			countAdds(gi)
		}
	}
	for gi := len(idx.graphs); gi < len(next.graphs); gi++ {
		countAdds(gi)
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
		for _, v := range next.graphs[gi].verts {
			l := next.containing[v]
			next.containing[v] = append(l, int32(gi))
		}
	}
	for gi := range resampled {
		if resampled[gi] {
			appendAdds(gi)
		}
	}
	for gi := len(idx.graphs); gi < len(next.graphs); gi++ {
		appendAdds(gi)
	}
	stats.Total = len(next.graphs)
	// Views from this and earlier repair arenas pin their whole backing
	// arrays; once they outnumber half the index, copy everything into one
	// fresh arena so retained RSS stays within ~2x the live data (the
	// cached footprint tracks live views only).
	next.loose = idx.loose + len(views)
	if next.loose > len(next.graphs)/2 {
		next.compact()
	}
	next.recomputeFootprint()
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
	spec := repairSpec{addedVertices: addedVertices, thetaNew: opts.Theta(g.NumVertices())}
	return dm.repair(g, opts, touched, spec)
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

	next := &DelayMat{
		g:       g,
		theta:   dm.theta,
		counts:  make([]int64, newV),
		members: append([][]graph.VertexID(nil), dm.members...),
		targets: append([]graph.VertexID(nil), dm.targets...),
	}
	copy(next.counts, dm.counts)

	r := rng.New(opts.Seed)
	mark := make([]bool, newV)
	var scratch memberScratch
	addedToPool, poolSize := spec.poolCounts(newV)
	retargetP := 0.0
	if addedToPool > 0 {
		retargetP = float64(addedToPool) / float64(poolSize)
	}
	for i := range next.members {
		target := next.targets[i]
		resample := false
		for _, v := range next.members[i] {
			if touchedSet[v] {
				resample = true
				break
			}
		}
		if retargetP > 0 && r.Bernoulli(retargetP) {
			target = spec.drawAdded(r, oldV)
			stats.Retargeted++
			resample = true
		} else if resample {
			stats.Invalidated++
		}
		if !resample {
			continue
		}
		for _, v := range next.members[i] {
			next.counts[v]--
		}
		members := append([]graph.VertexID(nil), sampleMemberSet(g, target, r, mark, &scratch)...)
		for _, v := range members {
			next.counts[v]++
		}
		next.members[i] = members
		next.targets[i] = target
	}

	if spec.thetaNew > next.theta {
		for i := next.theta; i < spec.thetaNew; i++ {
			target := drawTarget(r, spec.pool, newV)
			members := append([]graph.VertexID(nil), sampleMemberSet(g, target, r, mark, &scratch)...)
			for _, v := range members {
				next.counts[v]++
			}
			next.members = append(next.members, members)
			next.targets = append(next.targets, target)
			stats.Appended++
		}
		next.theta = spec.thetaNew
	}
	stats.Total = len(next.members)
	next.recomputeFootprint()
	return next, stats, nil
}
