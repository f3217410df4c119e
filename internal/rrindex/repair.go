package rrindex

import (
	"fmt"
	"math/bits"
	"slices"

	"pitex/internal/graph"
	"pitex/internal/rng"
)

// This file implements incremental index maintenance under graph updates
// (pitex.Engine.ApplyUpdates): instead of rebuilding the index from
// scratch after a batch of edge mutations, only the RR-Graphs whose
// sampled outcome could have changed are re-sampled. A DelayMat keeps no
// graphs to repair: an update recounts it with the build's own options.
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
	// Dirty is the set of users whose answers the repair can change.
	Dirty Dirty
}

// Dirty is a set of users whose answers a repair can change. An index
// answer for user u reads only the graphs containing u, θ_s and |V_s|,
// so a repair that keeps θ_s and |V_s| can change only the answers of
// the members of the graphs it re-sampled, taken before and after
// re-sampling, of every kind (a one-vertex graph's target, an in-star's
// target and members, a deeper graph's members). A repair that retargets
// or appends graphs, or that grows the shard's pool, changes every
// answer: All. The zero value is the empty set.
type Dirty struct {
	All   bool
	users []uint64 // bitmap over user IDs
}

// Has reports whether u is in the set.
func (d Dirty) Has(u graph.VertexID) bool {
	i := int(u) >> 6
	return d.All || i < len(d.users) && d.users[i]>>(u&63)&1 != 0
}

// Len returns the set's size; numUsers when it holds every user.
func (d Dirty) Len(numUsers int) int {
	if d.All {
		return numUsers
	}
	n := 0
	for _, w := range d.users {
		n += bits.OnesCount64(w)
	}
	return n
}

// dirtyOver returns an empty set over numUsers users.
func dirtyOver(numUsers int) Dirty { return Dirty{users: make([]uint64, (numUsers+63)>>6)} }

// add puts u in the set.
func (d *Dirty) add(u graph.VertexID) { d.users[u>>6] |= 1 << (u & 63) }

// addDirect puts the members of graph pos of st in the set when it is a
// one-vertex graph (its target) or an in-star (its target and members).
// A deeper graph's members are posted, and repair takes them from its
// postings marks instead.
func (d *Dirty) addDirect(st *graphStore, pos int) {
	switch k, i := st.locate(pos); k {
	case oneVertex:
		d.add(st.singles[i])
	case inStar:
		lo, hi := st.starEntries(i)
		d.addStars(st.g, st.starEdge[lo:hi])
	}
}

// addStars puts both endpoints of every in-star entry in the set: the
// members and the target.
func (d *Dirty) addStars(g *graph.Graph, entries []graph.EdgeID) {
	for _, e := range entries {
		d.add(g.EdgeFrom(e))
		d.add(g.EdgeTo(e))
	}
}

// union adds o's users to the set. Both sets' bitmaps cover the same
// users.
func (d *Dirty) union(o Dirty) {
	switch {
	case d.All || o.All:
		*d = Dirty{All: true}
	case d.users == nil:
		d.users = slices.Clone(o.users)
	default:
		for i, w := range o.users {
			d.users[i] |= w
		}
	}
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

	// The one ordered pass draws every graph's retarget Bernoulli in order
	// and re-samples into fresh each marked graph with its old target and
	// each retargeted one (marked now too) with a uniform added pool
	// member. Then θ grows with |V| (Eq. 7): each appended graph's target
	// is uniform over the new pool. θ never shrinks: a cap change cannot
	// retroactively unsample graphs without biasing the estimator. dirty
	// marks vertices whose postings list must change: old or new posted
	// members of any re-sampled graph, and those of appended ones.
	// stats.Dirty takes the old one-vertex graphs and in-stars here,
	// fresh's below, and dirty's marks at the end.
	r, s := rng.New(opts.Seed), newSampler(g, nil)
	dirty := make([]bool, newV)
	stats.Dirty = dirtyOver(newV)
	fresh := newStoreLike(g, old, resampled)
	retargetP := 0.0
	if added, size := spec.poolCounts(newV); added > 0 {
		retargetP = float64(added) / float64(size)
	}
	for gi := range resampled {
		var target graph.VertexID
		switch {
		case retargetP > 0 && r.Bernoulli(retargetP):
			target, resampled[gi] = spec.drawAdded(r, oldV), true
			stats.Retargeted++
		case resampled[gi]:
			target = old.target(gi)
			stats.Invalidated++
		default:
			continue
		}
		for _, v := range old.posted(gi) {
			dirty[v] = true
		}
		stats.Dirty.addDirect(old, gi)
		s.sample(target, r)
		if err := fresh.add(target, &s.genScratch); err != nil {
			return nil, stats, err
		}
	}
	theta := idx.theta
	for ; theta < spec.thetaNew; theta++ {
		target := drawTarget(r, spec.pool, newV)
		s.sample(target, r)
		if err := fresh.add(target, &s.genScratch); err != nil {
			return nil, stats, err
		}
		stats.Appended++
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
	for _, t := range fresh.singles {
		stats.Dirty.add(t)
	}
	stats.Dirty.addStars(g, fresh.starEdge)
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
	if added, _ := spec.poolCounts(newV); added > 0 || theta > idx.theta {
		stats.Dirty = Dirty{All: true}
	} else {
		for v, d := range dirty {
			if d {
				stats.Dirty.add(graph.VertexID(v))
			}
		}
	}
	stats.Total = next.graphs.size()
	next.seal()
	return next, stats, nil
}
