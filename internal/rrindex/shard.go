package rrindex

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pitex/internal/graph"
)

// This file implements the sharded index mode: users are hash-partitioned
// into S shards, each shard owning its own θ-graph arena, postings arena
// and (for DelayMat) counter array, built and repaired in parallel with
// per-shard RNG streams. A shard is an ordinary Index/DelayMat whose
// targets are drawn uniformly from the shard's user partition V_s with an
// apportioned sample count θ_s ∝ |V_s|; its RR-Graphs' member sets still
// span the whole graph (a reverse BFS crosses partitions freely), so any
// user can appear in any shard's postings.
//
// Statistical contract. Shard s's (hits_s/θ_s)·|V_s| is an unbiased
// estimate of Σ_{v∈V_s} Pr[u influences v | W] — the same RR argument as
// the monolithic index, restricted to targets in V_s — so the gathered sum
// over shards estimates the full spread E[I(u|W)] without bias for every
// S. At S=1 the single shard draws targets, seeds and worker chunks
// exactly as the monolithic Build, so estimates are byte-identical; at
// S>1 the estimate is a different (equally valid) sample of the same
// quantity, with the usual (1-ε) concentration at the combined θ.
//
// What sharding buys: each shard's arena, postings and DelayMat counters
// are independently allocated, built and compacted, so offline build and
// incremental repair parallelize across shards, and a repair touches only
// the shards whose postings contain a touched head — untouched shards are
// shared with the previous generation as-is (~1/S of the index per
// single-head batch, instead of all of it).
//
// One recipe. A shard is derived from one layout (pools, |V_s|, θ_s) by
// the per-shard helpers below: its build options, its build, and plan,
// the repair-routing decision. BuildSharded and both Repairs are an
// eachShard loop over them; BuildSharded is BuildShard per shard, and
// ShardedIndex.Repair is RepairShard per shard (partial.go), so a shard
// server fleet and the in-process index cannot drift apart.

// shardSeedMix separates per-shard RNG streams. Shard 0 keeps the
// caller's seed unchanged (the S=1 byte-identity contract); the constant
// differs from the per-worker mixing constant inside buildWithPool so
// shard s's stream never collides with shard 0's worker-s stream.
const shardSeedMix = 0xbf58476d1ce4e5b9

func shardSeed(seed uint64, s int) uint64 { return seed + uint64(s)*shardSeedMix }

// splitmixHash is the splitmix64 finalizer, used as the user → shard hash.
func splitmixHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardOf returns the shard owning user u under the fixed hash partition.
// The assignment depends only on (u, numShards) — never on |V| — so it is
// stable as users are appended, which is what lets an incremental repair
// grow each shard's pool append-only.
func ShardOf(u graph.VertexID, numShards int) int {
	if numShards <= 1 {
		return 0
	}
	return int(splitmixHash(uint64(u)) % uint64(numShards))
}

// shardPools hash-partitions [0, numVertices) into numShards ascending
// user lists. A single shard is represented as a nil pool (every vertex),
// which keeps the S=1 build on the exact monolithic code path.
func shardPools(numVertices, numShards int) [][]graph.VertexID {
	if numShards <= 1 {
		return [][]graph.VertexID{nil}
	}
	counts := make([]int, numShards)
	for v := 0; v < numVertices; v++ {
		counts[ShardOf(graph.VertexID(v), numShards)]++
	}
	pools := make([][]graph.VertexID, numShards)
	for s := range pools {
		pools[s] = make([]graph.VertexID, 0, counts[s])
	}
	for v := 0; v < numVertices; v++ {
		s := ShardOf(graph.VertexID(v), numShards)
		pools[s] = append(pools[s], graph.VertexID(v))
	}
	return pools
}

// poolSizeOf returns |V_s| for a pool (nil = the whole vertex range).
func poolSizeOf(pool []graph.VertexID, numVertices int) int {
	if pool == nil {
		return numVertices
	}
	return len(pool)
}

// shardThetas apportions the total θ across shards proportionally to
// their pool sizes (largest-prefix chunking, deterministic, Σ = total),
// then bumps any populated shard from 0 to 1 sample so no subpopulation
// loses representation under extreme MaxIndexSamples caps (Σ may then
// exceed total by at most S-1; per-shard normalization keeps every
// estimate unbiased regardless).
func shardThetas(total int64, sizes []int) []int64 {
	out := make([]int64, len(sizes))
	var totalUsers int64
	for _, n := range sizes {
		totalUsers += int64(n)
	}
	if totalUsers == 0 {
		return out
	}
	// hi = floor(total·cum/totalUsers) without int64 overflow: cum and the
	// remainder product each stay below 2^62 for any sane vertex count.
	q, rem := total/totalUsers, total%totalUsers
	var cum, prev int64
	for s, n := range sizes {
		cum += int64(n)
		hi := q*cum + rem*cum/totalUsers
		out[s] = hi - prev
		prev = hi
		if out[s] == 0 && n > 0 {
			out[s] = 1
		}
	}
	return out
}

// layout is the S-way shard layout of one graph: the hash partition of
// its users into pools, each pool's size |V_s| and apportioned θ_s. It
// is computed once per build or repair, by newLayout, and every
// per-shard helper reads from it.
type layout struct {
	numVertices int
	// pools[s] lists shard s's users ascending; nil (only at S=1) means
	// every vertex.
	pools  [][]graph.VertexID
	sizes  []int
	thetas []int64
}

// newLayout validates the accuracy parameters and derives the layout of
// numShards shards (values below 1 mean 1) over numVertices users.
func newLayout(numVertices int, opts BuildOptions, numShards int) (layout, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return layout{}, fmt.Errorf("rrindex: %w", err)
	}
	l := layout{numVertices: numVertices, pools: shardPools(numVertices, max(1, numShards))}
	l.sizes = make([]int, len(l.pools))
	for s, pool := range l.pools {
		l.sizes[s] = poolSizeOf(pool, numVertices)
	}
	l.thetas = shardThetas(opts.Theta(numVertices), l.sizes)
	return l, nil
}

// layoutFor is newLayout for a caller holding one shard, which must be
// one of the layout's.
func layoutFor(numVertices int, opts BuildOptions, numShards, shard int) (layout, error) {
	l, err := newLayout(numVertices, opts, numShards)
	if err == nil && (shard < 0 || shard >= len(l.pools)) {
		err = fmt.Errorf("rrindex: shard %d outside [0,%d)", shard, len(l.pools))
	}
	return l, err
}

// options derives shard s's build options from the base ones: its own
// RNG stream and its share of the workers.
func (l layout) options(opts BuildOptions, s int) BuildOptions {
	S := len(l.pools)
	opts.Seed = shardSeed(opts.Seed, s)
	opts.Workers = (max(1, opts.Workers) + S - 1) / S
	return opts
}

// buildIndex builds shard s's RR-Graph index.
func (l layout) buildIndex(g *graph.Graph, opts BuildOptions, s int) (*Index, error) {
	return buildWithPool(g, l.options(opts, s), l.pools[s], l.thetas[s])
}

// buildDelayMat builds shard s's DelayMat counters.
func (l layout) buildDelayMat(g *graph.Graph, opts BuildOptions, s int) (*DelayMat, error) {
	return buildDelayMatPool(g, l.options(opts, s), l.pools[s], l.thetas[s])
}

// plan is the repair-routing decision for shard s, with l the layout of
// the updated graph: the shard must be re-sampled (needs) when its
// postings or counters hold a touched head (ownsTouched), its partition
// gained users, or its apportioned θ_s grew past oldTheta — θ never
// shrinks. Otherwise the old shard is shared as-is. spec carries the
// shard's pool parameters for the re-sampling.
func (l layout) plan(s, oldVertices, addedVertices int, oldTheta int64, ownsTouched bool) (spec repairSpec, needs bool, err error) {
	if l.numVertices != oldVertices+addedVertices {
		return spec, false, fmt.Errorf("rrindex: graph has %d vertices, want %d + %d added",
			l.numVertices, oldVertices, addedVertices)
	}
	spec = repairSpec{addedVertices: addedVertices, thetaNew: max(l.thetas[s], oldTheta)}
	grew := addedVertices > 0
	if pool := l.pools[s]; pool != nil {
		// Pools are ascending and vertex IDs append-only, so this batch's
		// additions are exactly the suffix with ID >= oldVertices.
		i := sort.Search(len(pool), func(i int) bool { return pool[i] >= graph.VertexID(oldVertices) })
		spec.pool, spec.addedPool = pool, pool[i:]
		grew = len(spec.addedPool) > 0
	}
	return spec, ownsTouched || grew || spec.thetaNew > oldTheta, nil
}

// shardPart is what the repair recipe needs of one shard's structure:
// *Index or *DelayMat.
type shardPart[T any] interface {
	Theta() int64
	// owns reports whether a touched head appears in the shard's postings
	// or counters.
	owns(touched []graph.VertexID) bool
	// share re-binds the shard to the updated graph without re-sampling.
	share(g *graph.Graph) (T, RepairStats)
	repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, spec repairSpec) (T, RepairStats, error)
}

// repairShard repairs shard s of a structure over oldVertices users onto
// g, whose layout is l: re-sampled under the shard's seed where plan says
// so, shared otherwise.
func repairShard[T shardPart[T]](old T, oldVertices int, g *graph.Graph, l layout, opts BuildOptions, s int,
	touched []graph.VertexID, addedVertices int) (T, RepairStats, error) {
	spec, needs, err := l.plan(s, oldVertices, addedVertices, old.Theta(), old.owns(touched))
	if err != nil {
		var zero T
		return zero, RepairStats{}, err
	}
	if !needs {
		next, stats := old.share(g)
		return next, stats, nil
	}
	return old.repair(g, l.options(opts, s), touched, spec)
}

// repairShards is a container's repair: one layout of g, then
// repairShard on every shard concurrently.
func repairShards[T shardPart[T]](old []T, oldVertices int, g *graph.Graph, opts BuildOptions,
	touched []graph.VertexID, addedVertices int) (layout, []T, []RepairStats, error) {
	l, err := newLayout(g.NumVertices(), opts, len(old))
	if err != nil {
		return l, nil, nil, err
	}
	next, stats := make([]T, len(old)), make([]RepairStats, len(old))
	err = eachShard(len(old), func(s int) (err error) {
		next[s], stats[s], err = repairShard(old[s], oldVertices, g, l, opts, s, touched, addedVertices)
		return err
	})
	return l, next, stats, err
}

// eachShard runs fn for every shard of [0, numShards) concurrently and
// returns the lowest-numbered shard's error.
func eachShard(numShards int, fn func(s int) error) error {
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	for s := range numShards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = fn(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tally sums per-shard repair stats into the batch's, adding each shard's
// re-sampled count to its cumulative counter in repaired.
func tally(perShard []RepairStats, repaired []int64) RepairStats {
	var agg RepairStats
	for s, st := range perShard {
		agg.Invalidated += st.Invalidated
		agg.Retargeted += st.Retargeted
		agg.Appended += st.Appended
		agg.Total += st.Total
		repaired[s] += int64(st.Repaired())
	}
	return agg
}

// sumTheta is Σ_s θ_s.
func sumTheta[T interface{ Theta() int64 }](shards []T) int64 {
	var theta int64
	for _, sh := range shards {
		theta += sh.Theta()
	}
	return theta
}

// ShardedIndex is S independent RR-Graph indexes over one graph, each
// owning the targets of one user partition. Safe for concurrent readers,
// like Index; estimators carry per-shard scratch.
type ShardedIndex struct {
	g         *graph.Graph
	numShards int
	shards    []*Index
	// pools[s] lists shard s's users ascending; nil (only at S=1) means
	// every vertex.
	pools [][]graph.VertexID
	// repaired is the cumulative per-shard count of graphs re-sampled by
	// Repair, carried across generations for /statsz.
	repaired []int64
}

// BuildSharded constructs a sharded index with numShards hash partitions
// (values below 1 mean 1): BuildShard for every shard, concurrently. The
// result is deterministic per (Seed, numShards, Workers); opts.Workers is
// divided among the shards.
func BuildSharded(g *graph.Graph, opts BuildOptions, numShards int) (*ShardedIndex, error) {
	l, err := newLayout(g.NumVertices(), opts, numShards)
	if err != nil {
		return nil, err
	}
	S := len(l.pools)
	si := &ShardedIndex{g: g, numShards: S, pools: l.pools, shards: make([]*Index, S), repaired: make([]int64, S)}
	if err := eachShard(S, func(s int) (err error) {
		si.shards[s], err = l.buildIndex(g, opts, s)
		return err
	}); err != nil {
		return nil, err
	}
	return si, nil
}

// NumShards returns the shard count.
func (si *ShardedIndex) NumShards() int { return si.numShards }

// Theta returns the combined offline sample count Σ_s θ_s.
func (si *ShardedIndex) Theta() int64 { return sumTheta(si.shards) }

// MemoryFootprint sums the shards' O(1) cached footprints.
func (si *ShardedIndex) MemoryFootprint() int64 {
	var b int64
	for _, sh := range si.shards {
		b += sh.MemoryFootprint()
	}
	return b
}

// ShardStat describes one shard of a sharded offline structure, the
// /statsz per-shard row.
type ShardStat struct {
	Shard    int
	Users    int
	Theta    int64
	Graphs   int
	Bytes    int64
	Repaired int64
}

// ShardStats snapshots per-shard sizes and cumulative repair counts.
func (si *ShardedIndex) ShardStats() []ShardStat {
	out := make([]ShardStat, si.numShards)
	for s, sh := range si.shards {
		out[s] = ShardStat{
			Shard:    s,
			Users:    poolSizeOf(si.pools[s], si.g.NumVertices()),
			Theta:    sh.theta,
			Graphs:   len(sh.graphs),
			Bytes:    sh.MemoryFootprint(),
			Repaired: si.repaired[s],
		}
	}
	return out
}

// share returns a shallow clone of the index re-bound to the updated
// graph, its postings table extended to cover appended vertices (which no
// existing graph can contain), with the stats of that no-op repair. The
// arenas and postings entries are shared — the receiver is immutable.
func (idx *Index) share(g *graph.Graph) (*Index, RepairStats) {
	clone := *idx
	clone.g = g
	if g.NumVertices() > len(idx.containing) {
		containing := make([][]int32, g.NumVertices())
		copy(containing, idx.containing)
		clone.containing = containing
	}
	return &clone, RepairStats{Total: len(idx.graphs)}
}

func (idx *Index) owns(touched []graph.VertexID) bool {
	for _, h := range touched {
		if int(h) < len(idx.containing) && len(idx.containing[h]) > 0 {
			return true
		}
	}
	return false
}

// Repair returns a new ShardedIndex over the updated graph: RepairShard
// for every shard, concurrently. A shard is re-sampled only when its
// postings contain a touched head, its partition gained users, or its
// apportioned θ grew — otherwise the old shard's (immutable) arenas are
// shared with the new generation as-is. For a small edge batch this
// shrinks the repair scope to the ~1/S of the index that actually owns
// affected graphs. The receiver is not modified.
func (si *ShardedIndex) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*ShardedIndex, RepairStats, error) {
	l, shards, perShard, err := repairShards(si.shards, si.g.NumVertices(), g, opts, touched, addedVertices)
	if err != nil {
		return nil, RepairStats{}, err
	}
	next := &ShardedIndex{g: g, numShards: si.numShards, pools: l.pools, shards: shards, repaired: slices.Clone(si.repaired)}
	return next, tally(perShard, next.repaired), nil
}

// ShardedDelayMat is S independent DelayMat counter arrays, one per hash
// partition: counts_s[u] is how many of shard s's conceptual RR-Graphs
// contain u. Because any user can appear in any shard's graphs, each
// shard's counter array spans all of |V| — the counter footprint (and v3
// file size) is S·8·|V| bytes rather than the monolithic 8·|V|. That is
// still orders of magnitude below a materialized index, but it means
// sharding buys DelayMat parallel build/repair and repair routing, not
// memory; keep S modest for DelayMat, and reach for sharding primarily
// on the materialized Index, whose dominant arenas really do partition.
type ShardedDelayMat struct {
	g         *graph.Graph
	numShards int
	shards    []*DelayMat
	poolSizes []int
	repaired  []int64
	// fire is the firing table of g that every DelayEstimator over this
	// generation shares, built by the first recovery (see lazyFireTable).
	fire lazyFireTable
}

// BuildShardedDelayMat runs the sharded offline counting phase: the
// layout's per-shard DelayMat build for every shard, concurrently
// (deterministic per (Seed, numShards)).
func BuildShardedDelayMat(g *graph.Graph, opts BuildOptions, numShards int) (*ShardedDelayMat, error) {
	l, err := newLayout(g.NumVertices(), opts, numShards)
	if err != nil {
		return nil, err
	}
	S := len(l.pools)
	sdm := &ShardedDelayMat{g: g, numShards: S, poolSizes: l.sizes, shards: make([]*DelayMat, S), repaired: make([]int64, S)}
	if err := eachShard(S, func(s int) (err error) {
		sdm.shards[s], err = l.buildDelayMat(g, opts, s)
		return err
	}); err != nil {
		return nil, err
	}
	return sdm, nil
}

// NumShards returns the shard count.
func (sdm *ShardedDelayMat) NumShards() int { return sdm.numShards }

// Theta returns the combined offline sample count.
func (sdm *ShardedDelayMat) Theta() int64 { return sumTheta(sdm.shards) }

// MemoryFootprint sums the shards' cached footprints.
func (sdm *ShardedDelayMat) MemoryFootprint() int64 {
	var b int64
	for _, sh := range sdm.shards {
		b += sh.MemoryFootprint()
	}
	return b
}

// CanRepair reports whether every shard carries repair bookkeeping.
func (sdm *ShardedDelayMat) CanRepair() bool {
	for _, sh := range sdm.shards {
		if !sh.CanRepair() {
			return false
		}
	}
	return true
}

// ShardStats snapshots per-shard sizes and cumulative repair counts.
// Graphs reports θ_s — the conceptual per-shard RR-Graph count, which is
// truthful whether or not TrackMembers bookkeeping is present (len of
// members would read 0 for untracked or disk-loaded counters).
func (sdm *ShardedDelayMat) ShardStats() []ShardStat {
	out := make([]ShardStat, sdm.numShards)
	for s, sh := range sdm.shards {
		out[s] = ShardStat{
			Shard:    s,
			Users:    sdm.poolSizes[s],
			Theta:    sh.theta,
			Graphs:   int(sh.theta),
			Bytes:    sh.MemoryFootprint(),
			Repaired: sdm.repaired[s],
		}
	}
	return out
}

// share is the DelayMat analog of Index.share: a shallow clone re-bound
// to the updated graph with counters extended to appended users.
func (dm *DelayMat) share(g *graph.Graph) (*DelayMat, RepairStats) {
	clone := *dm
	clone.g = g
	if g.NumVertices() > len(dm.counts) {
		counts := make([]int64, g.NumVertices())
		copy(counts, dm.counts)
		clone.counts = counts
		clone.recomputeFootprint()
	}
	return &clone, RepairStats{Total: len(dm.members)}
}

func (dm *DelayMat) owns(touched []graph.VertexID) bool {
	for _, h := range touched {
		if int(h) < len(dm.counts) && dm.counts[h] > 0 {
			return true
		}
	}
	return false
}

// Repair is the sharded DelayMat repair, routed like ShardedIndex.Repair:
// only shards whose counters show a touched head, whose partition gained
// users, or whose θ grew are patched; the rest are shared. Requires
// TrackMembers bookkeeping on every shard (ErrNotRepairable otherwise).
func (sdm *ShardedDelayMat) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*ShardedDelayMat, RepairStats, error) {
	if !sdm.CanRepair() {
		return nil, RepairStats{}, ErrNotRepairable
	}
	l, shards, perShard, err := repairShards(sdm.shards, sdm.g.NumVertices(), g, opts, touched, addedVertices)
	if err != nil {
		return nil, RepairStats{}, err
	}
	next := &ShardedDelayMat{g: g, numShards: sdm.numShards, poolSizes: l.sizes, shards: shards, repaired: slices.Clone(sdm.repaired)}
	return next, tally(perShard, next.repaired), nil
}
