package rrindex

import (
	"fmt"
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
	theta int64
	// repaired is the cumulative per-shard count of graphs re-sampled by
	// Repair, carried across generations for /statsz.
	repaired []int64
}

// BuildSharded constructs a sharded index with numShards hash partitions
// (values below 1 mean 1). Shards build concurrently, each under its own
// derived RNG stream, so the result is deterministic per
// (Seed, numShards, Workers); opts.Workers is divided among the shards.
func BuildSharded(g *graph.Graph, opts BuildOptions, numShards int) (*ShardedIndex, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, fmt.Errorf("rrindex: %w", err)
	}
	S := numShards
	if S < 1 {
		S = 1
	}
	pools := shardPools(g.NumVertices(), S)
	sizes := make([]int, S)
	for s := range pools {
		sizes[s] = poolSizeOf(pools[s], g.NumVertices())
	}
	thetas := shardThetas(opts.Theta(g.NumVertices()), sizes)
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	perShard := (workers + S - 1) / S

	si := &ShardedIndex{
		g: g, numShards: S, pools: pools,
		shards:   make([]*Index, S),
		repaired: make([]int64, S),
	}
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := opts
			o.Seed = shardSeed(opts.Seed, s)
			o.Workers = perShard
			si.shards[s], errs[s] = buildWithPool(g, o, pools[s], thetas[s])
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, sh := range si.shards {
		si.theta += sh.theta
	}
	return si, nil
}

// NumShards returns the shard count.
func (si *ShardedIndex) NumShards() int { return si.numShards }

// Theta returns the combined offline sample count Σ_s θ_s.
func (si *ShardedIndex) Theta() int64 { return si.theta }

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

// withGraph returns a shallow clone of the index re-bound to the updated
// graph, its postings table extended to cover appended vertices (which no
// existing graph can contain). The arenas and postings entries are shared
// — the receiver is immutable.
func (idx *Index) withGraph(g *graph.Graph) *Index {
	clone := *idx
	clone.g = g
	if g.NumVertices() > len(idx.containing) {
		containing := make([][]int32, g.NumVertices())
		copy(containing, idx.containing)
		clone.containing = containing
	}
	return &clone
}

// repairRouting carries the inputs of routeRepair, the shard-routing
// loop shared by the two sharded Repair implementations. The invariants
// encoded here — θ never shrinks, partition growth or θ growth forces a
// repair, untouched shards are shared, repairs run concurrently under
// shard-derived seeds via repairSpec — must stay identical for both
// container types, which is why the loop exists once.
type repairRouting struct {
	numShards     int
	oldVertices   int // |V| before the batch
	addedVertices int
	newPools      [][]graph.VertexID
	thetas        []int64           // apportioned θ targets per shard
	oldTheta      func(s int) int64 // current per-shard θ
	ownsTouched   func(s int) bool  // does shard s own a touched head?
}

// addedPool returns the members of shard s's pool appended by this batch.
// Pools are ascending and vertex IDs are append-only, so the additions
// are exactly the suffix with ID >= oldVertices — no old-generation pool
// (or O(|V|) recomputation of one) is needed.
func (rt repairRouting) addedPool(s int) []graph.VertexID {
	pool := rt.newPools[s]
	i := sort.Search(len(pool), func(i int) bool { return pool[i] >= graph.VertexID(rt.oldVertices) })
	return pool[i:]
}

// routeRepair decides repair-vs-share per shard and fans the repairs out
// concurrently: skipped shards come from share (a zero-copy re-bind of
// the old shard) with their graph Total, repaired ones from repairFn.
func routeRepair[T any](
	rt repairRouting,
	share func(s int) (T, int),
	repairFn func(s int, spec repairSpec) (T, RepairStats, error),
) (shards []T, perStats []RepairStats, err error) {
	S := rt.numShards
	shards = make([]T, S)
	perStats = make([]RepairStats, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		var addedPool []graph.VertexID
		if S > 1 {
			addedPool = rt.addedPool(s)
		}
		thetaNew := rt.thetas[s]
		if thetaNew < rt.oldTheta(s) {
			thetaNew = rt.oldTheta(s) // θ never shrinks
		}
		needs := thetaNew > rt.oldTheta(s) ||
			(S > 1 && len(addedPool) > 0) ||
			(S == 1 && rt.addedVertices > 0) ||
			rt.ownsTouched(s)
		if !needs {
			var total int
			shards[s], total = share(s)
			perStats[s].Total = total
			continue
		}
		wg.Add(1)
		go func(s int, addedPool []graph.VertexID, thetaNew int64) {
			defer wg.Done()
			spec := repairSpec{addedVertices: rt.addedVertices, thetaNew: thetaNew}
			if S > 1 {
				spec.pool = rt.newPools[s]
				spec.addedPool = addedPool
			}
			shards[s], perStats[s], errs[s] = repairFn(s, spec)
		}(s, addedPool, thetaNew)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	return shards, perStats, nil
}

// Repair returns a new ShardedIndex over the updated graph, repairing
// shards concurrently and only where needed: a shard is re-sampled only
// when its postings contain a touched head, its partition gained users,
// or its apportioned θ grew — otherwise the old shard's (immutable)
// arenas are shared with the new generation as-is. For a small edge batch
// this shrinks the repair scope to the ~1/S of the index that actually
// owns affected graphs. The receiver is not modified.
func (si *ShardedIndex) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*ShardedIndex, RepairStats, error) {
	var agg RepairStats
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, agg, fmt.Errorf("rrindex: %w", err)
	}
	oldV, newV := si.g.NumVertices(), g.NumVertices()
	if newV != oldV+addedVertices {
		return nil, agg, fmt.Errorf("rrindex: graph has %d vertices, want %d + %d added",
			newV, oldV, addedVertices)
	}
	S := si.numShards
	newPools := shardPools(newV, S)
	sizes := make([]int, S)
	for s := range newPools {
		sizes[s] = poolSizeOf(newPools[s], newV)
	}
	shards, perStats, err := routeRepair(repairRouting{
		numShards:     S,
		oldVertices:   oldV,
		addedVertices: addedVertices,
		newPools:      newPools,
		thetas:        shardThetas(opts.Theta(newV), sizes),
		oldTheta:      func(s int) int64 { return si.shards[s].theta },
		ownsTouched: func(s int) bool {
			sh := si.shards[s]
			for _, h := range touched {
				if int(h) < len(sh.containing) && len(sh.containing[h]) > 0 {
					return true
				}
			}
			return false
		},
	}, func(s int) (*Index, int) {
		return si.shards[s].withGraph(g), len(si.shards[s].graphs)
	}, func(s int, spec repairSpec) (*Index, RepairStats, error) {
		o := opts
		o.Seed = shardSeed(opts.Seed, s)
		return si.shards[s].repair(g, o, touched, spec)
	})
	if err != nil {
		return nil, agg, err
	}
	next := &ShardedIndex{
		g: g, numShards: S, pools: newPools, shards: shards,
		repaired: append([]int64(nil), si.repaired...),
	}
	for s := 0; s < S; s++ {
		agg.Invalidated += perStats[s].Invalidated
		agg.Retargeted += perStats[s].Retargeted
		agg.Appended += perStats[s].Appended
		agg.Total += perStats[s].Total
		next.repaired[s] += int64(perStats[s].Repaired())
		next.theta += next.shards[s].theta
	}
	return next, agg, nil
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
	theta     int64
	repaired  []int64
	// fire is the firing table of g that every DelayEstimator over this
	// generation shares, built by the first recovery (see lazyFireTable).
	fire lazyFireTable
}

// BuildShardedDelayMat runs the sharded offline counting phase; shards
// build concurrently under derived RNG streams (deterministic per
// (Seed, numShards)).
func BuildShardedDelayMat(g *graph.Graph, opts BuildOptions, numShards int) (*ShardedDelayMat, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, fmt.Errorf("rrindex: %w", err)
	}
	S := numShards
	if S < 1 {
		S = 1
	}
	pools := shardPools(g.NumVertices(), S)
	sizes := make([]int, S)
	for s := range pools {
		sizes[s] = poolSizeOf(pools[s], g.NumVertices())
	}
	thetas := shardThetas(opts.Theta(g.NumVertices()), sizes)
	sdm := &ShardedDelayMat{
		g: g, numShards: S, poolSizes: sizes,
		shards:   make([]*DelayMat, S),
		repaired: make([]int64, S),
	}
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := opts
			o.Seed = shardSeed(opts.Seed, s)
			sdm.shards[s], errs[s] = buildDelayMatPool(g, o, pools[s], thetas[s])
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, sh := range sdm.shards {
		sdm.theta += sh.theta
	}
	return sdm, nil
}

// NumShards returns the shard count.
func (sdm *ShardedDelayMat) NumShards() int { return sdm.numShards }

// Theta returns the combined offline sample count.
func (sdm *ShardedDelayMat) Theta() int64 { return sdm.theta }

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

// withGraph is the DelayMat analog of Index.withGraph: a shallow clone
// re-bound to the updated graph with counters extended to appended users.
func (dm *DelayMat) withGraph(g *graph.Graph) *DelayMat {
	clone := *dm
	clone.g = g
	if g.NumVertices() > len(dm.counts) {
		counts := make([]int64, g.NumVertices())
		copy(counts, dm.counts)
		clone.counts = counts
		clone.recomputeFootprint()
	}
	return &clone
}

// Repair is the sharded DelayMat repair, routed like ShardedIndex.Repair:
// only shards whose counters show a touched head, whose partition gained
// users, or whose θ grew are patched; the rest are shared. Requires
// TrackMembers bookkeeping on every shard (ErrNotRepairable otherwise).
func (sdm *ShardedDelayMat) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*ShardedDelayMat, RepairStats, error) {
	var agg RepairStats
	if !sdm.CanRepair() {
		return nil, agg, ErrNotRepairable
	}
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, agg, fmt.Errorf("rrindex: %w", err)
	}
	oldV, newV := sdm.g.NumVertices(), g.NumVertices()
	if newV != oldV+addedVertices {
		return nil, agg, fmt.Errorf("rrindex: graph has %d vertices, want %d + %d added",
			newV, oldV, addedVertices)
	}
	S := sdm.numShards
	newPools := shardPools(newV, S)
	sizes := make([]int, S)
	for s := range newPools {
		sizes[s] = poolSizeOf(newPools[s], newV)
	}
	shards, perStats, err := routeRepair(repairRouting{
		numShards:     S,
		oldVertices:   oldV,
		addedVertices: addedVertices,
		newPools:      newPools,
		thetas:        shardThetas(opts.Theta(newV), sizes),
		oldTheta:      func(s int) int64 { return sdm.shards[s].theta },
		ownsTouched: func(s int) bool {
			sh := sdm.shards[s]
			for _, h := range touched {
				if int(h) < len(sh.counts) && sh.counts[h] > 0 {
					return true
				}
			}
			return false
		},
	}, func(s int) (*DelayMat, int) {
		return sdm.shards[s].withGraph(g), len(sdm.shards[s].members)
	}, func(s int, spec repairSpec) (*DelayMat, RepairStats, error) {
		o := opts
		o.Seed = shardSeed(opts.Seed, s)
		return sdm.shards[s].repair(g, o, touched, spec)
	})
	if err != nil {
		return nil, agg, err
	}
	next := &ShardedDelayMat{
		g: g, numShards: S, poolSizes: sizes, shards: shards,
		repaired: append([]int64(nil), sdm.repaired...),
	}
	for s := 0; s < S; s++ {
		agg.Invalidated += perStats[s].Invalidated
		agg.Retargeted += perStats[s].Retargeted
		agg.Appended += perStats[s].Appended
		agg.Total += perStats[s].Total
		next.repaired[s] += int64(perStats[s].Repaired())
		next.theta += next.shards[s].theta
	}
	return next, agg, nil
}
