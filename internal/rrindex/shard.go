package rrindex

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pitex/internal/graph"
)

// This file implements the sharded index mode: users are hash-partitioned
// into S shards, each shard owning its own graph store, postings arena
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
// What sharding buys: each shard's store, postings and DelayMat counters
// are independently allocated, built and repaired, so offline build and
// incremental repair parallelize across shards, and a repair touches only
// the shards whose postings contain a touched head — untouched shards are
// shared with the previous generation as-is (~1/S of the index per
// single-head batch, instead of all of it).
//
// One container. A shard is derived from one layout (pools, |V_s|, θ_s)
// by the per-shard helpers below: its build options, its build, and plan,
// the repair-routing decision. shardSet holds the shards of the layout a
// process has — every one in an engine, the owned ones on a shard server
// — and is the only code that builds, repairs and reports them, for
// ShardedIndex and ShardedDelayMat alike. A shard's bytes depend on the
// layout and its own id alone, never on which other shards are held, so
// a fleet of shard servers and the in-process index cannot drift apart.

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

// poolSizes returns every pool's |V_s| (a nil pool is every vertex).
func poolSizes(pools [][]graph.VertexID, numVertices int) []int {
	sizes := make([]int, len(pools))
	for s, pool := range pools {
		sizes[s] = len(pool)
		if pool == nil {
			sizes[s] = numVertices
		}
	}
	return sizes
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
	theta, err := opts.Theta(numVertices)
	if err != nil {
		return layout{}, err
	}
	l := layout{numVertices: numVertices, pools: shardPools(numVertices, max(1, numShards))}
	l.sizes = poolSizes(l.pools, numVertices)
	l.thetas = shardThetas(theta, l.sizes)
	return l, nil
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

// shardPart is what the container needs of one shard's structure:
// *Index or *DelayMat.
type shardPart[T any] interface {
	Theta() int64
	MemoryFootprint() int64
	// stat is the shard's ShardStats row as far as the structure knows
	// it: θ_s, the graph counts and the bytes.
	stat() ShardStat
	// owns reports whether a touched head appears in the shard's postings
	// or counters.
	owns(touched []graph.VertexID) bool
	// share re-binds the shard to the updated graph without re-sampling.
	share(g *graph.Graph) (T, RepairStats)
	repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, spec repairSpec) (T, RepairStats, error)
}

// shardSet is the one container of an S-way layout: the shards of it one
// process holds — all of them in an engine, the owned ones on a shard
// server — with their |V_s| and cumulative repair counts. It builds,
// repairs and reports once for both structures; ShardedIndex and
// ShardedDelayMat embed it. Immutable once built: Repair returns a new
// set.
type shardSet[T shardPart[T]] struct {
	g *graph.Graph
	// numShards is the layout's S; ids are the held shards' ids,
	// ascending, and shards, users (|V_s|) and repaired run parallel to
	// them.
	numShards int
	ids       []int
	shards    []T
	users     []int
	// repaired is the cumulative per-shard count of graphs re-sampled by
	// Repair, carried across generations for /statsz.
	repaired []int64
}

// holding returns an empty container for the shards owned (nil: every
// shard) of the layout whose pools have the given sizes, or an error when
// owned is not an ascending list of the layout's shard ids.
func holding[T shardPart[T]](g *graph.Graph, sizes []int, owned []int) (shardSet[T], error) {
	S := len(sizes)
	ids := slices.Clone(owned)
	if owned == nil {
		ids = make([]int, S)
		for s := range ids {
			ids[s] = s
		}
	}
	set := shardSet[T]{g: g, numShards: S, ids: ids, shards: make([]T, len(ids)), users: make([]int, len(ids)), repaired: make([]int64, len(ids))}
	for i, s := range ids {
		if s < 0 || s >= S || i > 0 && s <= ids[i-1] {
			return set, fmt.Errorf("rrindex: held shards %v are not ascending ids in [0,%d)", owned, S)
		}
		set.users[i] = sizes[s]
	}
	return set, nil
}

// buildShards builds the shards owned (nil: every shard) of the S-way
// layout over g, concurrently, each with build. A shard's bytes depend on
// (Seed, S, Workers) only — not on which other shards are held.
func buildShards[T shardPart[T]](g *graph.Graph, opts BuildOptions, numShards int, owned []int,
	build func(layout, *graph.Graph, BuildOptions, int) (T, error)) (shardSet[T], error) {
	l, err := newLayout(g.NumVertices(), opts, numShards)
	if err != nil {
		return shardSet[T]{}, err
	}
	set, err := holding[T](g, l.sizes, owned)
	if err != nil {
		return set, err
	}
	return set, eachShard(len(set.ids), func(i int) (err error) {
		set.shards[i], err = build(l, g, opts, set.ids[i])
		return err
	})
}

// repair returns the container over the updated graph, every held shard
// repaired concurrently under its own seed: re-sampled where plan says
// so, shared with the receiver as-is otherwise. The receiver is not
// modified.
func (c *shardSet[T]) repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (shardSet[T], RepairStats, error) {
	var agg RepairStats
	l, err := newLayout(g.NumVertices(), opts, c.numShards)
	if err != nil {
		return shardSet[T]{}, agg, err
	}
	next, _ := holding[T](g, l.sizes, c.ids)
	perShard := make([]RepairStats, len(c.ids))
	err = eachShard(len(c.ids), func(i int) error {
		old, s := c.shards[i], c.ids[i]
		spec, needs, err := l.plan(s, c.g.NumVertices(), addedVertices, old.Theta(), old.owns(touched))
		switch {
		case err != nil:
		case needs:
			next.shards[i], perShard[i], err = old.repair(g, l.options(opts, s), touched, spec)
		default:
			next.shards[i], perShard[i] = old.share(g)
		}
		return err
	})
	if err != nil {
		return shardSet[T]{}, agg, err
	}
	for i, st := range perShard {
		agg.Invalidated += st.Invalidated
		agg.Retargeted += st.Retargeted
		agg.Appended += st.Appended
		agg.Total += st.Total
		next.repaired[i] = c.repaired[i] + int64(st.Repaired())
	}
	return next, agg, nil
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

// sumTheta is Σ_s θ_s.
func sumTheta[T interface{ Theta() int64 }](shards []T) int64 {
	var theta int64
	for _, sh := range shards {
		theta += sh.Theta()
	}
	return theta
}

// NumShards returns the layout's shard count S.
func (c *shardSet[T]) NumShards() int { return c.numShards }

// Theta returns the held shards' combined offline sample count Σ_s θ_s.
func (c *shardSet[T]) Theta() int64 { return sumTheta(c.shards) }

// MemoryFootprint sums the held shards' O(1) cached footprints.
func (c *shardSet[T]) MemoryFootprint() int64 {
	var b int64
	for _, sh := range c.shards {
		b += sh.MemoryFootprint()
	}
	return b
}

// ShardStats snapshots the held shards' sizes and cumulative repair
// counts, one row per shard in ascending id order.
func (c *shardSet[T]) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.stat()
		out[i].Shard, out[i].Users, out[i].Repaired = c.ids[i], c.users[i], c.repaired[i]
	}
	return out
}

// ShardedIndex is the RR-Graph index of an S-way layout: one Index per
// held shard, each owning the targets of one user partition. Safe for
// concurrent readers, like Index; estimators carry per-shard scratch.
type ShardedIndex struct {
	shardSet[*Index]
}

// BuildOwned constructs the shards owned (ascending; nil means all) of
// an S-way sharded index over g (S values below 1 mean 1), concurrently.
// Each shard is deterministic per (Seed, numShards, Workers) whichever
// others are held, so shard servers that own parts of the layout hold
// the in-process index's shards bit for bit; opts.Workers is divided
// among the layout's S shards.
func BuildOwned(g *graph.Graph, opts BuildOptions, numShards int, owned []int) (*ShardedIndex, error) {
	set, err := buildShards(g, opts, numShards, owned, layout.buildIndex)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{set}, nil
}

// BuildSharded is BuildOwned of every shard.
func BuildSharded(g *graph.Graph, opts BuildOptions, numShards int) (*ShardedIndex, error) {
	return BuildOwned(g, opts, numShards, nil)
}

// ShardStat describes one shard of a sharded offline structure, the
// /statsz per-shard row. Singletons counts an index shard's one-vertex
// graphs, which it keeps as a count per target, not as graphs; InStars
// its in-stars, which it keeps as per-member thresholds.
type ShardStat struct {
	Shard      int
	Users      int
	Theta      int64
	Graphs     int
	Singletons int
	InStars    int
	Bytes      int64
	Repaired   int64
}

func (idx *Index) stat() ShardStat {
	return ShardStat{Theta: idx.theta, Graphs: idx.graphs.size(), Singletons: len(idx.graphs.singles),
		InStars: len(idx.graphs.starEnd), Bytes: idx.MemoryFootprint()}
}

// share returns a shallow clone of the index re-bound to the updated
// graph, its postings table, direct counts and tier windows extended to
// cover appended vertices (which no existing graph can contain), with the
// stats of that no-op repair. The graph store, postings entries and tier
// are shared — the receiver is immutable.
func (idx *Index) share(g *graph.Graph) (*Index, RepairStats) {
	clone := *idx
	clone.g = g
	if added := g.NumVertices() - len(idx.containing); added > 0 {
		clone.containing = append(slices.Clip(idx.containing), make([][]int32, added)...)
		clone.single = append(slices.Clip(idx.single), make([]int32, added)...)
		end := idx.tierStart[len(idx.tierStart)-1]
		clone.tierStart = append(slices.Clip(idx.tierStart), slices.Repeat([]uint32{end}, added)...)
		clone.recomputeFootprint()
	}
	return &clone, RepairStats{Total: idx.graphs.size()}
}

func (idx *Index) owns(touched []graph.VertexID) bool {
	for _, h := range touched {
		if int(h) < len(idx.containing) && idx.NumContaining(h) > 0 {
			return true
		}
	}
	return false
}

// Repair returns a new ShardedIndex over the updated graph, every held
// shard repaired concurrently. A shard is re-sampled only when its
// postings contain a touched head, its partition gained users, or its
// apportioned θ grew — otherwise the old shard's (immutable) store and
// postings are shared with the new generation as-is. For a small edge
// batch this shrinks the repair scope to the ~1/S of the index that
// actually owns affected graphs. The receiver is not modified.
func (si *ShardedIndex) Repair(g *graph.Graph, opts BuildOptions, touched []graph.VertexID, addedVertices int) (*ShardedIndex, RepairStats, error) {
	set, stats, err := si.repair(g, opts, touched, addedVertices)
	if err != nil {
		return nil, stats, err
	}
	return &ShardedIndex{set}, stats, nil
}

// ShardedDelayMat is S independent DelayMat counter arrays, one per hash
// partition: counts_s[u] is how many of shard s's conceptual RR-Graphs
// contain u. Because any user can appear in any shard's graphs, each
// shard's counter array spans all of |V| — the counter footprint (and
// file size) is S·8·|V| bytes rather than the monolithic 8·|V|. That is
// still orders of magnitude below a materialized index, but it means
// sharding buys DelayMat parallel build/repair and repair routing, not
// memory; keep S modest for DelayMat, and reach for sharding primarily
// on the materialized Index, whose graph stores really do partition.
type ShardedDelayMat struct {
	shardSet[*DelayMat]
	// gen is what every DelayEstimator over this generation shares: the
	// firing table of g and the recovery helpers, made on first use.
	gen delayGen
}

// BuildShardedDelayMat runs the sharded offline counting phase: the
// layout's per-shard DelayMat build for every shard, concurrently
// (deterministic per (Seed, numShards)).
func BuildShardedDelayMat(g *graph.Graph, opts BuildOptions, numShards int) (*ShardedDelayMat, error) {
	set, err := buildShards(g, opts, numShards, nil, layout.buildDelayMat)
	if err != nil {
		return nil, err
	}
	return &ShardedDelayMat{shardSet: set}, nil
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

// stat's Graphs is θ_s — the conceptual per-shard RR-Graph count, which
// is truthful whether or not TrackMembers bookkeeping is present (the
// member store is absent for untracked or disk-loaded counters); a
// DelayMat stores counts, not graphs, so it has no singletons or
// in-stars.
func (dm *DelayMat) stat() ShardStat {
	return ShardStat{Theta: dm.theta, Graphs: int(dm.theta), Bytes: dm.MemoryFootprint()}
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
	return &clone, RepairStats{Total: dm.members.size()}
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
	set, stats, err := sdm.repair(g, opts, touched, addedVertices)
	if err != nil {
		return nil, stats, err
	}
	return &ShardedDelayMat{shardSet: set}, stats, nil
}
