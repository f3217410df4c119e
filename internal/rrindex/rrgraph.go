// Package rrindex implements the paper's index-based influence estimation
// (Sec. 6): the RR-Graph structure (Def. 2), tag-aware reachability
// (Def. 3), the offline index with online matching (Algo 3, "IndexEst"),
// the edge-cut filter-and-verify pruning layer (Sec. 6.2, "IndexEst+"),
// and delay materialization (Sec. 6.3, Algo 4, "DelayMat").
//
// # Memory layout
//
// A graph is an offset, not a view. Each shard keeps its θ RR-Graphs in
// one graphStore, and a graph is its position in the store's sequence.
// Most graphs have one vertex: the target, whose in-edges all drew dead.
// Such a graph is a hit for its target under every tag set and for
// nobody else, so the store keeps it as one bit of a position bitmap
// (with a prefix count per 64-bit word) and its target in a singles
// array, about 4 bytes, and the Index keeps a per-user count of them
// instead of postings. The multi-vertex graphs lie in five flat,
// pointer-free arrays (verts, outStart, outTo, edgeID, c), back to back,
// with one 12-byte graphRec each (target, first vertex, first edge; a
// sentinel record closes the list). A scan builds graph gi's RRGraph
// view on its own stack (graphStore.view, one popcount rank from
// position to record), so the reachability kernels walk the same five
// slices they always did while the index holds no per-graph headers; the
// one-vertex graphs it never walks, adding their count to every row.
// Parallel Build workers fill per-worker stores that are merged once, in
// worker order, so the result is still deterministic per (Seed,
// Workers). The per-user postings lists, of multi-vertex graphs only,
// are windows into one shared int32 arena. Incremental Repair keeps the
// copy-on-write contract at store granularity: it writes a fresh,
// exactly sized store in one ordered pass (see repair.go), so concurrent
// readers of the old index are never affected and no generation pins
// another's graphs. Positions survive a repair, so a graph that changes
// kind keeps its place and clean users keep their postings lists. The
// file layout (serialize.go) still lists every graph in full.
//
// # Sharded mode
//
// ShardedIndex / ShardedDelayMat (see shard.go) hash-partition the users
// into S independent shards, each an ordinary Index/DelayMat whose
// targets are drawn from its partition with θ_s ∝ |V_s| samples. Shards
// build and repair concurrently under derived RNG streams, and a repair
// touches only the shards whose postings contain a touched head. S=1
// reproduces the monolithic structures bit-for-bit; the one file layout
// (serialize.go) round-trips shard boundaries at every S.
//
// # One estimator
//
// Every strategy and every S is estimated by ShardedEstimator (see
// estimator.go): a scan policy per shard — Estimator, PrunedEstimator or
// DelayEstimator, one per paper algorithm — turns the query user's
// RR-Graphs into Partial rows, and gather (partial.go) folds a sibling's
// rows into Σ_s (hits_s/θ_s)·|V_s|. A shard server ships the same rows
// and the coordinator folds them with the same function.
//
// # DelayMat recovery
//
// DelayMat stores θ(u) and recovers u's RR-Graphs on the first touch of a
// query user (Algo 4): about θ forward cascades from u, accepted with
// probability |V'|/|V|. The cascades are driven by the paper's own lazy
// propagation (Sec. 5.1, Algo 2, Lemma 6) rather than a coin per edge:
// a vertex is skipped until the visit at which one of its out-edges next
// fires, and the attempts at which the query user fires nothing — most
// of them — are jumped in bulk, the accepted ones located by geometric
// gaps (delay.go gives the exactness argument). What that needs of the
// graph, prefix survival products per out-edge and 1/ln q per vertex, is
// one immutable fireTable per graph generation (firing.go; 8·|E| + 8·|V|
// bytes, built by the first recovery, shared by every estimator of the
// generation, dropped with it on hot-swap). A recovery runs on the stream
// rng.Mix(seed, shard, user), so a recovered user is a pure function of
// that triple: the same from every clone, in any order.
package rrindex

import (
	"errors"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
)

// RRGraph is one sampled reverse-reachable graph (Def. 2): the vertices
// that reach Target after removing every edge whose uniform draw c(e)
// exceeds p(e) = max_z p(e|z), the surviving edges, and their draws.
// Because p(e) ≥ p(e|W) for every tag set W, an RRGraph is a valid RR
// sample for any query: an edge is live under W exactly when
// p(e|W) ≥ c(e) (Def. 3).
//
// An RRGraph is a view of one graph of a graphStore, built on demand by
// graphStore.view: its slices alias the store's arrays (see the package
// comment) and must never be mutated.
type RRGraph struct {
	target graph.VertexID

	// verts lists member vertices sorted ascending (local ID = index).
	verts []graph.VertexID
	// Local CSR over surviving edges, in original (forward) orientation.
	// outStart values are edge positions relative to this graph's segment.
	outStart []int32
	outTo    []int32 // local head IDs
	edgeID   []graph.EdgeID
	c        []float64
}

// Target returns the vertex this RR-Graph was sampled for.
func (r *RRGraph) Target() graph.VertexID { return r.target }

// NumVertices returns |V(v)|.
func (r *RRGraph) NumVertices() int { return len(r.verts) }

// NumEdges returns |E(v)|.
func (r *RRGraph) NumEdges() int { return len(r.edgeID) }

// localID returns the local index of global vertex v, or -1.
func (r *RRGraph) localID(v graph.VertexID) int32 {
	i := sort.Search(len(r.verts), func(i int) bool { return r.verts[i] >= v })
	if i < len(r.verts) && r.verts[i] == v {
		return int32(i)
	}
	return -1
}

// Contains reports whether v is a member of the RR-Graph.
func (r *RRGraph) Contains(v graph.VertexID) bool { return r.localID(v) >= 0 }

// rrEdge is a surviving edge during generation, before CSR assembly.
type rrEdge struct {
	from, to graph.VertexID
	id       graph.EdgeID
	c        float64
}

// genScratch is the per-worker reusable state of RR-Graph generation:
// the BFS mark and frontier, the member/edge accumulators, and the
// member -> local ID lookup table that replaces the former per-edge
// binary search during CSR assembly (localOf entries are only ever read
// for members of the graph being assembled, so it needs no reset).
type genScratch struct {
	mark    []bool
	localOf []int32
	stack   []graph.VertexID
	members []graph.VertexID
	edges   []rrEdge
	pos     []int32
}

func newGenScratch(numVertices int) *genScratch {
	return &genScratch{
		mark:    make([]bool, numVertices),
		localOf: make([]int32, numVertices),
	}
}

// graphRec locates multi-vertex graph i of a graphStore: its target and
// the offsets of its first vertex (v) and first edge (e). A store keeps one
// record per multi-vertex graph plus a sentinel holding the totals (its
// target unused), so graph i's vertex count is recs[i+1].v − recs[i].v and
// its edge count the same with e; its outStart window (n+1 entries)
// begins at recs[i].v + i.
type graphRec struct {
	target graph.VertexID
	v, e   uint32
}

const graphRecBytes = 12

// kindWord is 64 positions of a store's kind bitmap, bit set for a
// one-vertex graph, with the number of one-vertex graphs before them. A
// store's last word always has room: it is appended when the one before
// it fills, so every position up to size() has a word.
type kindWord struct {
	bits uint64
	rank uint32
}

const kindWordBytes = 16

// errStoreFull reports a shard whose graphs outgrow the store's uint32
// offsets: more than math.MaxUint32 outStart entries plus one-vertex
// graphs, or edges.
var errStoreFull = errors.New("rrindex: shard's RR-Graphs exceed the store's 2^32-1 vertex or edge offsets")

// offsetsFit reports whether a store of outStartLen outStart entries and
// edges edges is addressable by graphRec's uint32 offsets.
func offsetsFit(outStartLen, edges int64) bool {
	return outStartLen <= math.MaxUint32 && edges <= math.MaxUint32
}

// graphStore is one shard's RR-Graphs as flat, pointer-free arrays. A
// graph is its position in the sequence. A one-vertex graph — its target,
// no edges, a hit only for the target itself — is a bit in kinds and its
// target in singles, nothing more. The multi-vertex graphs lie back to
// back: members in verts, each one's local CSR in outStart
// (graph-relative edge positions, n+1 per graph) and in outTo, edgeID and
// c, and one graphRec each. view builds the RRGraph of a position, on the
// caller's stack, with one popcount rank. Build, the parallel merge, the
// file reader, DelayMat recovery and repair append into stores through
// push and concat, the one place one-vertex graphs are diverted, and a
// store is never mutated once published.
//
// A DelayMat's repair bookkeeping is a store's vertex half only: records
// and verts, with members in sampling order, e always 0 and no CSR.
type graphStore struct {
	recs     []graphRec // one per multi-vertex graph, then the sentinel
	verts    []graph.VertexID
	outStart []int32
	outTo    []int32
	edgeID   []graph.EdgeID
	c        []float64
	kinds    []kindWord
	singles  []graph.VertexID // one-vertex graphs' targets, in order
}

// newStore returns an empty store.
func newStore() *graphStore { return &graphStore{recs: []graphRec{{}}, kinds: []kindWord{{}}} }

// size returns the number of graphs in the store.
func (s *graphStore) size() int { return len(s.recs) - 1 + len(s.singles) }

// reset empties the store, keeping its capacity.
func (s *graphStore) reset() {
	*s = graphStore{recs: append(s.recs[:0], graphRec{}), verts: s.verts[:0],
		outStart: s.outStart[:0], outTo: s.outTo[:0], edgeID: s.edgeID[:0], c: s.c[:0],
		kinds: append(s.kinds[:0], kindWord{}), singles: s.singles[:0]}
}

// rank returns how many graphs before position pos (≤ size()) have one
// vertex.
func (s *graphStore) rank(pos int) int {
	w := s.kinds[pos>>6]
	return int(w.rank) + bits.OnesCount64(w.bits&(1<<(pos&63)-1))
}

// locate returns where graph pos lives: singles[i] when it has one
// vertex, recs[i] otherwise.
func (s *graphStore) locate(pos int) (single bool, i int) {
	k := s.rank(pos)
	if s.kinds[pos>>6].bits>>(pos&63)&1 != 0 {
		return true, k
	}
	return false, pos - k
}

// target returns graph pos's target.
func (s *graphStore) target(pos int) graph.VertexID {
	single, i := s.locate(pos)
	if single {
		return s.singles[i]
	}
	return s.recs[i].target
}

// members returns graph pos's member vertices.
func (s *graphStore) members(pos int) []graph.VertexID {
	single, i := s.locate(pos)
	if single {
		return s.singles[i : i+1 : i+1]
	}
	return s.verts[s.recs[i].v:s.recs[i+1].v]
}

// posted returns the members whose postings list graph pos: all of a
// multi-vertex graph's (it has two or more), none of a one-vertex graph's
// (its target's count carries it, see Index.single).
func (s *graphStore) posted(pos int) []graph.VertexID {
	if m := s.members(pos); len(m) > 1 {
		return m
	}
	return nil
}

// multiPositions appends the positions of the multi-vertex graphs to dst.
func (s *graphStore) multiPositions(dst []int32) []int32 {
	for pos := range s.size() {
		if s.posted(pos) != nil {
			dst = append(dst, int32(pos))
		}
	}
	return dst
}

// eachSingle calls f with the position and target of every one-vertex
// graph, in order.
func (s *graphStore) eachSingle(f func(pos int, target graph.VertexID)) {
	for w, kw := range s.kinds {
		k := int(kw.rank)
		for b := kw.bits; b != 0; b &= b - 1 {
			f(w<<6+bits.TrailingZeros64(b), s.singles[k])
			k++
		}
	}
}

// maxSize returns the largest multi-vertex graph's vertex count.
func (s *graphStore) maxSize() int {
	m := 0
	for i := 0; i+1 < len(s.recs); i++ {
		m = max(m, int(s.recs[i+1].v-s.recs[i].v))
	}
	return m
}

// oneVertexStart is every one-vertex graph's outStart.
var oneVertexStart = [2]int32{}

// view returns graph pos as an RRGraph whose slices are windows of the
// store (capacity-clipped, so the view cannot write past its graph); a
// one-vertex graph is rebuilt from its target.
func (s *graphStore) view(pos int) RRGraph {
	single, i := s.locate(pos)
	if single {
		return RRGraph{target: s.singles[i], verts: s.singles[i : i+1 : i+1], outStart: oneVertexStart[:]}
	}
	r0, r1 := s.recs[i], s.recs[i+1]
	so := int(r0.v) + i
	n := int(r1.v - r0.v)
	return RRGraph{
		target:   r0.target,
		verts:    s.verts[r0.v:r1.v:r1.v],
		outStart: s.outStart[so : so+n+1 : so+n+1],
		outTo:    s.outTo[r0.e:r1.e:r1.e],
		edgeID:   s.edgeID[r0.e:r1.e:r1.e],
		c:        s.c[r0.e:r1.e:r1.e],
	}
}

// appendKinds appends k ≤ 64 kinds, the low bits of b, at position q, the
// store's graph count so far.
func (s *graphStore) appendKinds(q int, b uint64, k int) {
	off, last := q&63, &s.kinds[len(s.kinds)-1]
	last.bits |= b << off
	if off+k >= 64 {
		s.kinds = append(s.kinds, kindWord{bits: b >> (64 - off), rank: last.rank + uint32(bits.OnesCount64(last.bits))})
	}
}

// push records a graph of target: a one-vertex graph (one member, m = 0)
// goes to singles; otherwise its members are appended to verts, and the
// caller appends its m edges to the CSR arrays (a DelayMat member store
// pushes m = 0 and keeps no CSR). It reports whether the graph went to
// singles, and refuses, leaving s unchanged, a graph the uint32 offsets
// cannot address.
func (s *graphStore) push(target graph.VertexID, members []graph.VertexID, m int) (bool, error) {
	last := &s.recs[len(s.recs)-1]
	if !offsetsFit(int64(last.v)+int64(s.size()+1+len(members)), int64(last.e)+int64(m)) {
		return false, errStoreFull
	}
	if len(members) == 1 && m == 0 {
		s.appendKinds(s.size(), 1, 1)
		s.singles = append(s.singles, target)
		return true, nil
	}
	s.appendKinds(s.size(), 0, 1)
	last.target = target
	s.verts = append(s.verts, members...)
	s.recs = append(s.recs, graphRec{v: uint32(len(s.verts)), e: last.e + uint32(m)})
	return false, nil
}

// grown returns s extended by n elements; callers overwrite every added
// element.
func grown[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// add assembles the graph staged in sc (members + surviving edges) into
// the store: members are sorted, localOf built once per graph, and the
// CSR filled with a counting sort — O(V log V + E) per graph with no
// per-graph allocations.
func (s *graphStore) add(target graph.VertexID, sc *genScratch) error {
	members, edges := sc.members, sc.edges
	n, m := len(members), len(edges)
	slices.Sort(members)
	if single, err := s.push(target, members, m); single || err != nil {
		return err
	}
	for i, v := range members {
		sc.localOf[v] = int32(i)
	}

	sb := len(s.outStart)
	s.outStart = grown(s.outStart, n+1)
	start := s.outStart[sb:]
	for i := range start {
		start[i] = 0
	}
	for i := range edges {
		start[sc.localOf[edges[i].from]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}

	eb := len(s.outTo)
	s.outTo = grown(s.outTo, m)
	s.edgeID = grown(s.edgeID, m)
	s.c = grown(s.c, m)
	outTo, eid, cs := s.outTo[eb:], s.edgeID[eb:], s.c[eb:]
	if cap(sc.pos) < n {
		sc.pos = make([]int32, n)
	}
	pos := sc.pos[:n]
	for i := range pos {
		pos[i] = 0
	}
	for i := range edges {
		e := &edges[i]
		lf := sc.localOf[e.from]
		p := start[lf] + pos[lf]
		outTo[p] = sc.localOf[e.to]
		eid[p] = e.id
		cs[p] = e.c
		pos[lf]++
	}
	return nil
}

// storeRange is graphs [lo, hi) of a store.
type storeRange struct {
	s      *graphStore
	lo, hi int
}

// concat writes the ranges, in order, into one exactly sized new store:
// kinds up to 64 at a time, one bulk copy per other array and range, the
// records rebased. The CSR arrays are copied from stores that have them
// (a DelayMat member store has none). It is the build's merge and
// repair's splice; rs is walked twice, once to size the store and once to
// fill it.
func concat(rs iter.Seq[storeRange]) (*graphStore, error) {
	var graphs, singles, verts, edges int
	csr := false
	for r := range rs {
		a, b := r.s.recs[r.lo-r.s.rank(r.lo)], r.s.recs[r.hi-r.s.rank(r.hi)]
		graphs += r.hi - r.lo
		singles += r.s.rank(r.hi) - r.s.rank(r.lo)
		verts += int(b.v - a.v)
		edges += int(b.e - a.e)
		csr = csr || len(r.s.outStart) > 0
	}
	if !offsetsFit(int64(verts)+int64(graphs), int64(edges)) {
		return nil, errStoreFull
	}
	out := &graphStore{
		recs:    append(make([]graphRec, 0, graphs-singles+1), graphRec{}),
		verts:   make([]graph.VertexID, 0, verts),
		kinds:   append(make([]kindWord, 0, graphs/64+1), kindWord{}),
		singles: make([]graph.VertexID, 0, singles),
	}
	if csr {
		out.outStart = make([]int32, 0, verts+graphs-singles)
		out.outTo = make([]int32, 0, edges)
		out.edgeID = make([]graph.EdgeID, 0, edges)
		out.c = make([]float64, 0, edges)
	}
	for r := range rs {
		for p := r.lo; p < r.hi; {
			k := min(64-p&63, r.hi-p)
			out.appendKinds(out.size()+p-r.lo, r.s.kinds[p>>6].bits>>(p&63)&(1<<k-1), k)
			p += k
		}
		lo, hi := r.lo-r.s.rank(r.lo), r.hi-r.s.rank(r.hi)
		out.singles = append(out.singles, r.s.singles[r.s.rank(r.lo):r.s.rank(r.hi)]...)
		a, b := r.s.recs[lo], r.s.recs[hi]
		base := out.recs[len(out.recs)-1]
		out.recs = out.recs[:len(out.recs)-1]
		for _, rec := range r.s.recs[lo : hi+1] {
			out.recs = append(out.recs, graphRec{target: rec.target, v: base.v + rec.v - a.v, e: base.e + rec.e - a.e})
		}
		out.recs[len(out.recs)-1].target = 0
		out.verts = append(out.verts, r.s.verts[a.v:b.v]...)
		if len(r.s.outStart) > 0 {
			out.outStart = append(out.outStart, r.s.outStart[int(a.v)+lo:int(b.v)+hi]...)
			out.outTo = append(out.outTo, r.s.outTo[a.e:b.e]...)
			out.edgeID = append(out.edgeID, r.s.edgeID[a.e:b.e]...)
			out.c = append(out.c, r.s.c[a.e:b.e]...)
		}
	}
	return out, nil
}

// mergeStores concatenates per-worker stores, in order, into one exactly
// sized store.
func mergeStores(bs ...*graphStore) (*graphStore, error) {
	return concat(func(yield func(storeRange) bool) {
		for _, b := range bs {
			if !yield(storeRange{b, 0, b.size()}) {
				return
			}
		}
	})
}

// spliceStores is repair's one ordered pass: old's graphs in order, each
// graph gi with resampled[gi] replaced by fresh's next graph, then
// fresh's remaining (appended) graphs. Untouched runs copy in bulk.
func spliceStores(old, fresh *graphStore, resampled []bool) (*graphStore, error) {
	return concat(func(yield func(storeRange) bool) {
		lo, j := 0, 0
		for gi, re := range resampled {
			if re {
				if !yield(storeRange{old, lo, gi}) || !yield(storeRange{fresh, j, j + 1}) {
					return
				}
				lo, j = gi+1, j+1
			}
		}
		if yield(storeRange{old, lo, len(resampled)}) {
			yield(storeRange{fresh, j, fresh.size()})
		}
	})
}

// footprint returns the bytes the store retains, by capacity.
func (s *graphStore) footprint() int64 {
	return int64(cap(s.recs))*graphRecBytes + int64(cap(s.kinds))*kindWordBytes +
		int64(cap(s.verts))*4 + int64(cap(s.singles))*4 + int64(cap(s.outStart))*4 +
		int64(cap(s.outTo))*4 + int64(cap(s.edgeID))*4 + int64(cap(s.c))*8
}

// generate samples the RR-Graph of target on g into ab: a reverse BFS
// from target that draws c(e) ~ U[0,1) per probed in-edge and keeps edges
// with c(e) < p(e). Dead edges are discarded — they can never be live
// under any tag set, so storing them would not change any Def. 3
// reachability test. sc carries the worker's reusable scratch (mark must
// be all false on entry; it is reset before return).
func generate(g *graph.Graph, target graph.VertexID, r *rng.Source, sc *genScratch, s *graphStore) error {
	sc.members = sc.members[:0]
	sc.edges = sc.edges[:0]
	sc.stack = append(sc.stack[:0], target)
	sc.mark[target] = true
	sc.members = append(sc.members, target)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		ins := g.InEdges(v)
		nbrs := g.InNeighbors(v)
		for i, e := range ins {
			p := g.EdgeMaxProb(e)
			if p <= 0 {
				continue
			}
			c := r.Float64()
			if c >= p {
				continue // dead under every tag set
			}
			from := nbrs[i]
			sc.edges = append(sc.edges, rrEdge{from: from, to: v, id: e, c: c})
			if !sc.mark[from] {
				sc.mark[from] = true
				sc.members = append(sc.members, from)
				sc.stack = append(sc.stack, from)
			}
		}
	}
	for _, m := range sc.members {
		sc.mark[m] = false
	}
	return s.add(target, sc)
}

// Reaches is the tag-aware reachability test of Def. 3: whether u reaches
// the target through a path whose every edge satisfies p(e|W) ≥ c(e),
// where p(e|W) comes from prober. visited is caller scratch with length at
// least NumVertices(), reset by the caller between uses via the stamp.
func (r *RRGraph) Reaches(u graph.VertexID, prober sampling.EdgeProber, visited []int64, stamp int64) bool {
	lu := r.localID(u)
	if lu < 0 {
		return false
	}
	lt := r.localID(r.target)
	if lu == lt {
		return true
	}
	stack := []int32{lu}
	visited[lu] = stamp
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := r.outStart[v]; i < r.outStart[v+1]; i++ {
			if prober.Prob(r.edgeID[i]) < r.c[i] {
				continue
			}
			t := r.outTo[i]
			if t == lt {
				return true
			}
			if visited[t] != stamp {
				visited[t] = stamp
				stack = append(stack, t)
			}
		}
	}
	return false
}
