// Package rrindex implements the paper's index-based influence estimation
// (Sec. 6): the RR-Graph structure (Def. 2), tag-aware reachability
// (Def. 3), the offline index with online matching (Algo 3, "IndexEst"),
// the edge-cut filter-and-verify pruning layer (Sec. 6.2, "IndexEst+"),
// and delay materialization (Sec. 6.3, Algo 4, "DelayMat").
//
// # Memory layout
//
// A graph is an offset, not a view. Each shard keeps its θ RR-Graphs in
// one graphStore, and a graph is its position in the store's sequence. A
// two-bit-per-position kind bitmap (with a prefix count of each kind per
// 64-bit word) says how each is kept:
//
//	kind        share*  kept as                       scanned as
//	one-vertex   76 %   its target in singles (4 B)   Index.single[target]
//	in-star      18 %   one (edgeID, c) per member    Index.single[target],
//	                    but the target (12 B), and    and a threshold per
//	                    an end offset (4 B)           member (Index.tier)
//	deeper        6 %   a 12-byte graphRec, verts,    postings + reachMask
//	                    outStart and the CSR arrays
//	                    outTo, edgeID, c
//
//	* of the graphs of dataset A (bench/: 15 000 users, 200 000 edges,
//	  θ = 200 000)
//
// A one-vertex graph — the target, whose in-edges all drew dead — is a hit
// for its target under every tag set and for nobody else. An in-star is a
// graph whose every member but the target has one edge, straight to the
// target: it too is a hit for its target always, and for member u on edge
// e exactly when p(e|W) ≥ c, so a scan decides it from the threshold
// alone, with no posting and no traversal; its member and target are the
// edge's endpoints in the graph, so an entry needs neither. Both kinds
// count in their target's direct hits (Index.single); an in-star's
// members find their (edge, c) entries in the threshold tier, one window
// per user sorted by (edge, c) (graphStore.tier). The deeper graphs lie
// in five flat, pointer-free arrays (verts, outStart, outTo, edgeID, c),
// back to back, with one graphRec each (target, first vertex, first edge;
// a sentinel record closes the list), and only they have postings. A scan
// builds graph gi's RRGraph view on its own stack (graphStore.view, one
// popcount rank from position to record), so the reachability kernels
// walk the same five slices they always did while the index holds no
// per-graph headers. On dataset A the INDEXEST+ footprint is 3.03 MiB:
// the deeper graphs' store and postings, 152 056 singles, 38 478 in-star
// entries with their 0.20 MiB tier, and the per-user counts (4.20 MiB
// with in-stars as graphs, 8.16 MiB with one-vertex ones too).
//
// add, push and concat are the one place graphs are sorted into kinds, so
// Build, the parallel merge, the file reader, DelayMat recovery and
// repair all divert alike. The per-user postings lists are windows into
// one shared int32 arena.
//
// # Build
//
// A build draws graph gi of a shard on its own stream rng.Mix(seed, gi):
// its target, then its reverse BFS (sample.go). At each member the BFS
// draws only the in-edges that fire, from their prefix survival products
// — the law DelayMat recovery draws forward — so a member costs
// O(1 + fired·log d) rather than a coin per in-edge; the products of every
// vertex's in-edges are one table per build (8·|E| bytes, dropped when it
// returns). A shard's positions are cut into contiguous ranges, sampled
// on at most GOMAXPROCS goroutines across the shards of the build, each
// into a store of its own, and merged once in position order, so a
// build's bytes depend on its seed and shard layout alone, never on the
// number of cores. A DelayMat build draws the same graphs on the same
// streams and counts their members.
//
// # Repair
//
// Incremental Repair re-samples on its own stream with the same sampler,
// computing a visited member's products as it goes rather than a table per
// update (the same floats, so the same law). It keeps the copy-on-write
// contract at store granularity: it writes a fresh, exactly
// sized store in one ordered pass (see repair.go) and re-derives the tier
// and direct counts from it, so concurrent readers of the old index are
// never affected and no generation pins another's graphs. Positions
// survive a repair, so a graph that changes kind keeps its place and
// clean users keep their postings lists. The file layout (serialize.go)
// still lists every graph in full.
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
// a visit draws its fired edges with one uniform, and the attempts that
// stop at the query user's own out-neighbours — most of them — are jumped
// in bulk, the accepted ones located by geometric gaps (delay.go gives
// the exactness argument). What that needs of the graph, prefix survival
// products per out-edge, is one immutable fireTable per graph generation
// (firing.go; 8·|E| bytes, built by the first recovery, shared by every
// estimator of the generation, dropped with it on hot-swap); what it
// needs of the user, the laws of u's heads, is a rootTable built per
// recovery in O(deg u). A recovery runs in blocks of
// attempts, block b on the stream rng.Mix(seed, shard, user, b), on as
// many cores as the generation's helpers can take, so a recovered user is
// a pure function of (seed, shard, user, θ): the same from every clone, in
// any order, at any GOMAXPROCS.
package rrindex

import (
	"cmp"
	"errors"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pitex/internal/graph"
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

// graphRec locates deeper graph i of a graphStore: its target and the
// offsets of its first vertex (v) and first edge (e). A store keeps one
// record per deeper graph plus a sentinel holding the totals (its
// target unused), so graph i's vertex count is recs[i+1].v − recs[i].v and
// its edge count the same with e; its outStart window (n+1 entries)
// begins at recs[i].v + i.
type graphRec struct {
	target graph.VertexID
	v, e   uint32
}

const graphRecBytes = 12

// graphKind is how a store keeps one of its graphs.
type graphKind uint8

const (
	// deeper: a record and CSR windows.
	deeper graphKind = iota
	// oneVertex: its target in singles.
	oneVertex
	// inStar: its entries, one (edge, c) per member besides the target,
	// each edge from that member straight to the target.
	inStar
)

// kindWord is 64 positions of a store's kind bitmap: a bit set in one for
// a one-vertex graph, in star for an in-star (neither for a deeper
// graph), with the number of each kind before them. A store's last word
// always has room: it is appended when the one before it fills, so every
// position up to size() has a word.
type kindWord struct {
	one, star         uint64
	oneRank, starRank uint32
}

const kindWordBytes = 24

// errStoreFull reports a shard whose graphs outgrow the store's uint32
// offsets: more than math.MaxUint32 outStart entries plus one-vertex
// graphs, or edges, or in-star entries.
var errStoreFull = errors.New("rrindex: shard's RR-Graphs exceed the store's 2^32-1 vertex or edge offsets")

// offsetsFit reports whether a store of outStartLen outStart entries and
// edges edges is addressable by graphRec's uint32 offsets.
func offsetsFit(outStartLen, edges int64) bool {
	return outStartLen <= math.MaxUint32 && edges <= math.MaxUint32
}

// graphStore is one shard's RR-Graphs as flat, pointer-free arrays. A
// graph is its position in the sequence, and the kind bitmap says how it
// is kept:
//   - a one-vertex graph — its target, no edges, a hit only for the
//     target itself — is its target in singles, nothing more;
//   - an in-star — every member but the target on one edge straight to
//     it — is its entries: one (edgeID, c) per member, in member order,
//     the member and the target being the edge's endpoints in g;
//   - a deeper graph lies back to back with the others: members in verts,
//     its local CSR in outStart (graph-relative edge positions, n+1 per
//     graph) and in outTo, edgeID and c, and one graphRec.
//
// view builds the RRGraph of a position, on the caller's stack, with one
// popcount rank (an in-star's is rebuilt from its entries). Build, the
// parallel merge, the file reader, DelayMat recovery and repair append
// into stores through add, push and concat, the one place graphs are
// sorted into kinds, and a store is never mutated once published.
//
// A DelayMat's repair bookkeeping is a store's vertex half only: records
// and verts, with members in sampling order, e always 0 and no CSR; it
// keeps no in-stars.
type graphStore struct {
	g        *graph.Graph // the edges' endpoints
	recs     []graphRec   // one per deeper graph, then the sentinel
	verts    []graph.VertexID
	outStart []int32
	outTo    []int32
	edgeID   []graph.EdgeID
	c        []float64
	kinds    []kindWord
	singles  []graph.VertexID // one-vertex graphs' targets, in order
	// starEnd[r] ends in-star r's entries in starEdge and starC, which
	// begin where in-star r-1's end (at 0 for r = 0).
	starEnd  []uint32
	starEdge []graph.EdgeID
	starC    []float64
}

// newStore returns an empty store over g.
func newStore(g *graph.Graph) *graphStore {
	return &graphStore{g: g, recs: []graphRec{{}}, kinds: []kindWord{{}}}
}

// size returns the number of graphs in the store.
func (s *graphStore) size() int { return len(s.recs) - 1 + len(s.singles) + len(s.starEnd) }

// reset empties the store, keeping its capacity.
func (s *graphStore) reset() {
	*s = graphStore{g: s.g, recs: append(s.recs[:0], graphRec{}), verts: s.verts[:0],
		outStart: s.outStart[:0], outTo: s.outTo[:0], edgeID: s.edgeID[:0], c: s.c[:0],
		kinds: append(s.kinds[:0], kindWord{}), singles: s.singles[:0],
		starEnd: s.starEnd[:0], starEdge: s.starEdge[:0], starC: s.starC[:0]}
}

// ranks returns how many graphs before position pos (≤ size()) have one
// vertex and how many are in-stars.
func (s *graphStore) ranks(pos int) (ones, stars int) {
	w, below := s.kinds[pos>>6], uint64(1)<<(pos&63)-1
	return int(w.oneRank) + bits.OnesCount64(w.one&below), int(w.starRank) + bits.OnesCount64(w.star&below)
}

// locate returns how graph pos is kept and where: singles[i], in-star i,
// or recs[i].
func (s *graphStore) locate(pos int) (graphKind, int) {
	ones, stars := s.ranks(pos)
	w, b := s.kinds[pos>>6], pos&63
	switch {
	case w.one>>b&1 != 0:
		return oneVertex, ones
	case w.star>>b&1 != 0:
		return inStar, stars
	}
	return deeper, pos - ones - stars
}

// starOffset returns where in-star r's entries begin (r ≤ the in-star
// count).
func (s *graphStore) starOffset(r int) int {
	if r == 0 {
		return 0
	}
	return int(s.starEnd[r-1])
}

// starEntries returns the bounds of in-star r's entries.
func (s *graphStore) starEntries(r int) (lo, hi int) { return s.starOffset(r), int(s.starEnd[r]) }

// target returns graph pos's target.
func (s *graphStore) target(pos int) graph.VertexID {
	switch k, i := s.locate(pos); k {
	case oneVertex:
		return s.singles[i]
	case inStar:
		return s.g.EdgeTo(s.starEdge[s.starOffset(i)])
	default:
		return s.recs[i].target
	}
}

// members returns graph pos's member vertices (an in-star's in a fresh
// slice).
func (s *graphStore) members(pos int) []graph.VertexID {
	if k, i := s.locate(pos); k == deeper {
		return s.verts[s.recs[i].v:s.recs[i+1].v]
	}
	return s.view(pos).verts
}

// posted returns the members whose postings list graph pos: all of a
// deeper graph's, none of a one-vertex graph's or an in-star's (their
// target's direct count and the threshold tier carry them, see
// Index.single and Index.tier).
func (s *graphStore) posted(pos int) []graph.VertexID {
	if k, i := s.locate(pos); k == deeper {
		return s.verts[s.recs[i].v:s.recs[i+1].v]
	}
	return nil
}

// each calls f with the position and the kind index of every graph of
// kind k — oneVertex or inStar — in order.
func (s *graphStore) each(k graphKind, f func(pos, i int)) {
	for w, kw := range s.kinds {
		b, i := kw.one, int(kw.oneRank)
		if k == inStar {
			b, i = kw.star, int(kw.starRank)
		}
		for ; b != 0; b &= b - 1 {
			f(w<<6+bits.TrailingZeros64(b), i)
			i++
		}
	}
}

// countDirect adds to direct[t], for every target t, its one-vertex
// graphs and in-stars: the graphs that are a hit for their target, and
// for it alone, under every tag set without being walked.
func (s *graphStore) countDirect(direct []int32) {
	for _, t := range s.singles {
		direct[t]++
	}
	for r := range s.starEnd {
		direct[s.g.EdgeTo(s.starEdge[s.starOffset(r)])]++
	}
}

// tier groups the in-star entries by member: user u's memberships are
// entries[start[u]:start[u+1]], indices into starEdge and starC sorted by
// (edge, c). Member u on edge e of an in-star is a hit under W exactly
// when p(e|W) ≥ c, so these thresholds are all a scan needs of them.
func (s *graphStore) tier(numVertices int) (start, entries []uint32) {
	start = make([]uint32, numVertices+1)
	for _, e := range s.starEdge {
		start[s.g.EdgeFrom(e)+1]++
	}
	for u := range numVertices {
		start[u+1] += start[u]
	}
	entries = make([]uint32, len(s.starEdge))
	// Fill through start[u] as u's cursor, then shift the ends back.
	for i, e := range s.starEdge {
		u := s.g.EdgeFrom(e)
		entries[start[u]] = uint32(i)
		start[u]++
	}
	copy(start[1:], start[:numVertices])
	start[0] = 0
	for u := range numVertices {
		if start[u+1]-start[u] > 1 {
			s.sortThresholds(entries[start[u]:start[u+1]])
		}
	}
	return start, entries
}

// sortThresholds sorts in-star entries by (edge, c).
func (s *graphStore) sortThresholds(entries []uint32) {
	slices.SortFunc(entries, func(a, b uint32) int {
		if c := cmp.Compare(s.starEdge[a], s.starEdge[b]); c != 0 {
			return c
		}
		return cmp.Compare(s.starC[a], s.starC[b])
	})
}

// split sorts a store whose every graph contains u — a DelayMat recovery
// — the way an index's postings do: it appends the deeper graphs'
// positions to posts and u's in-star entries, sorted by (edge, c), to
// stars, and counts the rest, the graphs whose target is u, in direct.
func (s *graphStore) split(u graph.VertexID, posts []int32, stars []uint32) (_ []int32, _ []uint32, direct int) {
	posts, stars = slices.Grow(posts, len(s.recs)-1), slices.Grow(stars, len(s.starEnd))
	for pos := range s.size() {
		switch k, r := s.locate(pos); {
		case k == deeper:
			posts = append(posts, int32(pos))
		case k == oneVertex || s.target(pos) == u:
			direct++
		default:
			lo, hi := s.starEntries(r)
			i := lo + slices.IndexFunc(s.starEdge[lo:hi], func(e graph.EdgeID) bool { return s.g.EdgeFrom(e) == u })
			stars = append(stars, uint32(i))
		}
	}
	s.sortThresholds(stars)
	return posts, stars, direct
}

// maxSize returns the largest deeper graph's vertex count.
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
// one-vertex graph is rebuilt from its target, and an in-star from its
// entries (starView).
func (s *graphStore) view(pos int) RRGraph { return s.viewInto(pos, nil) }

// viewInto is view, rebuilding an in-star in buf's slices (fresh ones
// when buf is nil), so the result is valid until buf's next use.
func (s *graphStore) viewInto(pos int, buf *RRGraph) RRGraph {
	k, i := s.locate(pos)
	switch k {
	case oneVertex:
		return RRGraph{target: s.singles[i], verts: s.singles[i : i+1 : i+1], outStart: oneVertexStart[:]}
	case inStar:
		if buf == nil {
			buf = new(RRGraph)
		}
		return s.starView(i, buf)
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

// starView rebuilds in-star r as add would have laid it out: its members
// sorted, the target at local index k among them, and each other
// member's one edge, in member order, to k. The edge arrays are windows
// of the entries; the rest reuses buf's slices.
func (s *graphStore) starView(r int, buf *RRGraph) RRGraph {
	lo, hi := s.starEntries(r)
	rr := RRGraph{target: s.g.EdgeTo(s.starEdge[lo]), verts: buf.verts[:0], outStart: buf.outStart[:0],
		outTo: buf.outTo[:0], edgeID: s.starEdge[lo:hi:hi], c: s.starC[lo:hi:hi]}
	for _, e := range rr.edgeID {
		rr.verts = append(rr.verts, s.g.EdgeFrom(e))
	}
	k, _ := slices.BinarySearch(rr.verts, rr.target)
	rr.verts = slices.Insert(rr.verts, k, rr.target)
	for v := range rr.verts {
		rr.outStart = append(rr.outStart, int32(min(v, k)+max(v-k-1, 0))) // the target has no edge
	}
	rr.outStart = append(rr.outStart, int32(hi-lo))
	for range hi - lo {
		rr.outTo = append(rr.outTo, int32(k))
	}
	*buf = rr
	return rr
}

// appendKinds appends k ≤ 64 kinds at position q, the store's graph count
// so far: bit i of one marks a one-vertex graph, of star an in-star.
func (s *graphStore) appendKinds(q int, one, star uint64, k int) {
	off, last := q&63, &s.kinds[len(s.kinds)-1]
	last.one |= one << off
	last.star |= star << off
	if off+k >= 64 {
		s.kinds = append(s.kinds, kindWord{one: one >> (64 - off), star: star >> (64 - off),
			oneRank:  last.oneRank + uint32(bits.OnesCount64(last.one)),
			starRank: last.starRank + uint32(bits.OnesCount64(last.star))})
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
		s.appendKinds(s.size(), 1, 0, 1)
		s.singles = append(s.singles, target)
		return true, nil
	}
	s.appendKinds(s.size(), 0, 0, 1)
	last.target = target
	s.verts = append(s.verts, members...)
	s.recs = append(s.recs, graphRec{v: uint32(len(s.verts)), e: last.e + uint32(m)})
	return false, nil
}

// pushStar stores the graph staged in sc — members sorted, localOf set —
// as an in-star when it is one: m = n−1 ≥ 1 edges, each into the target
// from a distinct other member. Its entries go in member order, the order
// its CSR would list them. seen is zeroed scratch of length n. It reports
// whether the graph was stored, and refuses, leaving s unchanged, a graph
// of that size the uint32 entry offsets cannot address.
func (s *graphStore) pushStar(target graph.VertexID, sc *genScratch, seen []int32) (bool, error) {
	m, base, lt := len(sc.edges), len(s.starEdge), sc.localOf[target]
	switch {
	case m == 0 || m != len(sc.members)-1:
		return false, nil
	case !offsetsFit(0, int64(base+m)):
		return false, errStoreFull
	}
	s.starEdge, s.starC = grown(s.starEdge, m), grown(s.starC, m)
	for _, e := range sc.edges {
		slot := sc.localOf[e.from]
		if e.to != target || slot == lt || seen[slot] != 0 {
			s.starEdge, s.starC = s.starEdge[:base], s.starC[:base]
			return false, nil
		}
		seen[slot] = 1
		if slot > lt {
			slot--
		}
		s.starEdge[base+int(slot)], s.starC[base+int(slot)] = e.id, e.c
	}
	s.appendKinds(s.size(), 0, 1, 1)
	s.starEnd = append(s.starEnd, uint32(base+m))
	return true, nil
}

// grown returns s extended by n elements; callers overwrite every added
// element.
func grown[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// add assembles the graph staged in sc (members + surviving edges) into
// the store: members are sorted, localOf built once per graph, and the
// graph kept by its kind — a deeper graph's CSR filled with a counting
// sort — O(V log V + E) per graph with no per-graph allocations.
func (s *graphStore) add(target graph.VertexID, sc *genScratch) error {
	members, edges := sc.members, sc.edges
	n, m := len(members), len(edges)
	slices.Sort(members)
	for i, v := range members {
		sc.localOf[v] = int32(i)
	}
	sc.pos = slices.Grow(sc.pos[:0], n)[:n]
	pos := sc.pos
	clear(pos)
	if star, err := s.pushStar(target, sc, pos); star || err != nil {
		return err
	}
	if single, err := s.push(target, members, m); single || err != nil {
		return err
	}

	sb := len(s.outStart)
	s.outStart = grown(s.outStart, n+1)
	start := s.outStart[sb:]
	clear(start)
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
	clear(pos)
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

// storeSize counts what graphs of stores hold: graphs, one-vertex graphs,
// in-stars and their entries, and the deeper graphs' vertices and edges.
type storeSize struct {
	graphs, singles, stars, entries, verts, edges int
	csr                                           bool // a CSR, not a DelayMat member store
}

// add counts graphs [lo, hi) of s.
func (n *storeSize) add(s *graphStore, lo, hi int) {
	o0, s0 := s.ranks(lo)
	o1, s1 := s.ranks(hi)
	a, b := s.recs[lo-o0-s0], s.recs[hi-o1-s1]
	n.graphs, n.singles, n.stars = n.graphs+hi-lo, n.singles+o1-o0, n.stars+s1-s0
	n.entries += s.starOffset(s1) - s.starOffset(s0)
	n.verts, n.edges = n.verts+int(b.v-a.v), n.edges+int(b.e-a.e)
	n.csr = n.csr || len(s.outStart) > 0
}

// alloc returns an empty store over g with room for exactly n, or
// errStoreFull when its uint32 offsets cannot address n.
func (n storeSize) alloc(g *graph.Graph) (*graphStore, error) {
	if !offsetsFit(int64(n.verts)+int64(n.graphs), int64(n.edges)) || !offsetsFit(0, int64(n.entries)) {
		return nil, errStoreFull
	}
	deep := n.graphs - n.singles - n.stars
	out := &graphStore{
		g:        g,
		recs:     append(make([]graphRec, 0, deep+1), graphRec{}),
		verts:    make([]graph.VertexID, 0, n.verts),
		kinds:    append(make([]kindWord, 0, n.graphs/64+1), kindWord{}),
		singles:  make([]graph.VertexID, 0, n.singles),
		starEnd:  make([]uint32, 0, n.stars),
		starEdge: make([]graph.EdgeID, 0, n.entries),
		starC:    make([]float64, 0, n.entries),
	}
	if n.csr {
		out.outStart = make([]int32, 0, n.verts+deep)
		out.outTo = make([]int32, 0, n.edges)
		out.edgeID = make([]graph.EdgeID, 0, n.edges)
		out.c = make([]float64, 0, n.edges)
	}
	return out, nil
}

// concat writes the ranges, in order, into one exactly sized new store
// over g with appendRange. It is the build's merge and repair's splice;
// rs is walked twice, once to size the store and once to fill it.
func concat(g *graph.Graph, rs iter.Seq[storeRange]) (*graphStore, error) {
	var n storeSize
	for r := range rs {
		n.add(r.s, r.lo, r.hi)
	}
	out, err := n.alloc(g)
	if err != nil {
		return nil, err
	}
	for r := range rs {
		out.appendRange(r)
	}
	return out, nil
}

// appendRange appends graphs [r.lo, r.hi) of r.s to s: kinds up to 64 at
// a time, one bulk copy per other array, the records and in-star ends
// rebased. The CSR arrays are copied from stores that have them (a
// DelayMat member store has none). It allocates only when s lacks the
// capacity, and does not check s's offsets: concat sizes its store first,
// and recovery asks canTake.
func (s *graphStore) appendRange(r storeRange) {
	for p := r.lo; p < r.hi; {
		k := min(64-p&63, r.hi-p)
		w, sh, mask := r.s.kinds[p>>6], p&63, uint64(1)<<k-1
		s.appendKinds(s.size()+p-r.lo, w.one>>sh&mask, w.star>>sh&mask, k)
		p += k
	}
	o0, s0 := r.s.ranks(r.lo)
	o1, s1 := r.s.ranks(r.hi)
	s.singles = append(s.singles, r.s.singles[o0:o1]...)
	e0, e1 := r.s.starOffset(s0), r.s.starOffset(s1)
	for _, end := range r.s.starEnd[s0:s1] {
		s.starEnd = append(s.starEnd, uint32(len(s.starEdge)+int(end)-e0))
	}
	s.starEdge = append(s.starEdge, r.s.starEdge[e0:e1]...)
	s.starC = append(s.starC, r.s.starC[e0:e1]...)
	lo, hi := r.lo-o0-s0, r.hi-o1-s1
	a, b := r.s.recs[lo], r.s.recs[hi]
	base := s.recs[len(s.recs)-1]
	s.recs = s.recs[:len(s.recs)-1]
	for _, rec := range r.s.recs[lo : hi+1] {
		s.recs = append(s.recs, graphRec{target: rec.target, v: base.v + rec.v - a.v, e: base.e + rec.e - a.e})
	}
	s.recs[len(s.recs)-1].target = 0
	s.verts = append(s.verts, r.s.verts[a.v:b.v]...)
	if len(r.s.outStart) > 0 {
		s.outStart = append(s.outStart, r.s.outStart[int(a.v)+lo:int(b.v)+hi]...)
		s.outTo = append(s.outTo, r.s.outTo[a.e:b.e]...)
		s.edgeID = append(s.edgeID, r.s.edgeID[a.e:b.e]...)
		s.c = append(s.c, r.s.c[a.e:b.e]...)
	}
}

// canTake reports whether add would take every graph [r.lo, r.hi) of r.s
// into s, one after another: the totals appendRange would leave stay
// within each bound push and pushStar check on the way (push's outStart
// bound runs one above the vertices plus the graphs). It may refuse a
// range add would still take, never the reverse.
func (s *graphStore) canTake(r storeRange) bool {
	var n storeSize
	n.add(r.s, r.lo, r.hi)
	last := s.recs[len(s.recs)-1]
	return offsetsFit(int64(last.v)+int64(n.verts)+int64(s.size()+n.graphs)+1, int64(last.e)+int64(n.edges)) &&
		offsetsFit(0, int64(len(s.starEdge)+n.entries))
}

// mergeStores concatenates stores over g, in order — a build's ranges —
// into one exactly sized store.
func mergeStores(g *graph.Graph, bs ...*graphStore) (*graphStore, error) {
	return concat(g, func(yield func(storeRange) bool) {
		for _, b := range bs {
			if !yield(storeRange{b, 0, b.size()}) {
				return
			}
		}
	})
}

// spliceStores is repair's one ordered pass: old's graphs in order, each
// graph gi with resampled[gi] replaced by fresh's next graph, then
// fresh's remaining (appended) graphs. Untouched runs copy in bulk. The
// result is over fresh's graph.
func spliceStores(old, fresh *graphStore, resampled []bool) (*graphStore, error) {
	return concat(fresh.g, func(yield func(storeRange) bool) {
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

// newStoreLike returns an empty store over g with room for the graphs of
// s at the positions marked in like: repair re-samples those positions
// from their targets, so their sizes are its best guess at what it will
// add (more only grows the arrays).
func newStoreLike(g *graph.Graph, s *graphStore, like []bool) *graphStore {
	var n storeSize
	for pos, m := range like {
		if m {
			n.add(s, pos, pos+1)
		}
	}
	out, _ := n.alloc(g) // a subset of s's graphs fits wherever s does
	return out
}

// footprint returns the bytes the store retains, by capacity.
func (s *graphStore) footprint() int64 {
	return int64(cap(s.recs))*graphRecBytes + int64(cap(s.kinds))*kindWordBytes +
		int64(cap(s.verts))*4 + int64(cap(s.singles))*4 + int64(cap(s.outStart))*4 +
		int64(cap(s.outTo))*4 + int64(cap(s.edgeID))*4 + int64(cap(s.c))*8 +
		int64(cap(s.starEnd))*4 + int64(cap(s.starEdge))*4 + int64(cap(s.starC))*8
}
