package rrindex

import (
	"math/bits"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// This file implements the Sec. 6.2 filter-and-verify layer ("IndexEst+").
//
// For a query user u and each RR-Graph containing u we select an edge cut —
// a set of edges such that u can reach the target only if at least one cut
// edge is live (p(e|W) ≥ c(e)). Two candidate cuts are compared, following
// Example 7: the source side (u's out-edges inside the RR-Graph) and the
// target side (the target's in-edges inside the RR-Graph); we keep the one
// with the higher prune probability under the paper's uniform assumption
// p(e|W) ~ U[0, p(e)], i.e. the larger Π_{e∈cut} c(e)/p(e).
//
// Cut edges are then organized into inverted lists, edge → RR-Graphs
// sorted by c(e) ascending, so that a query scans each list only while
// c(e) ≤ p(e|W) and everything unseen is pruned without computation.

// cutEntry is one posting of the inverted index.
type cutEntry struct {
	graphPos int32 // position within containing[u], not global graph ID
	c        float64
}

// cutPosting is one (edge, posting) pair before grouping.
type cutPosting struct {
	edge graph.EdgeID
	cutEntry
}

// userCuts is the per-user pruning structure: inverted lists over the
// distinct cut edges of the user's RR-Graphs.
type userCuts struct {
	u graph.VertexID
	// edges and lists are parallel; lists[i] is sorted by c ascending.
	// All lists are windows into one shared entries slice.
	edges []graph.EdgeID
	lists [][]cutEntry
	// direct[i] is the position (in containing[u]) of an RR-Graph whose
	// target is u itself: always a hit, never needs filtering.
	direct []int32
	// entries is the total posting count across lists — the unit the
	// estimator's cut-cache bound is counted in.
	entries int
}

// CutPolicy selects how the per-RR-Graph edge cut is chosen.
type CutPolicy int

const (
	// CutBestOfTwo compares the source-side and target-side cuts and
	// keeps the one with higher prune probability (the paper's policy,
	// Example 7). The default.
	CutBestOfTwo CutPolicy = iota
	// CutSourceOnly always uses the query user's out-edges; the ablation
	// benchmark measures what the best-of-two comparison buys.
	CutSourceOnly
)

// cutScratch carries the reusable buffers of buildUserCuts.
type cutScratch struct {
	src, dst []cutEdge
	flat     []cutPosting
}

// buildUserCuts constructs the inverted cut index for user u. Postings
// are accumulated into one flat slice, sorted by (edge, c) and grouped —
// a single backing array instead of a map of per-edge slices, so warm-up
// cost is one sort and two allocations that survive.
func buildUserCuts(idx *Index, u graph.VertexID, policy CutPolicy, sc *cutScratch) *userCuts {
	uc := &userCuts{u: u}
	sc.flat = sc.flat[:0]
	for pos, gi := range idx.containing[u] {
		rr := &idx.graphs[gi]
		if rr.target == u {
			uc.direct = append(uc.direct, int32(pos))
			continue
		}
		var cut []cutEdge
		if policy == CutSourceOnly {
			cut = sideCut(rr, rr.localID(u), sc.src[:0])
			sc.src = cut[:0]
		} else {
			cut = chooseCut(idx.g, rr, u, sc)
		}
		for _, ce := range cut {
			sc.flat = append(sc.flat, cutPosting{
				edge:     ce.edge,
				cutEntry: cutEntry{graphPos: int32(pos), c: ce.c},
			})
		}
	}
	flat := sc.flat
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].edge != flat[j].edge {
			return flat[i].edge < flat[j].edge
		}
		return flat[i].c < flat[j].c
	})
	uc.entries = len(flat)
	entries := make([]cutEntry, len(flat))
	for i := range flat {
		entries[i] = flat[i].cutEntry
	}
	for i := 0; i < len(flat); {
		j := i + 1
		for j < len(flat) && flat[j].edge == flat[i].edge {
			j++
		}
		uc.edges = append(uc.edges, flat[i].edge)
		uc.lists = append(uc.lists, entries[i:j:j])
		i = j
	}
	return uc
}

// cutEdge is one member of a chosen cut.
type cutEdge struct {
	edge graph.EdgeID
	c    float64
}

// chooseCut returns the better of the source-side and target-side cuts of
// rr for user u, by prune probability Π c(e)/p(e). The returned slice
// aliases sc and is valid until the next chooseCut/sideCut call.
func chooseCut(g *graph.Graph, rr *RRGraph, u graph.VertexID, sc *cutScratch) []cutEdge {
	src := sideCut(rr, rr.localID(u), sc.src[:0])
	dst := targetInCut(rr, sc.dst[:0])
	sc.src, sc.dst = src[:0], dst[:0]
	if pruneProb(g, src) >= pruneProb(g, dst) {
		return src
	}
	return dst
}

// sideCut collects v's out-edges inside the RR-Graph into out.
func sideCut(rr *RRGraph, local int32, out []cutEdge) []cutEdge {
	for i := rr.outStart[local]; i < rr.outStart[local+1]; i++ {
		out = append(out, cutEdge{edge: rr.edgeID[i], c: rr.c[i]})
	}
	return out
}

// targetInCut collects the target's in-edges inside the RR-Graph into out.
func targetInCut(rr *RRGraph, out []cutEdge) []cutEdge {
	lt := rr.localID(rr.target)
	for v := int32(0); v < int32(len(rr.verts)); v++ {
		for i := rr.outStart[v]; i < rr.outStart[v+1]; i++ {
			if rr.outTo[i] == lt {
				out = append(out, cutEdge{edge: rr.edgeID[i], c: rr.c[i]})
			}
		}
	}
	return out
}

// pruneProb is Π_{e∈cut} c(e)/p(e): the probability every cut edge is dead
// under a uniform p(e|W) ~ U[0, p(e)]. An empty cut means u cannot leave
// (or the target cannot be entered), so the graph is always prunable.
func pruneProb(g *graph.Graph, cut []cutEdge) float64 {
	p := 1.0
	for _, ce := range cut {
		maxP := g.EdgeMaxProb(ce.edge)
		if maxP <= 0 {
			continue
		}
		p *= ce.c / maxP
	}
	return p
}

// PrunedEstimator is the IndexEst+ scan policy: the edge-cut filter in
// front of verification. Per-user cut indexes are cached, and the cache
// is bounded: the cut postings held across all cached users never exceed
// the index's own postings count (Σ_u θ(u)), or one user's lists when
// those alone are larger — so a long-lived estimator (an engine clone, a
// shard server's per-generation set) costs at most a small constant
// multiple of the postings arena however many users it serves. An
// insertion that would overflow drops the whole cache first; the user
// being served is always kept. Not safe for concurrent use.
type PrunedEstimator struct {
	idx *Index
	// Policy selects the cut construction; change it before the first
	// estimate for a given user (cut indexes are cached per user).
	Policy CutPolicy
	scanState
	cuts  map[graph.VertexID]*userCuts
	cutSc cutScratch
	// cutEntries is Σ entries over cuts; cutBudget is the index's postings
	// count, computed on the first cache miss.
	cutEntries int
	cutBudget  int
	// candStamp deduplicates candidate positions during filtering;
	// candSlot maps a deduplicated position to its index in cands (the
	// masked scan keeps per-candidate sibling masks in candMask there).
	candStamp []int64
	candSlot  []int32
	candIter  int64
	cands     []int32
	candMask  []uint64
}

// NewPrunedEstimator creates an IndexEst+ scan over idx.
func NewPrunedEstimator(idx *Index) *PrunedEstimator {
	return &PrunedEstimator{
		idx:       idx,
		scanState: newScanState(idx.g),
		cuts:      make(map[graph.VertexID]*userCuts),
	}
}

// cutsFor returns u's cut index, building and caching it on a miss under
// the bound stated on PrunedEstimator.
func (pe *PrunedEstimator) cutsFor(u graph.VertexID) *userCuts {
	if uc, ok := pe.cuts[u]; ok {
		return uc
	}
	uc := buildUserCuts(pe.idx, u, pe.Policy, &pe.cutSc)
	if pe.cutBudget == 0 {
		for _, list := range pe.idx.containing {
			pe.cutBudget += len(list)
		}
	}
	if pe.cutEntries+uc.entries > pe.cutBudget {
		clear(pe.cuts)
		pe.cutEntries = 0
	}
	pe.cuts[u] = uc
	pe.cutEntries += uc.entries
	return uc
}

// beginFilter readies the candidate dedup scratch for a scan of a user
// with n postings.
func (pe *PrunedEstimator) beginFilter(n int) {
	if len(pe.candStamp) < n {
		pe.candStamp = make([]int64, n)
		pe.candSlot = make([]int32, n)
	}
	pe.candIter++
	pe.cands = pe.cands[:0]
	pe.candMask = pe.candMask[:0]
}

func (pe *PrunedEstimator) postings(u graph.VertexID) int { return len(pe.idx.containing[u]) }

// scanProber runs filter-and-verify under prober: Samples counts the
// graphs looked at (verified plus unconditional direct hits), not the
// postings size. The query-scoped ProbeCache is shared between the filter
// scan and verification, so each distinct edge is probed once per call.
func (pe *PrunedEstimator) scanProber(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial {
	idx := pe.idx
	prober = pe.beginProber(prober, idx.maxSize)
	uc := pe.cutsFor(u)
	containing := idx.containing[u]
	pe.beginFilter(len(containing))

	// Filter: scan each inverted list while c(e) <= p(e|W).
	for i, e := range uc.edges {
		p := prober.Prob(e)
		if p <= 0 {
			continue
		}
		for _, ent := range uc.lists[i] {
			if ent.c > p {
				break
			}
			if pe.candStamp[ent.graphPos] != pe.candIter {
				pe.candStamp[ent.graphPos] = pe.candIter
				pe.cands = append(pe.cands, ent.graphPos)
			}
		}
	}

	hits := int64(len(uc.direct)) // target == u: unconditional hits
	for _, pos := range pe.cands {
		if pe.reaches(&idx.graphs[containing[pos]], u, prober) {
			hits++
		}
	}
	pe.graphsPruned += int64(len(containing)-len(uc.direct)) - int64(len(pe.cands))
	return Partial{
		Shard: shard, Hits: hits,
		Samples: int64(len(pe.cands) + len(uc.direct)), Contained: len(containing),
		Theta: idx.theta, Users: users,
	}
}

// scanFrontier is the batched filter-and-verify: the inverted cut lists
// are scanned once against cached probability rows to build per-candidate
// sibling masks, then one masked pass verifies each surviving candidate
// for exactly the siblings whose filter admitted it.
func (pe *PrunedEstimator) scanFrontier(shard, users int, u graph.VertexID, chunk [][]float64, rows []Partial, stride int) {
	idx := pe.idx
	pe.beginFrontier(chunk, idx.maxSize)
	fc, sc := pe.fc, &pe.fsc
	W := len(chunk)

	uc := pe.cutsFor(u)
	containing := idx.containing[u]
	pe.beginFilter(len(containing))
	full := fullMask(W)

	// Filter: a sibling admits a posting when p(e|W_sibling) > 0 and
	// c(e) ≤ p(e|W_sibling) — the row min/max settle whole postings
	// without a per-sibling scan. Lists are c-ascending, so scanning
	// stops at the row max.
	for i, e := range uc.edges {
		row, lo, hi := fc.Row(e)
		if hi <= 0 {
			continue
		}
		for _, ent := range uc.lists[i] {
			if ent.c > hi {
				break
			}
			var mask uint64
			if ent.c <= lo && lo > 0 {
				mask = full
			} else {
				for w := 0; w < W; w++ {
					if p := row[w]; p > 0 && ent.c <= p {
						mask |= 1 << w
					}
				}
				if mask == 0 {
					continue
				}
			}
			pos := ent.graphPos
			if pe.candStamp[pos] != pe.candIter {
				pe.candStamp[pos] = pe.candIter
				pe.candSlot[pos] = int32(len(pe.cands))
				pe.cands = append(pe.cands, pos)
				pe.candMask = append(pe.candMask, 0)
			}
			slot := pe.candSlot[pos]
			if added := mask &^ pe.candMask[slot]; added != 0 {
				pe.candMask[slot] |= added
				for b := added; b != 0; b &= b - 1 {
					sc.samples[bits.TrailingZeros64(b)]++
				}
			}
		}
	}

	// Verify: one masked reachability pass per surviving candidate, for
	// the siblings whose filter admitted it.
	for ci, pos := range pe.cands {
		m := pe.candMask[ci]
		sc.countHits(idx.graphs[containing[pos]].reachMask(u, fc, m, sc))
		pe.graphsChecked += int64(bits.OnesCount64(m))
	}
	direct := int64(len(uc.direct))
	for w := 0; w < W; w++ {
		pe.graphsPruned += int64(len(containing)) - direct - sc.samples[w]
	}
	sc.packRows(direct, Partial{Shard: shard, Contained: len(containing), Theta: idx.theta, Users: users}, rows, stride)
}
