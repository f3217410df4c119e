package rrindex

import (
	"math"
	"math/bits"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// This file is the masked-scan machinery under every policy's
// scanFrontier: membership-word reachability and the scratch that turns
// one chunk's counters into Partial rows. The batching design is described on
// ShardedEstimator.EstimateFrontier.

// maxFrontierWidth is the sibling capacity of one masked scan — the
// width of the uint64 membership words. scanFrontierChunks splits wider
// frontiers.
const maxFrontierWidth = 64

// frontierScratch is the reusable per-estimator state of masked scans.
type frontierScratch struct {
	// reach[v] is the membership word of local vertex v: bit w set means
	// sibling w's live subgraph lets v reach the target. stampV makes
	// clearing O(1) per scan.
	reach  []uint64
	stampV []int64
	iter   int64
	stack  []int32

	// Per-sibling counters of the scan in flight: hits among the
	// verdicts, out of samples verdicts.
	hits    []int64
	samples []int64
}

// ensure sizes the scratch for a scan of `width` siblings over graphs of
// at most maxSize vertices, zeroing the per-scan counters.
func (sc *frontierScratch) ensure(width, maxSize int) {
	if len(sc.reach) < maxSize {
		sc.reach = make([]uint64, maxSize)
		sc.stampV = make([]int64, maxSize)
		sc.iter = 0
	}
	if cap(sc.hits) < width {
		sc.hits = make([]int64, width)
		sc.samples = make([]int64, width)
	}
	sc.hits = sc.hits[:width]
	sc.samples = sc.samples[:width]
	for w := 0; w < width; w++ {
		sc.hits[w], sc.samples[w] = 0, 0
	}
}

// fullMask returns the membership word with the low `width` bits set.
func fullMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// reachMask is the masked Def. 3 reachability test: for every sibling
// bit set in active, whether u reaches r's target through a path whose
// every edge satisfies p(e|W_sibling) ≥ c(e). One worklist fixed-point
// over membership words replaces popcount(active) boolean walks; per bit
// the result equals RRGraph.Reaches under that sibling's prober.
func (r *RRGraph) reachMask(u graph.VertexID, fc *sampling.FrontierProbeCache, active uint64, sc *frontierScratch) uint64 {
	lu := r.localID(u)
	if lu < 0 {
		return 0
	}
	lt := r.localID(r.target)
	if lu == lt {
		return active
	}
	sc.iter++
	it := sc.iter
	sc.reach[lu] = active
	sc.stampV[lu] = it
	stack := append(sc.stack[:0], lu)
	var got uint64
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Bits that already witnessed a hit have nothing left to prove.
		m := sc.reach[v] &^ got
		if m == 0 {
			continue
		}
		for i := r.outStart[v]; i < r.outStart[v+1]; i++ {
			c := r.c[i]
			row, lo, hi := fc.Row(r.edgeID[i])
			var live uint64
			switch {
			case c <= lo: // live for every sibling
				live = m
			case c > hi: // dead for every sibling
				continue
			default:
				for b := m; b != 0; b &= b - 1 {
					w := bits.TrailingZeros64(b)
					if row[w] >= c {
						live |= 1 << w
					}
				}
				if live == 0 {
					continue
				}
			}
			t := r.outTo[i]
			if t == lt {
				got |= live
				if got == active {
					sc.stack = stack
					return got
				}
				continue
			}
			if sc.stampV[t] != it {
				sc.stampV[t] = it
				sc.reach[t] = live
				stack = append(stack, t)
			} else if live&^sc.reach[t] != 0 {
				sc.reach[t] |= live
				stack = append(stack, t)
			}
		}
	}
	sc.stack = stack
	return got
}

// countStars credits the query user's in-star memberships, entries of st
// sorted by (edge, c), straight from their thresholds: member u on edge e
// of an in-star reaches its target under sibling w exactly when
// p(e|W_w) ≥ c, the verdict reachMask would reach over the one edge, so
// no posting is built and nothing is walked. The plain scan (admitted
// false) counts the hits, every entry being its sample; the pruned scan
// counts, in both tallies, the entries its cut filter would admit and
// verify — the one cut of an in-star member is its own edge, admitted
// when p(e|W_w) > 0 and c ≤ p(e|W_w). The two rules part only when c = 0
// and p(e|W_w) = 0.
func (sc *frontierScratch) countStars(st *graphStore, entries []uint32, fc *sampling.FrontierProbeCache, width int, admitted bool) {
	for _, i := range entries {
		c := st.starC[i]
		if admitted {
			c = max(c, math.SmallestNonzeroFloat64) // p ≥ c and p > 0
		}
		row, lo, hi := fc.Row(st.starEdge[i])
		var mask uint64
		switch {
		case c <= lo:
			mask = fullMask(width)
		case c > hi:
			continue
		default:
			for w := 0; w < width; w++ {
				if row[w] >= c {
					mask |= 1 << w
				}
			}
		}
		sc.countHits(mask)
		if admitted {
			sc.countSamples(mask)
		}
	}
}

// countHits credits one graph's verdict word to the per-sibling tallies.
func (sc *frontierScratch) countHits(mask uint64) {
	for b := mask; b != 0; b &= b - 1 {
		sc.hits[bits.TrailingZeros64(b)]++
	}
}

// countSamples counts one graph as a sample of the siblings in mask.
func (sc *frontierScratch) countSamples(mask uint64) {
	for b := mask; b != 0; b &= b - 1 {
		sc.samples[bits.TrailingZeros64(b)]++
	}
}

// packRows writes the finished chunk's counters as Partial rows, sibling
// w at rows[w*stride]. base carries the sibling-independent fields
// (Shard, Contained, Theta, Users); direct adds unconditional hits (the
// graphs whose target is u: every one-vertex one and in-star, and in the
// pruned scan the deeper ones too) to both counts.
func (sc *frontierScratch) packRows(direct int64, base Partial, rows []Partial, stride int) {
	for w := range sc.hits {
		p := base
		p.Hits = direct + sc.hits[w]
		p.Samples = direct + sc.samples[w]
		rows[w*stride] = p
	}
}

// plainFrontier is the masked scan of IndexEst and DelayMat: per-sibling
// hit counting over every graph of gs.
func (st *scanState) plainFrontier(gs graphSet, shard, users int, u graph.VertexID, prober sampling.EdgeProber, chunk [][]float64, rows []Partial, stride int) {
	st.beginFrontier(prober, chunk, gs.maxSize)
	sc := &st.fsc
	active := fullMask(len(chunk))
	for _, gi := range gs.postings {
		rr := gs.graphs.view(int(gi))
		sc.countHits(rr.reachMask(u, st.fc, active, sc))
	}
	sc.countStars(gs.graphs, gs.stars, st.fc, len(chunk), false)
	for w := range chunk {
		sc.samples[w] = int64(len(gs.postings) + len(gs.stars))
	}
	contained := len(gs.postings) + len(gs.stars) + gs.direct
	st.graphsChecked += int64(contained) * int64(len(chunk))
	sc.packRows(int64(gs.direct), Partial{Shard: shard, Contained: contained, Theta: gs.theta, Users: users}, rows, stride)
}
