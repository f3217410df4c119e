package rrindex

import (
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
// over membership words replaces popcount(active) boolean DFS walks;
// per bit the result equals reaches() under that sibling's prober.
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

// countHits credits one graph's verdict word to the per-sibling tallies.
func (sc *frontierScratch) countHits(mask uint64) {
	for b := mask; b != 0; b &= b - 1 {
		sc.hits[bits.TrailingZeros64(b)]++
	}
}

// packRows writes the finished chunk's counters as Partial rows, sibling
// w at rows[w*stride]. base carries the sibling-independent fields
// (Shard, Contained, Theta, Users); direct adds unconditional hits (the
// pruned scan's target-is-u graphs) to both counts.
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
func (st *scanState) plainFrontier(gs graphSet, shard, users int, u graph.VertexID, chunk [][]float64, rows []Partial, stride int) {
	st.beginFrontier(chunk, gs.maxSize)
	sc := &st.fsc
	active := fullMask(len(chunk))
	for _, gi := range gs.postings {
		sc.countHits(gs.graphs[gi].reachMask(u, st.fc, active, sc))
	}
	n := int64(len(gs.postings))
	st.graphsChecked += n * int64(len(chunk))
	for w := range chunk {
		sc.samples[w] = n
	}
	sc.packRows(0, Partial{Shard: shard, Contained: len(gs.postings), Theta: gs.theta, Users: users}, rows, stride)
}
