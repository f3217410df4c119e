package rrindex

import (
	"math"
	"math/bits"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// This file is the masked-scan machinery under every policy's
// scanFrontier: membership-word reachability, the sequential-stopping
// arithmetic, and the scratch that turns one chunk's counters into
// Partial rows. The batching design is described on
// ShardedEstimator.EstimateFrontier.

// maxFrontierWidth is the sibling capacity of one masked scan — the
// width of the uint64 membership words. scanFrontierChunks splits wider
// frontiers.
const maxFrontierWidth = 64

// Stopping cadence: no stop decision before stopMinScan verdicts (the
// Hoeffding width is useless earlier), and checks run every
// stopCheckEvery graphs (a power of two) to keep the sqrt off the
// per-graph path.
const (
	stopMinScan    = 8
	stopCheckEvery = 8
)

// frontierScratch is the reusable per-estimator state of masked scans.
type frontierScratch struct {
	// reach[v] is the membership word of local vertex v: bit w set means
	// sibling w's live subgraph lets v reach the target. stampV makes
	// clearing O(1) per scan.
	reach  []uint64
	stampV []int64
	iter   int64
	stack  []int32

	// Per-sibling counters of the scan in flight: hits among the scanned
	// verdicts, out of a budget of totals.
	hits    []int64
	scanned []int64
	totals  []int64
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
		sc.scanned = make([]int64, width)
		sc.totals = make([]int64, width)
	}
	sc.hits = sc.hits[:width]
	sc.scanned = sc.scanned[:width]
	sc.totals = sc.totals[:width]
	for w := 0; w < width; w++ {
		sc.hits[w], sc.scanned[w], sc.totals[w] = 0, 0, 0
	}
}

// fullMask returns the membership word with the low `width` bits set.
func fullMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// hoeffdingUCB bounds the final hit count after observing h hits in n of
// N exchangeable verdicts: h + (N-n)·min(1, h/n + sqrt(L/(2n))), with
// sqrtHalfL = sqrt(L/2) precomputed by the caller.
func hoeffdingUCB(h, n, N int64, sqrtHalfL float64) float64 {
	p := float64(h)/float64(n) + sqrtHalfL/math.Sqrt(float64(n))
	if p > 1 {
		p = 1
	}
	return float64(h) + float64(N-n)*p
}

// stopParams converts a StopRule into per-scan parameters: the stop
// threshold in raw-hit units of an index with sample count theta over a
// population of totalUsers (stop sibling w when UCB_hits ≤
// Threshold·θ/|V|, the hit count at which its influence contribution
// reaches the threshold share), plus the precomputed sqrt(L/2).
func stopParams(stop sampling.StopRule, theta int64, totalUsers int) (hitsThr, sqrtHalfL float64, stopping bool) {
	if !stop.Enabled() || theta <= 0 || totalUsers <= 0 {
		return 0, 0, false
	}
	return stop.Threshold * float64(theta) / float64(totalUsers), math.Sqrt(stop.LogInvDelta / 2), true
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
// pruned scan's target-is-u graphs) to both counts. A sibling stopped
// short of its budget reports the unbiased (h/n)·N extrapolation.
func (sc *frontierScratch) packRows(stopped uint64, direct int64, base Partial, rows []Partial, stride int) {
	for w := range sc.hits {
		p := base
		p.Hits = direct + sc.hits[w]
		p.Samples = direct + sc.scanned[w]
		if N := sc.totals[w]; stopped&(1<<w) != 0 && sc.scanned[w] < N {
			p.Stopped = true
			p.EstHits = float64(direct) + float64(sc.hits[w])/float64(sc.scanned[w])*float64(N)
		}
		rows[w*stride] = p
	}
}

// plainFrontier is the masked scan of IndexEst and DelayMat: per-sibling
// hit counting over gs with sequential stopping. Every sibling has the
// same verdict budget N = |postings|; checks run every stopCheckEvery
// graphs once stopMinScan verdicts are in.
func (st *scanState) plainFrontier(gs graphSet, shard, users, totalUsers int, u graph.VertexID, chunk [][]float64, stop sampling.StopRule, rows []Partial, stride int) {
	st.beginFrontier(chunk, gs.maxSize)
	hitsThr, sqrtHalfL, stopping := stopParams(stop, gs.theta, totalUsers)
	sc := &st.fsc
	total := int64(len(gs.postings))
	active := fullMask(len(chunk))
	var stopped uint64
	for n, gi := range gs.postings {
		if active == 0 {
			break
		}
		sc.countHits(gs.graphs[gi].reachMask(u, st.fc, active, sc))
		st.graphsChecked += int64(bits.OnesCount64(active))
		scanned := int64(n + 1)
		if stopping && scanned >= stopMinScan && scanned < total && scanned&(stopCheckEvery-1) == 0 {
			for b := active; b != 0; b &= b - 1 {
				w := bits.TrailingZeros64(b)
				if hoeffdingUCB(sc.hits[w], scanned, total, sqrtHalfL) <= hitsThr {
					active &^= 1 << w
					stopped |= 1 << w
					sc.scanned[w] = scanned
					st.earlyStops++
					st.graphsSkipped += total - scanned
				}
			}
		}
	}
	for w := range chunk {
		sc.totals[w] = total
		if stopped&(1<<w) == 0 {
			sc.scanned[w] = total
		}
	}
	sc.packRows(stopped, 0, Partial{Shard: shard, Contained: len(gs.postings), Theta: gs.theta, Users: users}, rows, stride)
}
