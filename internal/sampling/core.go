package sampling

import (
	"pitex/internal/graph"
	"pitex/internal/rng"
)

// kernel is what one online sampler adds to the shared driver: the draw
// of one sample instance for query user u under prober, where members is
// R_W(u). A forward sampler returns the number of vertices the instance
// activates; a reverse sampler picks its target from members and returns
// 1 when the walk reaches u, else 0.
type kernel interface {
	draw(u graph.VertexID, members []graph.VertexID, prober EdgeProber) int64
}

// core is the estimator every online sampler embeds: R_W(u), Eq. 2's
// θ_W = Λ·|R_W(u)|, Algo 2's martingale stopping rule and the final
// mean, around the sampler's kernel. It also owns the per-instance walk
// scratch — a visit stamp per vertex, bumped before every draw, and a
// stack, emptied before every draw — and the sampler's lifetime
// edge-probe count.
type core struct {
	g       *graph.Graph
	opts    Options
	rng     *rng.Source
	reach   *reachScratch
	kernel  kernel
	reverse bool

	// call counts estimation calls, for kernels whose per-vertex state
	// lives for one call (one W) and is re-initialized lazily.
	call    int64
	visited []int64
	stamp   int64
	stack   []graph.VertexID

	// edgeVisits counts the edges probed across all calls, the Fig. 13
	// metric (see each constructor for what a sampler counts).
	edgeVisits int64
}

func newCore(g *graph.Graph, opts Options, r *rng.Source, k kernel, reverse bool) core {
	return core{
		g:       g,
		opts:    opts,
		rng:     r,
		reach:   newReachScratch(g),
		kernel:  k,
		reverse: reverse,
		visited: make([]int64, g.NumVertices()),
	}
}

// Estimate estimates E[I(u|W)] for the topic posterior of W with the
// Eq. 2 sample size and the Algo 2 early-stopping rule.
func (c *core) Estimate(u graph.VertexID, posterior []float64) Result {
	return c.EstimateProber(u, PosteriorProber{G: c.g, Posterior: posterior})
}

// EstimateProber is Estimate for an arbitrary edge-probability source.
func (c *core) EstimateProber(u graph.VertexID, prober EdgeProber) Result {
	return c.run(u, prober, 0, false)
}

// EstimateWithBudget draws exactly n instances with no early stop, for
// the Fig. 6 convergence experiment (estimate against θ_W).
func (c *core) EstimateWithBudget(u graph.VertexID, posterior []float64, n int64) Result {
	return c.run(u, PosteriorProber{G: c.g, Posterior: posterior}, n, true)
}

// WorkStats reports the edges probed so far as ProbesEvaluated.
func (c *core) WorkStats() WorkStats { return WorkStats{ProbesEvaluated: c.edgeVisits} }

// run draws θ_W instances — n of them when fixed, else Eq. 2's, stopped
// early by Algo 2 line 17 unless DisableEarlyStop — and returns their
// mean. A user who reaches no one has influence 1 and draws nothing.
func (c *core) run(u graph.VertexID, prober EdgeProber, n int64, fixed bool) Result {
	c.call++
	members := c.reach.compute(u, prober)
	reachable := len(members)
	if reachable <= 1 {
		return Result{Influence: 1, Reachable: reachable, Samples: n, Theta: n}
	}
	theta, earlyStop := n, false
	if !fixed {
		theta, earlyStop = c.opts.SampleSize(reachable), !c.opts.DisableEarlyStop
	}
	// The stop rule runs on the sum normalized by an instance's range:
	// [1, |R_W(u)|] forward, {0, 1} reverse. A reverse mean is a hit
	// rate, scaled by |R_W(u)| and floored at 1 (u is always active).
	norm, scale := float64(reachable), 1.0
	if c.reverse {
		norm, scale = 1, float64(reachable)
	}
	stop := c.opts.StopThreshold()
	var s, iters int64
	for iters < theta {
		c.stamp++
		c.stack = c.stack[:0]
		s += c.kernel.draw(u, members, prober)
		iters++
		if earlyStop && float64(s)/norm >= stop {
			break
		}
	}
	return Result{
		Influence: max(float64(s)/float64(iters)*scale, 1),
		Samples:   iters,
		Theta:     theta,
		Reachable: reachable,
	}
}

// seen reports whether v was visited in the current instance.
func (c *core) seen(v graph.VertexID) bool { return c.visited[v] == c.stamp }

// push marks v visited in the current instance and stacks it.
func (c *core) push(v graph.VertexID) {
	c.visited[v] = c.stamp
	c.stack = append(c.stack, v)
}

// pop unstacks the most recently pushed vertex.
func (c *core) pop() graph.VertexID {
	v := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	return v
}
