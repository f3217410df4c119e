package pitex

import (
	"context"
	"fmt"
	"math"
	"slices"

	"pitex/internal/graph"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
)

// This file is the engine's seam for distributed serving: a coordinator
// process keeps the full network and tag model (cheap — the graph is the
// small part) and runs the ordinary best-first exploration, but every
// influence estimation is delegated through a RemoteEstimator to shard
// servers holding the RR-Graph index slices. Everything the explorer asks
// of a frontier-capable estimator — a full set's score or a partial
// set's Lemma 8 bound — is an Eq. 1 evaluation under one per-topic weight
// row, so a coordinator ships rows only: a frontier of them per scatter,
// and a single RemoteProbe is a frontier of width 1. The shard evaluates
// the rows bit-identically (the wire frame carries the float64 bits).

// RemoteProbe is one per-topic weight row of the Eq. 1 prober: p(z|W), or
// a partial set's Lemma 8 completion weights.
type RemoteProbe struct {
	Posterior []float64
}

// Validate reports whether the probe carries a weight row.
func (p RemoteProbe) Validate() error {
	if len(p.Posterior) == 0 {
		return fmt.Errorf("pitex: probe carries no posterior")
	}
	return nil
}

// Prober materializes the probe against a graph.
func (p RemoteProbe) Prober(g *graph.Graph) (sampling.EdgeProber, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return sampling.PosteriorProber{G: g, Posterior: p.Posterior}, nil
}

// RemoteEstimate is one scatter-gather estimation's outcome. When every
// shard responded, MissingShards is empty and the estimate is
// byte-identical to the in-process sharded estimator; otherwise the
// gather re-normalized over responding shards (see
// rrindex.GatherPartialsDegraded) and the θ fields quantify the loss.
type RemoteEstimate struct {
	Influence float64
	Samples   int64
	Theta     int64
	Reachable int
	// MissingShards lists shard ids that contributed nothing (deadline,
	// error, or generation skew), ascending.
	MissingShards []int
	// RespondingTheta and TotalTheta are Σθ_s over responding shards and
	// over the whole layout; equal when nothing is missing.
	RespondingTheta int64
	TotalTheta      int64
}

// RemoteEstimator scatters one influence estimation across shard
// holders and gathers the partial hits. Implementations must be safe for
// concurrent use (engine clones share one).
type RemoteEstimator interface {
	EstimateRemote(ctx context.Context, user int, probe RemoteProbe) (RemoteEstimate, error)
}

// RemoteFrontierEstimator is an optional RemoteEstimator capability:
// estimating a whole frontier of tag sets — one per-topic weight row
// each, a full set's posterior or a partial set's Lemma 8 weights — in a
// single scatter. Estimates are positional (result i scores
// posteriors[i]) and each must equal what EstimateRemote returns for that
// row alone, degraded ones included — the distrib client's EstimateRemote
// is this method at width 1. A remote engine whose estimator has the
// capability ships every round the explorer forms — up to one 64-row
// frame of several expansions' children — as one scatter; one without it
// (a decorator wrapping only EstimateRemote, say) is served row by row
// with identical answers and search counters.
type RemoteFrontierEstimator interface {
	EstimateRemoteFrontier(ctx context.Context, user int, posteriors [][]float64) ([]RemoteEstimate, error)
}

// DegradedCoverage reports that a query was answered with one or more
// index shards unreachable: the estimate is extrapolated from the
// responding shards and the effective accuracy guarantee weakens from
// TargetEpsilon to AchievedEpsilon ≈ ε·sqrt(θ_total/θ_responding) (the
// Chernoff sample-size bound solved for ε at the sample count actually
// consulted).
type DegradedCoverage struct {
	MissingShards   []int   `json:"missing_shards"`
	TargetEpsilon   float64 `json:"target_epsilon"`
	AchievedEpsilon float64 `json:"achieved_epsilon"`
	RespondingTheta int64   `json:"responding_theta"`
	TotalTheta      int64   `json:"total_theta"`
}

// NewRemoteEngine builds a coordinator engine: it validates and explores
// like NewEngine but owns no offline index — every estimation goes
// through remote. Only strategies that distribute (Strategy.Distributes)
// are accepted.
func NewRemoteEngine(net *Network, model *TagModel, opts Options, remote RemoteEstimator) (*Engine, error) {
	opts, err := checkInputs(net, model, opts)
	if err != nil {
		return nil, err
	}
	if remote == nil {
		return nil, fmt.Errorf("pitex: nil remote estimator")
	}
	if !opts.Strategy.Distributes() {
		return nil, fmt.Errorf("pitex: strategy %v does not distribute", opts.Strategy)
	}
	en := &Engine{net: net, model: model, opts: opts, remote: remote}
	return en.ready(), nil
}

// IndexBuildOptions derives the rrindex build parameters an engine with
// these options would use, defaults applied — the engine's own
// derivation, and the contract a shard server must follow so its
// BuildShard output is byte-identical to the in-process engine's index.
// The model supplies the tag count entering the ln φ_K search-space
// bound.
func IndexBuildOptions(model *TagModel, opts Options) (bo rrindex.BuildOptions, err error) {
	if model == nil {
		return bo, fmt.Errorf("pitex: nil model")
	}
	if err := opts.Validate(); err != nil {
		return bo, err
	}
	return opts.withDefaults().buildOptions(model.NumTags()), nil
}

// RepairSeed derives the base repair seed for an update generation —
// the same mix Engine.ApplyUpdates uses — so remote shard repairs draw
// the identical streams an in-process repair would.
func RepairSeed(seed, generation uint64) uint64 {
	return seed + generation*0x9e3779b97f4a7c15
}

// remoteAdapter bridges the best-first explorer to a RemoteEstimator: it
// is the engine's bestfirst.Estimator (and FrontierEstimator and
// RoundSizer) for remote engines, shipping each round of weight rows and
// accumulating degradation evidence across the many estimations of one
// query. Like every estimator it is per-engine scratch state — not safe
// for concurrent use, reset by begin() per query.
//
// Every scatter is a round trip to every shard, so the adapter asks for
// rounds of roundRows rows, several expansions each, whether or not its
// remote batches: the search a coordinator runs does not depend on its
// transport. Shards scan exhaustively, as every index estimator does, so
// a coordinator's answers are byte-identical whether a round crosses the
// wire as one frontier scatter or row by row, and — the canonical answer
// order makes them independent of round width — equal the in-process
// engine's.
type remoteAdapter struct {
	en     *Engine
	remote RemoteEstimator
	// frontier is remote's batched capability, nil when it has none.
	frontier RemoteFrontierEstimator

	//pitexlint:allow ctxflow -- query-scoped: begin() stores the caller's ctx, finish() clears it; never outlives a query
	ctx       context.Context
	err       error
	missing   map[int]bool
	respTheta int64
	totTheta  int64
	// scatters counts the query's remote calls — one per round, or one
	// per row without the frontier capability — and siblings the rows,
	// candidates and partial-set bounds alike, that crossed in frontier
	// form (Explain.RemoteScatters/RemoteSiblings).
	scatters int64
	siblings int64
}

func (ra *remoteAdapter) begin(ctx context.Context) {
	ra.ctx = ctx
	ra.err = nil
	ra.missing = nil
	ra.respTheta = 0
	ra.totTheta = 0
	ra.scatters = 0
	ra.siblings = 0
}

// finish returns the degradation report for the query just run (nil when
// every scatter was complete), or the first remote error.
func (ra *remoteAdapter) finish() (*DegradedCoverage, error) {
	if ra.err != nil {
		return nil, ra.err
	}
	if len(ra.missing) == 0 {
		return nil, nil
	}
	deg := &DegradedCoverage{
		TargetEpsilon:   ra.en.opts.Epsilon,
		AchievedEpsilon: ra.en.opts.Epsilon,
		RespondingTheta: ra.respTheta,
		TotalTheta:      ra.totTheta,
	}
	for s := range ra.missing {
		deg.MissingShards = append(deg.MissingShards, s)
	}
	slices.Sort(deg.MissingShards)
	if ra.respTheta > 0 && ra.totTheta > ra.respTheta {
		deg.AchievedEpsilon = ra.en.opts.Epsilon *
			math.Sqrt(float64(ra.totTheta)/float64(ra.respTheta))
	}
	return deg, nil
}

// roundRows is the round width a coordinator asks of its explorer: one
// masked-scan word of rows, the 64 lanes a shard tests in one pass.
const roundRows = 64

// RoundRows implements bestfirst.RoundSizer.
func (ra *remoteAdapter) RoundRows() int { return roundRows }

// EstimateProber implements bestfirst.Estimator by scattering the probe.
// The explorer never hands a frontier-capable estimator a prober; only
// the row-by-row fallback below calls this, with posterior probers.
// After the first remote failure the adapter fast-fails every remaining
// estimation of the query (influence 1 prunes nothing incorrectly — the
// query is abandoned by finish anyway).
func (ra *remoteAdapter) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	if ra.err != nil {
		return sampling.Result{Influence: 1}
	}
	p, ok := prober.(sampling.PosteriorProber)
	if !ok {
		ra.err = fmt.Errorf("pitex: prober %T is not remotable", prober)
		return sampling.Result{Influence: 1}
	}
	ra.scatters++
	est, err := ra.remote.EstimateRemote(ra.queryCtx(), int(u), RemoteProbe{Posterior: p.Posterior})
	if err != nil {
		ra.err = err
		return sampling.Result{Influence: 1}
	}
	return ra.note(est)
}

// EstimateFrontier implements bestfirst.FrontierEstimator: the round
// crosses the wire as one scatter when the remote can batch, and row by
// row otherwise.
func (ra *remoteAdapter) EstimateFrontier(u graph.VertexID, posteriors [][]float64, _ sampling.StopRule) []sampling.Result {
	out := make([]sampling.Result, len(posteriors))
	if ra.frontier == nil {
		for i, post := range posteriors {
			out[i] = ra.EstimateProber(u, sampling.PosteriorProber{G: ra.en.net.g, Posterior: post})
		}
		return out
	}
	var ests []RemoteEstimate
	if ra.err == nil {
		ra.scatters++
		ra.siblings += int64(len(posteriors))
		ests, ra.err = ra.frontier.EstimateRemoteFrontier(ra.queryCtx(), int(u), posteriors)
		if ra.err == nil && len(ests) != len(posteriors) {
			ra.err = fmt.Errorf("pitex: remote answered %d estimates for a frontier of %d", len(ests), len(posteriors))
		}
	}
	if ra.err != nil {
		for i := range out {
			out[i] = sampling.Result{Influence: 1}
		}
		return out
	}
	for i, est := range ests {
		out[i] = ra.note(est)
	}
	return out
}

func (ra *remoteAdapter) queryCtx() context.Context {
	if ra.ctx == nil {
		return context.Background()
	}
	return ra.ctx
}

// note folds one remote estimate's degradation evidence into the query's
// report and converts it to the explorer's result shape.
func (ra *remoteAdapter) note(est RemoteEstimate) sampling.Result {
	if len(est.MissingShards) > 0 {
		if ra.missing == nil {
			ra.missing = make(map[int]bool)
		}
		for _, s := range est.MissingShards {
			ra.missing[s] = true
		}
		// Report the worst coverage seen across the query's estimations.
		if ra.respTheta == 0 || est.RespondingTheta < ra.respTheta {
			ra.respTheta = est.RespondingTheta
		}
	}
	if est.TotalTheta > ra.totTheta {
		ra.totTheta = est.TotalTheta
	}
	return sampling.Result{
		Influence: est.Influence,
		Samples:   est.Samples,
		Theta:     est.Theta,
		Reachable: est.Reachable,
	}
}
