package pitex

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"pitex/internal/bestfirst"
	"pitex/internal/enumerate"
	"pitex/internal/fanout"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
	"pitex/internal/tim"
	"pitex/internal/topics"
)

// ScoredTagSet is one ranked answer of a top-m query.
type ScoredTagSet struct {
	Tags      []int
	TagNames  []string
	Influence float64
}

// Result is the answer to a PITEX query.
type Result struct {
	// Tags is the size-k tag set maximizing the estimated influence,
	// sorted ascending.
	Tags []int
	// TagNames are the human-readable names of Tags.
	TagNames []string
	// Influence is the estimated expected influence spread E[I(u|W*)].
	Influence float64
	// Alternatives holds the m best tag sets of a top-m query in
	// canonical order — influence descending, then sorted tag IDs
	// ascending — (Alternatives[0] repeats Tags); nil unless m > 1.
	// Among equally influential sets, Tags is the first in that order.
	Alternatives []ScoredTagSet
	// Elapsed is wall-clock query time.
	Elapsed time.Duration
	// Degraded is non-nil when a remote engine (see NewRemoteEngine)
	// answered with one or more index shards unreachable: the estimate
	// stands, extrapolated over the responding shards, at the weakened
	// accuracy it reports. Always nil for local engines.
	Degraded *DegradedCoverage
	// Explain attributes the query's cost across the exploration and
	// estimation layers. Always populated (the counters it reads are
	// maintained unconditionally and cost single non-atomic increments);
	// serving layers decide whether to surface it.
	Explain Explain
}

// Explain is the per-query cost breakdown: what the best-first loop did
// (expansions, estimations, prunes) and what the estimator underneath
// spent doing it (samples, edge probes, cache behavior, RR-Graphs
// consulted). Estimator-level fields are zero for strategies that do not
// expose them.
type Explain struct {
	Strategy          string `json:"strategy"`
	FullSetsEstimated int64  `json:"full_sets_estimated"`
	// PartialBoundsEstimated counts partial tag sets whose Lemma 8 bound
	// was estimated. Index and coordinator engines bound every surviving
	// child of an expansion as one row of the frontier batch, so for them
	// it counts those rows. It is 0 for online strategies, whose bounds
	// are reach counts, not estimates.
	PartialBoundsEstimated int64   `json:"partial_bounds_estimated"`
	PrunedUnsupported      int64   `json:"pruned_unsupported"`
	PrunedByBound          int64   `json:"pruned_by_bound"`
	FrontierExpansions     int64   `json:"frontier_expansions"`
	SamplesDrawn           int64   `json:"samples_drawn"`
	ProbesEvaluated        int64   `json:"probes_evaluated"`
	ProbeCacheHits         int64   `json:"probe_cache_hits"`
	ProbeCacheMisses       int64   `json:"probe_cache_misses"`
	ProbeCacheHitRatio     float64 `json:"probe_cache_hit_ratio"`
	GraphsChecked          int64   `json:"graphs_checked"`
	GraphsPruned           int64   `json:"graphs_pruned"`
	// EarlyStops is always 0: no index estimate is stopped early. The
	// field stays only because the benchmark harness in bench/ reads it.
	EarlyStops int64 `json:"early_stops"`
	// RecoveryAttempts and RecoveryCascades say what DELAYMAT's first
	// touch of the query user cost (both 0, and omitted, for every other
	// strategy and for a user whose recovery is still cached). Attempts
	// answers "what does Algo 4's acceptance rule cost": the attempts
	// charged to its 8θ+1024 budget, about θ per recovered user whoever
	// the user is. Cascades answers "how much of that was computed": the
	// deep attempts, at which an out-neighbour the user activated fired
	// in turn, so a forward cascade was actually simulated; the rest
	// stopped at the user's own out-neighbours and were jumped in bulk.
	RecoveryAttempts int64 `json:"recovery_attempts,omitempty"`
	RecoveryCascades int64 `json:"recovery_cascades,omitempty"`
	// BoundCacheHits counts online reach-count bounds answered from the
	// explorer's live-topic-mask memo instead of a fresh reachability BFS.
	// The memo only runs for online strategies; index and coordinator
	// engines never consult it, so for them this is always 0.
	BoundCacheHits int64 `json:"bound_cache_hits"`
	// RemoteScatters counts a coordinator query's scatters to the shard
	// fleet — one per round of the best-first search, a round carrying
	// the children of up to a 64-row frame's worth of expansions — and
	// RemoteSiblings the rows that crossed in frontier form: candidate
	// sets and partial-set bound rows alike, so it equals
	// FullSetsEstimated + PartialBoundsEstimated, and scatters stay at or
	// below FrontierExpansions. Zero for local engines.
	RemoteScatters int64 `json:"remote_scatters"`
	RemoteSiblings int64 `json:"remote_siblings"`
	// EffectiveEpsilon answers "what error budget did this answer run
	// at": Engine.IndexEffectiveEpsilon, above the configured ε when the
	// index's θ was capped. 0, and omitted, for online strategies.
	EffectiveEpsilon float64 `json:"effective_epsilon,omitempty"`
}

// Engine answers PITEX queries over one network and tag model with a fixed
// strategy. Index strategies build their offline structures inside
// NewEngine. An Engine is not safe for concurrent use (estimators carry
// scratch state); use Clone to serve queries from multiple goroutines over
// the shared index.
type Engine struct {
	net   *Network
	model *TagModel
	opts  Options

	est      bestfirst.Estimator
	explorer *bestfirst.Explorer

	// Shared offline structures (nil unless the strategy needs them).
	// Both are sharded containers; the default Options.IndexShards of 0
	// yields a single shard, which reproduces the monolithic structures
	// byte-for-byte.
	index *rrindex.ShardedIndex
	delay *rrindex.ShardedDelayMat

	// remote, when set, replaces the offline structures entirely: the
	// engine is a scatter-gather coordinator (see NewRemoteEngine) and
	// every estimation is delegated to shard servers.
	remote RemoteEstimator

	// IndexBuildTime records the offline phase duration (Table 3).
	IndexBuildTime time.Duration

	// generation counts applied update batches (see ApplyUpdates); clones
	// inherit it.
	generation uint64

	// indexOpts caches opts.buildOptions for the model, whose ln φ_K
	// term IndexEffectiveEpsilon needs on every query.
	indexOpts rrindex.BuildOptions

	posterior []float64
	// probe is the query-scoped p(e|W) cache for Audience, whose cascade
	// sampling probes the same edges across up to thousands of cascades;
	// the index estimators carry their own.
	probe *sampling.ProbeCache
}

// NewEngine validates the inputs, runs any offline construction the
// strategy needs, and returns a query-ready engine.
func NewEngine(net *Network, model *TagModel, opts Options) (*Engine, error) {
	opts, err := checkInputs(net, model, opts)
	if err != nil {
		return nil, err
	}
	en := &Engine{net: net, model: model, opts: opts}
	if opts.Strategy.NeedsIndex() {
		build := opts.buildOptions(model.NumTags())
		start := time.Now()
		if opts.Strategy == StrategyDelay {
			en.delay, err = rrindex.BuildShardedDelayMat(net.g, build, opts.IndexShards)
		} else {
			en.index, err = rrindex.BuildSharded(net.g, build, opts.IndexShards)
		}
		if err != nil {
			return nil, err
		}
		en.IndexBuildTime = time.Since(start)
	}
	return en.ready(), nil
}

// checkInputs is the validation every engine constructor shares: non-nil
// inputs, usable options, and a valid model whose topics match the
// network's. It returns the options with defaults applied.
func checkInputs(net *Network, model *TagModel, opts Options) (Options, error) {
	if net == nil || model == nil {
		return opts, fmt.Errorf("pitex: nil network or model")
	}
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	if net.NumTopics() != model.NumTopics() {
		return opts, fmt.Errorf("pitex: network has %d topics, model has %d",
			net.NumTopics(), model.NumTopics())
	}
	if err := model.m.Validate(); err != nil {
		return opts, fmt.Errorf("pitex: %w", err)
	}
	return opts.withDefaults(), nil
}

// ready is the last step of every engine constructor, Clone and
// ApplyUpdates: it gives the assembled engine its own query scratch,
// estimator and explorer.
func (en *Engine) ready() *Engine {
	en.indexOpts = en.opts.buildOptions(en.model.NumTags())
	en.posterior = make([]float64, en.model.NumTopics())
	en.probe = sampling.NewProbeCache(en.net.g.NumEdges())
	en.est = en.newEstimator()
	en.explorer = bestfirst.NewExplorer(en.net.g, en.model.m, en.est)
	return en
}

// samplingOptions assembles the accuracy parameters of these (defaulted)
// options for a model with numTags tags. Best-effort exploration examines
// up to φ_k tag sets; the paper's Eq. 12 uses ln φ_k in the union bound.
// We use ln φ_MaxK, valid for every supported k.
func (o Options) samplingOptions(numTags int) sampling.Options {
	return sampling.Options{
		Epsilon:          o.Epsilon,
		Delta:            o.Delta,
		LogSearchSpace:   enumerate.LogPhiK(numTags, o.MaxK),
		MaxSamples:       o.MaxSamples,
		DisableEarlyStop: o.DisableEarlyStop,
	}
}

// buildOptions derives the rrindex build parameters of these (defaulted)
// options for a model with numTags tags. It is the one derivation: the
// engine's build and repair use it, and IndexBuildOptions exports it to
// shard servers, whose byte identity with the in-process index rests on
// it.
func (o Options) buildOptions(numTags int) rrindex.BuildOptions {
	return rrindex.BuildOptions{
		Accuracy:        o.samplingOptions(numTags),
		MaxIndexSamples: o.MaxIndexSamples,
		Seed:            o.Seed,
		TrackMembers:    o.TrackUpdates,
	}
}

// newEstimator instantiates the per-engine (non-shared) estimator state.
func (en *Engine) newEstimator() bestfirst.Estimator {
	if en.remote != nil {
		ra := &remoteAdapter{en: en, remote: en.remote}
		ra.frontier, _ = en.remote.(RemoteFrontierEstimator)
		return ra
	}
	so := en.opts.samplingOptions(en.model.NumTags())
	r := rng.New(en.opts.Seed + 7919)
	if en.opts.Propagation == PropagationLT {
		if en.opts.Strategy == StrategyRR {
			return sampling.NewReverseLT(en.net.g, so, r)
		}
		return sampling.NewLT(en.net.g, so, r)
	}
	switch en.opts.Strategy {
	case StrategyMC:
		return sampling.NewMC(en.net.g, so, r)
	case StrategyRR:
		return sampling.NewRR(en.net.g, so, r)
	case StrategyTIM:
		return tim.New(en.net.g, 0)
	case StrategyIndex:
		return rrindex.NewShardedEstimator(en.index)
	case StrategyIndexPruned:
		return rrindex.NewShardedPrunedEstimator(en.index)
	case StrategyDelay:
		return rrindex.NewShardedDelayEstimator(en.delay, r)
	default:
		return sampling.NewLazy(en.net.g, so, r)
	}
}

// Clone returns an engine sharing the receiver's network, model and offline
// index but owning fresh estimator scratch, so clones can serve queries
// concurrently.
func (en *Engine) Clone() *Engine {
	c := &Engine{
		net:            en.net,
		model:          en.model,
		opts:           en.opts,
		index:          en.index,
		delay:          en.delay,
		remote:         en.remote,
		IndexBuildTime: en.IndexBuildTime,
		generation:     en.generation,
	}
	return c.ready()
}

// SaveIndex writes the engine's offline structure (RR-Graph index or
// DelayMat counters) so a later process can skip the offline phase via
// NewEngineWithIndex. It fails for online strategies, which have nothing
// to save.
func (en *Engine) SaveIndex(w io.Writer) error {
	switch {
	case en.index != nil:
		return rrindex.WriteSharded(w, en.index)
	case en.delay != nil:
		return rrindex.WriteShardedDelayMat(w, en.delay)
	default:
		return fmt.Errorf("pitex: strategy %v has no offline index to save", en.opts.Strategy)
	}
}

// NewEngineWithIndex is NewEngine for index strategies, loading the offline
// structure from r (written by SaveIndex over the same network) instead of
// re-sampling it. The file's shard count wins over opts.IndexShards, and
// Options reports it.
func NewEngineWithIndex(net *Network, model *TagModel, opts Options, r io.Reader) (*Engine, error) {
	opts, err := checkInputs(net, model, opts)
	if err != nil {
		return nil, err
	}
	if !opts.Strategy.NeedsIndex() {
		return nil, fmt.Errorf("pitex: strategy %v does not use an offline index", opts.Strategy)
	}
	en := &Engine{net: net, model: model, opts: opts}
	start := time.Now()
	if opts.Strategy == StrategyDelay {
		en.delay, err = rrindex.ReadShardedDelayMat(r, net.g)
	} else {
		en.index, err = rrindex.ReadSharded(r, net.g)
	}
	if err != nil {
		return nil, err
	}
	// A 0 that already means one shard stays 0, so an S=1 file keeps the
	// options (and any fingerprint over them) of a freshly built engine.
	if S := len(en.IndexShardStats()); S != max(1, opts.IndexShards) {
		en.opts.IndexShards = S
	}
	en.IndexBuildTime = time.Since(start)
	return en.ready(), nil
}

// offline returns the engine's sharded offline structure, or nil for
// online strategies and coordinators.
func (en *Engine) offline() interface {
	Theta() int64
	MemoryFootprint() int64
	ShardStats() []rrindex.ShardStat
} {
	if en.index != nil {
		return en.index
	}
	if en.delay != nil {
		return en.delay
	}
	return nil
}

// IndexMemoryBytes returns the offline index's estimated size (0 for
// online strategies) — the Table 3 metric.
func (en *Engine) IndexMemoryBytes() int64 {
	if o := en.offline(); o != nil {
		return o.MemoryFootprint()
	}
	return 0
}

// IndexEffectiveEpsilon returns the ε the live offline index delivers:
// Eq. 7 solved for ε at its θ and the network's |V|
// (rrindex.BuildOptions.EffectiveEpsilon). It exceeds Options.Epsilon
// whenever MaxIndexSamples capped θ. A coordinator takes θ as last
// reported by its shard fleet, when its RemoteEstimator reports one
// (distrib.Client.TotalTheta). 0 for online strategies.
func (en *Engine) IndexEffectiveEpsilon() float64 {
	var theta int64
	if o := en.offline(); o != nil {
		theta = o.Theta()
	} else if r, ok := en.remote.(interface{ TotalTheta() int64 }); ok {
		theta = r.TotalTheta()
	}
	if theta <= 0 {
		return 0
	}
	return en.indexOpts.EffectiveEpsilon(en.net.NumUsers(), theta)
}

// IndexShardStat describes one shard of the offline index: its user
// partition size, sample count, footprint, and the cumulative number of
// RR-Graphs incremental repairs have re-sampled in it across update
// generations. Graphs is θ_s; Singletons is how many of them have one
// vertex, which an index shard keeps as a per-user count instead of a
// graph, and InStars how many are in-stars — every member one edge away
// from the target — which it keeps as one (edge, draw) threshold per
// member (both 0 for DelayMat, which keeps counts only). Exported by
// serve's /statsz as index_shards.
type IndexShardStat struct {
	Shard          int   `json:"shard"`
	Users          int   `json:"users"`
	Theta          int64 `json:"theta"`
	Graphs         int   `json:"graphs"`
	Singletons     int   `json:"singletons"`
	InStars        int   `json:"in_stars"`
	IndexBytes     int64 `json:"index_bytes"`
	GraphsRepaired int64 `json:"graphs_repaired"`
}

// IndexShardStats snapshots the offline index's per-shard layout, or nil
// for online strategies. Single-shard (monolithic) engines report one row.
func (en *Engine) IndexShardStats() []IndexShardStat {
	o := en.offline()
	if o == nil {
		return nil
	}
	stats := o.ShardStats()
	out := make([]IndexShardStat, len(stats))
	for i, s := range stats {
		out[i] = IndexShardStat{
			Shard:          s.Shard,
			Users:          s.Users,
			Theta:          s.Theta,
			Graphs:         s.Graphs,
			Singletons:     s.Singletons,
			InStars:        s.InStars,
			IndexBytes:     s.Bytes,
			GraphsRepaired: s.Repaired,
		}
	}
	return out
}

// Strategy returns the estimation strategy the engine was built with.
func (en *Engine) Strategy() Strategy { return en.opts.Strategy }

// Options returns the engine's effective options (defaults applied).
// Layers above the engine — the analytics sweep fingerprint, serving
// diagnostics — read the seed and accuracy parameters from here instead
// of carrying their own copies.
func (en *Engine) Options() Options { return en.opts }

// Network returns the (immutable) network this engine generation answers
// over. After ApplyUpdates, the new engine returns the updated network.
func (en *Engine) Network() *Network { return en.net }

// Model returns the tag model the engine was built with.
func (en *Engine) Model() *TagModel { return en.model }

// Request is one PITEX query: the best size-K tag set for User, or with
// M > 1 the M best in Result.Alternatives, or with a Prefix the best size-K
// set containing every tag of Prefix — the interactive flow, where the
// tags a post will certainly carry are pinned and the query asks what to
// add. M == 0 means 1. A larger M loosens best-effort pruning (the bar
// becomes the M-th best), so it explores more.
type Request struct {
	User, K, M int
	Prefix     []int
}

// Validate is the one check of a query's arguments against en, and
// Engine.Query runs it first. Serving layers call it before admission so a
// malformed request fails without occupying an engine. It checks, in
// order: the prefix (at most K tags, each in [0, NumTags), none repeated),
// M (not negative, and 1 with a prefix), the user and K ranges, K against
// Options.MaxK, and that a prefix or top-m query has best-effort
// exploration to run on.
func (r Request) Validate(en *Engine) error {
	if len(r.Prefix) > r.K {
		return fmt.Errorf("pitex: prefix has %d tags, exceeds k = %d", len(r.Prefix), r.K)
	}
	if err := CheckTags(r.Prefix, en.model.NumTags()); err != nil {
		return err
	}
	if r.M < 0 {
		return fmt.Errorf("pitex: m = %d, want >= 1", r.M)
	}
	if len(r.Prefix) > 0 && r.M > 1 {
		return fmt.Errorf("pitex: prefix and top-m cannot be combined")
	}
	if r.User < 0 || r.User >= en.net.NumUsers() {
		return fmt.Errorf("pitex: user %d outside [0,%d)", r.User, en.net.NumUsers())
	}
	if r.K < 1 || r.K > en.model.NumTags() {
		return fmt.Errorf("pitex: k = %d outside [1,%d]", r.K, en.model.NumTags())
	}
	if r.K > en.opts.MaxK {
		return fmt.Errorf("pitex: k = %d exceeds MaxK = %d (rebuild the engine with a larger MaxK)", r.K, en.opts.MaxK)
	}
	if en.opts.DisableBestEffort && (len(r.Prefix) > 0 || r.M > 1) {
		return fmt.Errorf("pitex: prefix and top-m queries require best-effort exploration")
	}
	return nil
}

// CheckTags is the one tag-set check: every tag in [0, numTags), none
// repeated. A repeat is not a bigger set: PosteriorInto would multiply
// its p(w|z) in once per occurrence and score a multiset. Request.Validate,
// EstimateInfluence and Audience apply it, and serving layers call it on
// an audience's tags before admission.
func CheckTags(tags []int, numTags int) error {
	for i, w := range tags {
		if w < 0 || w >= numTags {
			return fmt.Errorf("pitex: tag %d outside [0,%d)", w, numTags)
		}
		if slices.Contains(tags[:i], w) {
			return fmt.Errorf("pitex: duplicate tag %d", w)
		}
	}
	return nil
}

// Query answers r after Request.Validate. The best-first explorer checks
// ctx between expansions and abandons the query with ctx.Err() once it is
// cancelled or past its deadline, which bounds tail latency and stops
// burning samples for disconnected clients.
func (en *Engine) Query(ctx context.Context, r Request) (Result, error) {
	if err := r.Validate(en); err != nil {
		return Result{}, err
	}
	u, m := graph.VertexID(r.User), max(r.M, 1)
	start := time.Now()
	// Estimator work counters are cumulative; diff lifetime snapshots
	// around the query to attribute its cost. The interface is optional:
	// remote adapters and TIM do not expose it.
	wsEst, _ := en.est.(interface{ WorkStats() sampling.WorkStats })
	var wsBefore sampling.WorkStats
	if wsEst != nil {
		wsBefore = wsEst.WorkStats()
	}
	// Remote engines accumulate per-query degradation evidence in their
	// adapter; arm it with the query context and collect afterwards.
	ra, _ := en.est.(*remoteAdapter)
	if ra != nil {
		ra.begin(ctx)
	}
	var res Result
	if en.opts.DisableBestEffort {
		tags, influence, stats := en.enumerateAll(ctx, u, r.K)
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		res = Result{Tags: tags, Influence: influence}
		res.Explain.FullSetsEstimated = stats
	} else {
		br, err := en.explorer.Run(ctx, u, r.K, m, toTagIDs(r.Prefix))
		if err != nil {
			return Result{}, err
		}
		res = fromBestfirst(br, en.model, m)
	}
	if ra != nil {
		deg, err := ra.finish()
		if err != nil {
			return Result{}, err
		}
		res.Degraded = deg
		res.Explain.RemoteScatters = ra.scatters
		res.Explain.RemoteSiblings = ra.siblings
	}
	res.Explain.Strategy = en.opts.Strategy.String()
	res.Explain.EffectiveEpsilon = en.IndexEffectiveEpsilon()
	if wsEst != nil {
		ws := wsEst.WorkStats().Sub(wsBefore)
		res.Explain.ProbesEvaluated = ws.ProbesEvaluated
		res.Explain.ProbeCacheHits = ws.ProbeCacheHits
		res.Explain.ProbeCacheMisses = ws.ProbeCacheMisses
		if ws.ProbesEvaluated > 0 {
			res.Explain.ProbeCacheHitRatio = float64(ws.ProbeCacheHits) / float64(ws.ProbesEvaluated)
		}
		res.Explain.GraphsChecked = ws.GraphsChecked
		res.Explain.GraphsPruned = ws.GraphsPruned
		res.Explain.RecoveryAttempts = ws.RecoveryAttempts
		res.Explain.RecoveryCascades = ws.RecoveryCascades
	}
	res.Elapsed = time.Since(start)
	res.TagNames = make([]string, len(res.Tags))
	for i, w := range res.Tags {
		res.TagNames[i] = en.model.TagName(w)
	}
	return res, nil
}

// QueryTopCtx is Query of Request{user, k, m, nil}. It exists only for the
// benchmark harness in bench/ until ROADMAP item 1(b) moves it to Query.
func (en *Engine) QueryTopCtx(ctx context.Context, user, k, m int) (Result, error) {
	return en.Query(ctx, Request{User: user, K: k, M: m})
}

// fromBestfirst converts an explorer result into the public shape, with
// Alternatives only for a top-m query (m > 1).
func fromBestfirst(br bestfirst.Result, model *TagModel, m int) Result {
	res := Result{Tags: toInts(br.Tags), Influence: br.Influence}
	res.Explain = Explain{
		FullSetsEstimated:      br.Stats.FullSetsEstimated,
		PartialBoundsEstimated: br.Stats.PartialBoundsEstimated,
		PrunedUnsupported:      br.Stats.PrunedUnsupported,
		PrunedByBound:          br.Stats.PrunedByBound,
		FrontierExpansions:     br.Stats.FrontierExpansions,
		SamplesDrawn:           br.Stats.SamplesDrawn,
		BoundCacheHits:         br.Stats.BoundCacheHits,
	}
	if m == 1 {
		return res
	}
	for _, sc := range br.All {
		ss := ScoredTagSet{Tags: toInts(sc.Tags), Influence: sc.Influence}
		ss.TagNames = make([]string, len(ss.Tags))
		for i, w := range ss.Tags {
			ss.TagNames[i] = model.TagName(w)
		}
		res.Alternatives = append(res.Alternatives, ss)
	}
	return res
}

// enumerateAll is the Sec. 4 enumeration framework without best-effort
// pruning: estimate every size-k tag set. It stops early (with a partial
// answer the caller must discard) once ctx is done.
func (en *Engine) enumerateAll(ctx context.Context, u graph.VertexID, k int) ([]int, float64, int64) {
	bestVal := -1.0
	var best []int
	var estimated int64
	enumerate.Combinations(en.model.NumTags(), k, func(idx []int32) bool {
		if ctx.Err() != nil {
			return false
		}
		tags := make([]topics.TagID, k)
		copy(tags, idx)
		if !en.model.m.PosteriorInto(tags, en.posterior) {
			if bestVal < 1 {
				bestVal = 1
				best = toInts(tags)
			}
			return true
		}
		estimated++
		r := en.est.EstimateProber(u, sampling.PosteriorProber{G: en.net.g, Posterior: en.posterior})
		if r.Influence > bestVal {
			bestVal = r.Influence
			best = toInts(tags)
		}
		return true
	})
	return best, bestVal, estimated
}

// InfluencedUser is one row of an audience profile.
type InfluencedUser struct {
	User        int     `json:"user"`
	Probability float64 `json:"probability"`
}

// DefaultAudienceSamples is the cascade count Audience uses when samples
// <= 0 is passed.
const DefaultAudienceSamples = 2000

// Audience estimates which users the given tag set would reach: the top-m
// users by activation probability when user posts content tagged with tags
// (u itself excluded). It answers the follow-up question behind a PITEX
// result — "who exactly do these selling points reach?" — with samples
// independent cascades per call (DefaultAudienceSamples when samples <= 0).
// A profile that reaches nobody is an empty slice, never nil.
func (en *Engine) Audience(user int, tags []int, m int, samples int64) ([]InfluencedUser, error) {
	if user < 0 || user >= en.net.NumUsers() {
		return nil, fmt.Errorf("pitex: user %d outside [0,%d)", user, en.net.NumUsers())
	}
	if m <= 0 {
		return nil, fmt.Errorf("pitex: m = %d, want >= 1", m)
	}
	if samples <= 0 {
		samples = DefaultAudienceSamples
	}
	if err := CheckTags(tags, en.model.NumTags()); err != nil {
		return nil, err
	}
	if !en.model.m.PosteriorInto(toTagIDs(tags), en.posterior) {
		return []InfluencedUser{}, nil // nothing propagates
	}
	// The cascade stream is keyed to the full argument tuple, not just the
	// engine seed: a fixed per-engine stream would replay the same cascades
	// on every call (repeated calls could never average error down) and
	// correlate profiles across tag sets. Tags are hashed sorted, so the
	// stream — like the posterior and serve's cache key — depends on the
	// tag SET, not the argument order.
	seedParts := make([]uint64, 0, len(tags)+4)
	seedParts = append(seedParts, en.opts.Seed, 104729, uint64(user), uint64(samples))
	sorted := append([]int(nil), tags...)
	slices.Sort(sorted)
	for _, w := range sorted {
		seedParts = append(seedParts, uint64(w))
	}
	freqs := sampling.ActivationFrequencies(en.net.g, graph.VertexID(user),
		en.probe.Begin(sampling.PosteriorProber{G: en.net.g, Posterior: en.posterior}),
		samples, rng.New(rng.Mix(seedParts...)))
	if len(freqs) > m {
		freqs = freqs[:m]
	}
	out := make([]InfluencedUser, len(freqs))
	for i, f := range freqs {
		out[i] = InfluencedUser{User: int(f.Vertex), Probability: f.Probability}
	}
	return out, nil
}

// BatchResult pairs a query user with their result or error.
type BatchResult struct {
	User   int
	Result Result
	Err    error
}

// QueryAll answers one plain (user, k) query per user, fanning out over
// workers engine clones (sharing any offline index); workers <= 0 means 4.
// Results are returned in input order. Once ctx is cancelled, no new
// per-user query starts and the in-flight ones are abandoned at their next
// best-first expansion; users whose query never ran (or was cut short)
// carry ctx.Err() in BatchResult.Err. The fan-out always drains its
// workers before returning, so cancellation leaks no goroutines.
func (en *Engine) QueryAll(ctx context.Context, users []int, k, workers int) []BatchResult {
	out := make([]BatchResult, len(users))
	fanout.Run(len(users), workers, func() func(int) {
		clone := en.Clone()
		return func(i int) {
			out[i] = BatchResult{User: users[i], Err: ctx.Err()}
			if out[i].Err == nil {
				out[i].Result, out[i].Err = clone.Query(ctx, Request{User: users[i], K: k})
			}
		}
	})
	return out
}

// EstimateInfluence estimates E[I(user|tags)] with the engine's strategy.
func (en *Engine) EstimateInfluence(user int, tags []int) (float64, error) {
	if user < 0 || user >= en.net.NumUsers() {
		return 0, fmt.Errorf("pitex: user %d outside [0,%d)", user, en.net.NumUsers())
	}
	if err := CheckTags(tags, en.model.NumTags()); err != nil {
		return 0, err
	}
	if !en.model.m.PosteriorInto(toTagIDs(tags), en.posterior) {
		return 1, nil // no topic generates this tag set: nothing propagates
	}
	ra, _ := en.est.(*remoteAdapter)
	if ra != nil {
		ra.begin(context.Background())
	}
	r := en.est.EstimateProber(graph.VertexID(user), sampling.PosteriorProber{G: en.net.g, Posterior: en.posterior})
	if ra != nil {
		if _, err := ra.finish(); err != nil {
			return 0, err
		}
	}
	return r.Influence, nil
}

func toInts(tags []topics.TagID) []int {
	out := make([]int, len(tags))
	for i, t := range tags {
		out[i] = int(t)
	}
	return out
}
