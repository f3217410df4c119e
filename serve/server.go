package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitex"
	"pitex/analytics"
	"pitex/distrib"
	"pitex/internal/fanout"
	"pitex/obsv"
)

// Server wires the serving stack — cache → admission → estimator —
// behind both an HTTP surface (Handler) and a programmatic one
// (SellingPoints, Audience, QueryBatch), and keeps it live under graph
// updates: ApplyUpdates publishes each repaired engine as a new
// generation, with cache keys carrying the engine generation so a
// hot-swap can never serve a pre-update result. Build it with New; all
// methods are safe for concurrent use.
type Server struct {
	serverCore
	// gen is the serving generation. A request loads it once: its cache
	// key's generation and the engine that computes the answer both come
	// from that load.
	gen atomic.Pointer[engineGen]
	// updateMu serializes ApplyUpdates, StartSweep and Close.
	updateMu sync.Mutex

	// remote is the shard-fleet client of a coordinator (NewCoordinator);
	// nil for a single-process server. ApplyUpdates fans batches through
	// it, /statsz exports its health view.
	remote *distrib.Client

	cache *Cache
	// Update-plane counters, exposed via /metrics.
	updatesApplied *obsv.Counter
	graphsRepaired *obsv.Counter
	// Estimator-work aggregates, accumulated from each fresh query's
	// Explain so the registry tracks fleet-wide EXPLAIN totals.
	samplesDrawn  *obsv.Counter
	probesEval    *obsv.Counter
	probeHits     *obsv.Counter
	probeMisses   *obsv.Counter
	frontierExp   *obsv.Counter
	boundPrunes   *obsv.Counter
	fullSets      *obsv.Counter
	boundMemoHits *obsv.Counter
	// jobs runs population-analytics sweeps (POST /admin/jobs): each job
	// is pinned to the generation it started on and marked stale by
	// ApplyUpdates once the serving engine moves past it.
	jobs *analytics.Manager
	opts pitex.ServeOptions
}

// cacheShards is the result cache's count of independently locked shards.
const cacheShards = 16

// engineGen is one generation of a Server: the engine ApplyUpdates
// produced, the idle clones requests borrow from it, and the index
// figures /statsz, /metrics and /readyz report, read once when the
// generation is built.
type engineGen struct {
	engine           *pitex.Engine
	clones           stack[*pitex.Engine]
	indexBytes       int64
	shardStats       []pitex.IndexShardStat
	effectiveEpsilon float64
}

// newEngineGen builds the generation of en with n idle clones, so no
// query pays for a Clone.
func newEngineGen(en *pitex.Engine, n int) *engineGen {
	g := &engineGen{
		engine:           en,
		clones:           stack[*pitex.Engine]{build: en.Clone},
		indexBytes:       en.IndexMemoryBytes(),
		shardStats:       en.IndexShardStats(),
		effectiveEpsilon: en.IndexEffectiveEpsilon(),
	}
	for i := 0; i < n; i++ {
		g.clones.push(en.Clone())
	}
	return g
}

// New builds a Server over the given query-ready engine. The engine is
// used as the clone prototype of generation 0 and retained as the update
// base for ApplyUpdates; the caller may keep using it (single-threaded)
// but must not apply updates to it directly.
func New(en *pitex.Engine, opts pitex.ServeOptions) (*Server, error) {
	if en == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	s := &Server{
		cache: NewCache(opts.CacheCapacity, cacheShards),
		jobs:  analytics.NewManager(),
		opts:  opts,
	}
	s.gen.Store(newEngineGen(en, opts.PoolSize))
	s.initCore(en.Strategy().String(), newGate(opts.PoolSize, opts.QueueDepth, opts.QueueTimeout),
		s.Generation, s.readiness)
	s.registerMetrics()
	return s, nil
}

// registerMetrics wires every serving layer into the unified registry:
// owned counters for the update and estimator planes, plus read-at-scrape
// bridges over the gate, cache and job subsystems (which keep their own
// atomics for /statsz).
func (s *Server) registerMetrics() {
	reg := s.metrics.Registry()
	s.updatesApplied = reg.Counter("pitex_updates_applied_total",
		"Update batches applied through ApplyUpdates.")
	s.graphsRepaired = reg.Counter("pitex_graphs_repaired_total",
		"RR-Graphs incrementally repaired across all applied updates.")
	s.samplesDrawn = reg.Counter("pitex_estimator_samples_total",
		"Sample instances drawn by estimators across all fresh queries.")
	s.probesEval = reg.Counter("pitex_estimator_probes_total",
		"Edge-probability evaluations issued across all fresh queries.")
	s.probeHits = reg.Counter("pitex_probe_cache_hits_total",
		"ProbeCache hits across all fresh queries.")
	s.probeMisses = reg.Counter("pitex_probe_cache_misses_total",
		"ProbeCache misses across all fresh queries.")
	s.frontierExp = reg.Counter("pitex_frontier_expansions_total",
		"Best-first frontier expansions across all fresh queries.")
	s.boundPrunes = reg.Counter("pitex_bound_prunes_total",
		"Branches pruned by the Lemma 8 upper-bound test across all fresh queries (frontier row bounds on index and coordinator engines, sampled or reach bounds on online ones).")
	s.fullSets = reg.Counter("pitex_full_sets_estimated_total",
		"Full size-k tag sets estimated across all fresh queries.")
	s.boundMemoHits = reg.Counter("pitex_bound_memo_hits_total",
		"Upper-bound evaluations answered from the explorer's live-topic-mask memo across all fresh queries (online strategies only, whose bounds are reach counts; always 0 on index and coordinator engines, whose bounds are frontier rows).")

	reg.GaugeFunc("pitex_index_bytes", "Offline-index footprint of the serving generation.",
		func() float64 { return float64(s.gen.Load().indexBytes) })
	reg.GaugeFunc("pitex_index_effective_epsilon", "Error budget the serving generation's index delivers: Eq. 7 solved for ε at its θ and |V|, above the configured ε when θ was capped (0 for online strategies).",
		func() float64 { return s.gen.Load().effectiveEpsilon })
	reg.GaugeFunc("pitex_pool_in_use", "Pool engines currently checked out.",
		func() float64 { return float64(s.gate.inUse.Load()) })
	reg.GaugeFunc("pitex_pool_waiting", "Requests queued for a pool engine.",
		func() float64 { return float64(s.gate.waiting.Load()) })
	reg.CounterFunc("pitex_pool_served_total", "Requests admitted and served by the pool.",
		func() int64 { return s.gate.served.Load() })
	reg.CounterFunc("pitex_pool_rejected_total", "Requests shed by admission control.",
		func() int64 { return s.gate.rejected.Load() })
	reg.CounterFunc("pitex_pool_timeouts_total", "Requests that timed out waiting in the queue.",
		func() int64 { return s.gate.timeouts.Load() })
	reg.CounterFunc("pitex_cache_hits_total", "Result-cache hits.",
		func() int64 { return s.cache.Stats().Hits })
	reg.CounterFunc("pitex_cache_misses_total", "Result-cache misses.",
		func() int64 { return s.cache.Stats().Misses })
	reg.CounterFunc("pitex_cache_deduped_total", "Requests deduplicated onto an in-flight computation.",
		func() int64 { return s.cache.Stats().Deduped })
	reg.CounterFunc("pitex_cache_evictions_total", "Result-cache evictions.",
		func() int64 { return s.cache.Stats().Evictions })
	reg.GaugeFunc("pitex_cache_entries", "Result-cache resident entries.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("pitex_jobs_running", "Analytics sweep jobs currently running.",
		func() float64 {
			var n int
			for _, j := range s.jobs.List() {
				if j.State == analytics.JobRunning {
					n++
				}
			}
			return float64(n)
		})
}

// NewCoordinator builds a Server in scatter-gather mode: en must be a
// remote engine (pitex.NewRemoteEngine) whose RemoteEstimator is client,
// so queries flow coordinator engines → best-first exploration → client
// scatter → shard servers. On ApplyUpdates the coordinator applies the
// batch locally (graph only — it holds no index), fans the same batch to
// every shard endpoint, and advances the cluster generation only after
// the fan-out, so generation-stamped shard requests never race the swap.
// A fleet whose user count differs from en's network was built over
// another graph and is refused.
func NewCoordinator(en *pitex.Engine, client *distrib.Client, opts pitex.ServeOptions) (*Server, error) {
	if client == nil {
		return nil, fmt.Errorf("serve: nil distrib client")
	}
	if fleet, local := client.Status().TotalUsers, en.Network().NumUsers(); fleet != local {
		return nil, fmt.Errorf("serve: shard fleet serves %d users, the engine's network has %d", fleet, local)
	}
	s, err := New(en, opts)
	if err != nil {
		return nil, err
	}
	s.remote = client
	// The client's scatter/hedge/failover counters join the coordinator's
	// exposition, so one scrape covers the remote path too.
	client.Register(s.metrics.Registry())
	return s, nil
}

// Close shuts down the server: in-flight queries finish, queued and
// future ones fail with ErrPoolClosed, running sweep jobs are cancelled
// and waited for (their checkpoints flush before Close returns, so they
// resume on the next start), and later ApplyUpdates and StartSweep calls
// are rejected — an update landing during shutdown must not publish a
// generation on a server a load balancer is draining.
func (s *Server) Close() {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	s.gate.close()
	s.jobs.Shutdown()
	if s.remote != nil {
		// A coordinator owns its fleet client: stop the anti-entropy
		// reconciler and idle connections with the server (Close is
		// idempotent, so a caller closing the client too is harmless).
		s.remote.Close()
	}
}

// Generation returns the engine generation currently serving queries.
func (s *Server) Generation() uint64 { return s.gen.Load().engine.Generation() }

// Engine returns the current generation's prototype engine — the one
// query clones and sweep jobs derive from. Treat it as read-only shared
// state: clone it for queries, and never apply updates to it directly
// (use ApplyUpdates).
func (s *Server) Engine() *pitex.Engine { return s.gen.Load().engine }

// ApplyUpdates applies a batch of graph mutations to the serving engine
// with zero downtime: the index is repaired incrementally
// (pitex.Engine.ApplyUpdates), the result cache carries the query answers
// of every user the batch cannot have changed (pitex.UpdateStats.Dirty)
// to the new generation and evicts the rest, and the repaired engine and
// its clones are published as the new generation in one atomic store.
// Audience profiles are always evicted: their cascades read the whole
// graph. When every user is dirty (a batch that adds users, DELAYMAT,
// online strategies, a coordinator) nothing is carried. Queries never
// stop, and the gate admitting them stays: a request that loaded the old
// generation finishes on it (its result is cached under the old
// generation's key, unreachable afterwards), and requests after the store
// land on the repaired engine. Batches are serialized; on error nothing
// changes and the current generation keeps serving.
func (s *Server) ApplyUpdates(batch *pitex.UpdateBatch) (pitex.UpdateStats, error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if err := s.gate.open(); err != nil {
		return pitex.UpdateStats{}, err
	}
	next, stats, err := s.Engine().ApplyUpdates(batch)
	if err != nil {
		return stats, err
	}
	if s.remote != nil {
		// Fan the batch to every shard endpoint BEFORE any local state
		// moves: shard servers double-buffer the old generation, so
		// queries stamped with it keep answering throughout, and requests
		// never carry the new generation until every reachable endpoint
		// has repaired. Endpoints that fail the fan-out stay one
		// generation behind — their queries 409, the health tracker cools
		// them, and the fleet serves degraded (never mixed-generation)
		// answers until they recover. Only a fan-out that reaches no
		// endpoint at all aborts the update.
		if _, ferr := s.remote.Update(context.Background(),
			distrib.BatchToRequest(batch, next.Generation())); ferr != nil {
			return stats, ferr
		}
		s.remote.SetGeneration(next.Generation())
	}
	// Carry before the store: no request can have built a key of the new
	// generation yet.
	g := newEngineGen(next, s.opts.PoolSize)
	prev := s.Generation()
	s.cache.Carry(next.Generation(), func(k Key) bool {
		return k.Kind == "query" && k.Gen == prev && !stats.Dirty(k.User)
	})
	s.gen.Store(g)
	// Sweep jobs keep running on their pinned (pre-swap) generation —
	// consistent answers, never mixed generations — but are flagged so
	// GET /admin/jobs/{id} reports the population moved on.
	s.jobs.MarkStale(next.Generation())
	s.updatesApplied.Inc()
	s.graphsRepaired.Add(int64(stats.GraphsRepaired))
	return stats, nil
}

// do runs fn on a clone borrowed from generation g behind deadline-aware
// admission under endpoint's latency label, with fn's panics recovered,
// all under an admission span that ends once the gate lets the request
// in. The queue wait honors the caller's ctx (a dead client must not hold
// an admission token); fn decides how far its own work follows that ctx.
func (s *Server) do(ctx context.Context, g *engineGen, endpoint string, fn func(*pitex.Engine) error) error {
	asp, _ := obsv.StartSpan(ctx, "admission")
	defer asp.End() // no-op once borrow ended it
	asp.SetAttr("queue_depth", s.gate.waiting.Load())
	if err := s.admitBudget(ctx, endpoint+"/"+s.strategy); err != nil {
		return err
	}
	return borrow(ctx, &s.serverCore, asp, &g.clones, func(en *pitex.Engine) (err error) {
		defer s.recoverTo(endpoint, &err)
		return fn(en)
	})
}

// queryCtx applies the per-query deadline, if configured.
func (s *Server) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.QueryTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.QueryTimeout)
	}
	return ctx, func() {}
}

// cached is the read path of SellingPoints and Audience: key's stored
// answer, or run's on a clone of g (the generation key was built from)
// under endpoint's admission label, computed once across concurrent
// identical callers. A stored hit returns before any timer is armed; a
// miss or a follower of an in-flight computation waits under
// QueryTimeout, so deadline-aware admission can shed a query whose budget
// cannot cover the observed median latency before it occupies an engine.
// The second return reports whether the answer came without a computation
// in this call. A closed server refuses even a stored hit with
// ErrPoolClosed, as its health probes answer 503.
func cached[T any](ctx context.Context, s *Server, g *engineGen, endpoint string, key Key, run func(context.Context, *pitex.Engine) (T, error)) (T, bool, error) {
	if err := s.gate.open(); err != nil {
		var zero T
		return zero, false, err
	}
	csp, ctx := obsv.StartSpan(ctx, "cache")
	defer csp.End()
	if v, ok := s.cache.Get(key); ok {
		csp.SetAttr("hit", true)
		return v.(T), true, nil
	}
	ctx, cancel := s.queryCtx(ctx)
	defer cancel()
	v, hit, err := s.cache.GetOrCompute(ctx, key, func() (any, error) {
		var val T
		err := s.do(ctx, g, endpoint, func(en *pitex.Engine) (err error) {
			// Once an engine is checked out the work is decoupled from
			// the caller's cancellation: concurrent identical requests
			// piggyback on this flight, so one client's disconnect must
			// not fail theirs — and a completed answer is cached either
			// way. QueryTimeout (default 30s) bounds work orphaned by
			// disconnections.
			qctx, cancel := s.queryCtx(context.WithoutCancel(ctx))
			defer cancel()
			val, err = run(qctx, en)
			return err
		})
		return val, err
	})
	csp.SetAttr("hit", hit)
	var u uncached
	if errors.As(err, &u) {
		return u.val.(T), false, nil
	}
	if err != nil {
		var zero T
		return zero, false, err
	}
	return v.(T), hit, nil
}

// uncached carries an answer that must reach the caller and every waiter
// on its flight but never the cache, which stores only nil-error results;
// cached unwraps it back into a success.
type uncached struct{ val any }

func (uncached) Error() string { return "serve: uncacheable answer" }

// SellingPoints answers one PITEX query through the cache and gate: the m
// best size-k tag sets for user, optionally constrained to contain prefix
// (prefix queries require m == 1). The second return reports whether the
// answer was served without running an estimation in this call (cache hit
// or in-flight dedup); a cached Result's Elapsed still reports the
// original estimation time. A miss, or a wait on an identical in-flight
// estimation, runs under QueryTimeout.
//
// Returned results may be shared with the cache and concurrent callers:
// treat the Result's slices (Tags, TagNames, Alternatives) as read-only.
func (s *Server) SellingPoints(ctx context.Context, user, k, m int, prefix []int) (pitex.Result, bool, error) {
	if m < 1 {
		return pitex.Result{}, false, fmt.Errorf("serve: m = %d, want >= 1", m)
	}
	if m > MaxTopM {
		return pitex.Result{}, false, fmt.Errorf("serve: m = %d exceeds limit %d", m, MaxTopM)
	}
	if len(prefix) > 0 && m > 1 {
		return pitex.Result{}, false, fmt.Errorf("serve: prefix and top-m cannot be combined")
	}
	// The engine's own check, before admission: a malformed request must
	// 400 immediately, not occupy an engine (or cache a per-arguments
	// error under a malformed key).
	g := s.gen.Load()
	req := pitex.Request{User: user, K: k, M: m, Prefix: prefix}
	if err := req.Validate(g.engine); err != nil {
		return pitex.Result{}, false, err
	}
	key := Key{Kind: "query", Gen: g.engine.Generation(), User: user, K: k, M: m, Tags: TagsKey(prefix)}
	return cached(ctx, s, g, "selling-points", key, func(ctx context.Context, en *pitex.Engine) (res pitex.Result, err error) {
		qsp, ctx := obsv.StartSpan(ctx, "query")
		defer qsp.End()
		qsp.SetAttr("user", req.User)
		qsp.SetAttr("k", req.K)
		qsp.SetAttr("m", req.M)
		qsp.SetAttr("strategy", s.strategy)
		if res, err = en.Query(ctx, req); err != nil {
			return res, err
		}
		s.noteExplain(res.Explain)
		if res.Degraded != nil {
			// Degraded answers carry their accuracy loss into the trace:
			// achieved ε and the shards that were absent. Shards were
			// unreachable, so the answer is not cached: the moment the
			// fleet heals an identical request deserves the exact one.
			qsp.SetAttr("degraded", true)
			qsp.SetAttr("achieved_epsilon", res.Degraded.AchievedEpsilon)
			qsp.SetAttr("target_epsilon", res.Degraded.TargetEpsilon)
			qsp.SetAttr("missing_shards", res.Degraded.MissingShards)
			return res, uncached{res}
		}
		return res, nil
	})
}

// noteExplain folds one fresh query's cost breakdown into the registry's
// fleet-wide estimator aggregates.
func (s *Server) noteExplain(ex pitex.Explain) {
	s.samplesDrawn.Add(ex.SamplesDrawn)
	s.probesEval.Add(ex.ProbesEvaluated)
	s.probeHits.Add(ex.ProbeCacheHits)
	s.probeMisses.Add(ex.ProbeCacheMisses)
	s.frontierExp.Add(ex.FrontierExpansions)
	s.boundPrunes.Add(ex.PrunedByBound)
	s.fullSets.Add(ex.FullSetsEstimated)
	s.boundMemoHits.Add(ex.BoundCacheHits)
}

// MaxAudienceSamples caps the per-request cascade count of Audience.
// Engine.Audience runs its full sample budget uncancellably once started,
// so an uncapped client-supplied value could pin a pool worker for
// minutes; requests asking for more are clamped.
const MaxAudienceSamples = 100000

// MaxAudienceUsers caps the m of an audience profile. Engine.Audience
// returns every activated user when m exceeds that count, so an uncapped
// m could produce (and cache) network-sized results on large datasets.
const MaxAudienceUsers = 1000

// Audience answers "who exactly do these tags reach?" for user: the top-m
// users by activation probability, cached like a query and under its
// QueryTimeout on a miss. samples is clamped to MaxAudienceSamples. The returned slice may be shared with the cache
// and concurrent callers: treat it as read-only.
func (s *Server) Audience(ctx context.Context, user int, tags []int, m int, samples int64) ([]pitex.InfluencedUser, bool, error) {
	if m > MaxAudienceUsers {
		return nil, false, fmt.Errorf("serve: m = %d exceeds limit %d", m, MaxAudienceUsers)
	}
	if samples <= 0 {
		samples = pitex.DefaultAudienceSamples // mirror the engine so the key matches
	}
	if samples > MaxAudienceSamples {
		samples = MaxAudienceSamples
	}
	// The engine's checks, before admission as in SellingPoints: a
	// repeated or unknown tag, an unknown user or an m below 1 must 400
	// without occupying an engine.
	g := s.gen.Load()
	if err := pitex.CheckTags(tags, g.engine.Model().NumTags()); err != nil {
		return nil, false, err
	}
	if n := g.engine.Network().NumUsers(); user < 0 || user >= n {
		return nil, false, fmt.Errorf("pitex: user %d outside [0,%d)", user, n)
	}
	if m < 1 {
		return nil, false, fmt.Errorf("pitex: m = %d, want >= 1", m)
	}
	key := Key{Kind: "audience", Gen: g.engine.Generation(), User: user, M: m, Samples: samples, Tags: TagsKey(tags)}
	return cached(ctx, s, g, "audience", key, func(ctx context.Context, en *pitex.Engine) ([]pitex.InfluencedUser, error) {
		sp, _ := obsv.StartSpan(ctx, "sample")
		defer sp.End()
		sp.SetAttr("user", user)
		sp.SetAttr("samples", samples)
		return en.Audience(user, tags, m, samples)
	})
}

// MaxBatchUsers caps the user list of one QueryBatch / batch HTTP request.
const MaxBatchUsers = 1024

// MaxTopM caps the m of a top-m query. Large m loosens best-effort
// pruning toward exhaustive enumeration (the bar becomes the m-th best),
// so an uncapped client value could pin a pool worker for the full query
// deadline per request.
const MaxTopM = 64

// QueryBatch answers one plain (user, k) query per user through the cache
// and gate, fanned out over at most PoolSize workers so a large batch
// queues instead of tripping admission control. Results come back in input
// order; per-user failures (including admission rejections when competing
// traffic has every engine busy) are reported in BatchResult.Err without
// failing the batch.
func (s *Server) QueryBatch(ctx context.Context, users []int, k int) []pitex.BatchResult {
	// The shared fan-out always drains: a cancelled batch marks its
	// remaining users with ctx.Err() and never leaks a worker. Each row
	// still flows through the cache and gate (admission control included)
	// rather than a raw engine clone.
	out := make([]pitex.BatchResult, len(users))
	fanout.Run(len(users), s.opts.PoolSize, func() func(int) {
		return func(i int) {
			out[i] = pitex.BatchResult{User: users[i], Err: ctx.Err()}
			if out[i].Err == nil {
				out[i].Result, out[i].Err = s.batchQuery(ctx, users[i], k)
			}
		}
	})
	return out
}

// batchQuery is one batch worker's SellingPoints call. Unlike single
// queries, batch queries run in goroutines with no net/http recover above
// them, so a panicking estimator must be contained here to fail one row
// instead of the process.
func (s *Server) batchQuery(ctx context.Context, user, k int) (res pitex.Result, err error) {
	defer s.recoverTo(fmt.Sprintf("query for user %d", user), &err)
	res, _, err = s.SellingPoints(ctx, user, k, 1, nil)
	return res, err
}

// Stats is the /statsz payload.
type Stats struct {
	Strategy      string  `json:"strategy"`
	Generation    uint64  `json:"generation"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Build is the binary's provenance (Go version, VCS revision).
	Build obsv.BuildInfo `json:"build"`
	// IndexBytes is the current generation's offline-index footprint (the
	// Table 3 metric, O(1) to read), so operators can watch index RSS
	// across live updates. 0 for online strategies.
	IndexBytes int64 `json:"index_bytes"`
	// EffectiveEpsilon is the ε the current generation's index delivers
	// (pitex.Engine.IndexEffectiveEpsilon): above the configured ε when
	// θ was capped. Omitted for online strategies.
	EffectiveEpsilon float64 `json:"effective_epsilon,omitempty"`
	// IndexShards breaks the footprint down per shard (users, θ, graphs,
	// bytes, cumulative graphs repaired across update generations).
	// Omitted for online strategies; one row for a monolithic index.
	IndexShards []pitex.IndexShardStat       `json:"index_shards,omitempty"`
	Pool        PoolStats                    `json:"pool"`
	Cache       CacheStats                   `json:"cache"`
	Latency     map[string]HistogramSnapshot `json:"latency"`
	// Jobs lists the analytics sweep jobs (progress, generation pinning,
	// staleness); empty when none were started.
	Jobs []analytics.JobStatus `json:"jobs,omitempty"`
	// Remote is the shard-fleet view of a coordinator (scatter/hedge
	// counters, per-endpoint health); omitted for single-process servers.
	Remote *distrib.Status `json:"remote,omitempty"`
}

// Stats snapshots every layer's counters (the index snapshots are the
// current generation's).
func (s *Server) Stats() Stats {
	g := s.gen.Load()
	var remote *distrib.Status
	if s.remote != nil {
		st := s.remote.Status()
		remote = &st
	}
	return Stats{
		Remote:           remote,
		Strategy:         s.strategy,
		Generation:       g.engine.Generation(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Build:            obsv.GetBuildInfo(),
		IndexBytes:       g.indexBytes,
		EffectiveEpsilon: g.effectiveEpsilon,
		IndexShards:      g.shardStats,
		Pool:             s.gate.stats(),
		Cache:            s.cache.Stats(),
		Latency:          s.metrics.Snapshot(),
		Jobs:             s.jobs.List(),
	}
}

// Handler returns the HTTP surface:
//
//	/selling-points?user=12&k=3[&m=5][&prefix=1,4] — one query
//	/selling-points?users=1,2,3&k=3               — a batch
//	/audience?user=12&tags=1,4[&m=10][&samples=5000]
//	/admin/update  (POST, JSON)                   — live graph update
//	/admin/jobs    (POST, JSON)                   — start a population sweep
//	/admin/jobs    (GET)                          — list sweep jobs
//	/admin/jobs/{id}  (GET)                       — progress/ETA + leaderboard
//	/admin/jobs/{id}  (DELETE)                    — cancel
//	/healthz
//	/statsz
//	/metrics  (GET)                               — Prometheus text exposition
//	/tracez   (GET)                               — last N request traces, JSON
//
// Both GET routes accept &trace=1 (inline the request's span tree into
// the response); /selling-points also accepts &explain=1 (inline the
// estimator cost breakdown).
//
// The /admin endpoints carry no authentication; expose them only on an
// internal listener or behind a reverse proxy that does.
func (s *Server) Handler() http.Handler {
	mux := s.newMux()
	// Batches record under their own label: one 1024-user batch sample
	// would otherwise dominate the per-query tail latencies.
	single := route{label: s.latencyLabel("selling-points")}
	batch := route{label: s.latencyLabel("selling-points-batch")}
	mux.HandleFunc("/selling-points", func(w http.ResponseWriter, r *http.Request) {
		// The raw query is read once: the label and the handler see the
		// same arguments, so a request is a batch exactly when it is
		// served as one.
		q := parseQueryArgs(r.URL.RawQuery)
		rt := single
		if q.users != "" {
			rt = batch
		}
		s.serve(w, r, rt, func(w http.ResponseWriter, r *http.Request) error {
			return s.handleSellingPoints(w, r, q)
		})
	})
	mux.HandleFunc("/audience", s.chain(route{label: "audience"}, s.handleAudience))
	mux.HandleFunc("/admin/update", s.chain(route{label: "admin-update"}, s.handleAdminUpdate))
	mux.HandleFunc("POST /admin/jobs", s.chain(route{label: "admin-jobs"}, s.handleJobCreate))
	mux.HandleFunc("GET /admin/jobs", s.handleJobList)
	mux.HandleFunc("GET /admin/jobs/{id}", s.chain(route{}, s.handleJobGet))
	mux.HandleFunc("DELETE /admin/jobs/{id}", s.chain(route{}, s.handleJobCancel))
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// answer is the /selling-points document. Its fields are declared in
// sorted key order, so encoding/json writes the bytes a map[string]any of
// the same keys would; optional parts are pointers that omitempty drops.
type answer struct {
	Alternatives *[]alternative          `json:"alternatives,omitempty"`
	Cached       bool                    `json:"cached"`
	Degraded     *pitex.DegradedCoverage `json:"degraded,omitempty"`
	Elapsed      string                  `json:"elapsed"`
	Explain      *pitex.Explain          `json:"explain,omitempty"`
	Influence    float64                 `json:"influence"`
	K            int                     `json:"k"`
	TagIDs       []int                   `json:"tag_ids"`
	Tags         []string                `json:"tags"`
	Trace        *obsv.TraceData         `json:"trace,omitempty"`
	User         int                     `json:"user"`
}

// alternative is one of a top-m answer's m best tag sets.
type alternative struct {
	Tags      []string `json:"tags"`
	Influence float64  `json:"influence"`
}

// batchAnswer is the users= batch document.
type batchAnswer struct {
	K       int        `json:"k"`
	Results []batchRow `json:"results"`
}

// batchRow is one user's row of a batch: the answer, or its error.
type batchRow struct {
	User      int      `json:"user"`
	Tags      []string `json:"tags,omitempty"`
	TagIDs    []int    `json:"tag_ids,omitempty"`
	Influence float64  `json:"influence,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// newAnswer builds the answer document of one query's result; explain
// inlines the estimator cost breakdown.
func newAnswer(res pitex.Result, user, k, m int, cached, explain bool) answer {
	doc := answer{
		User:      user,
		K:         k,
		Tags:      res.TagNames,
		TagIDs:    res.Tags,
		Influence: res.Influence,
		Cached:    cached,
		Elapsed:   res.Elapsed.String(),
		// Degraded-but-honest: the estimate stands, extrapolated over the
		// responding shards, and the payload says exactly how much
		// accuracy was lost and which shards were absent.
		Degraded: res.Degraded,
	}
	if explain {
		ex := res.Explain
		doc.Explain = &ex
	}
	if m > 1 {
		alts := make([]alternative, len(res.Alternatives))
		for i, a := range res.Alternatives {
			alts[i] = alternative{Tags: a.TagNames, Influence: a.Influence}
		}
		doc.Alternatives = &alts
	}
	return doc
}

// newBatchAnswer builds the document of a users= batch.
func newBatchAnswer(batch []pitex.BatchResult, k int) *batchAnswer {
	rows := make([]batchRow, len(batch))
	for i, br := range batch {
		rows[i] = batchRow{User: br.User, Tags: br.Result.TagNames,
			TagIDs: br.Result.Tags, Influence: br.Result.Influence}
		if br.Err != nil {
			rows[i] = batchRow{User: br.User, Error: br.Err.Error()}
		}
	}
	return &batchAnswer{K: k, Results: rows}
}

func (s *Server) handleSellingPoints(w http.ResponseWriter, r *http.Request, q queryArgs) error {
	k, err := intParam("k", q.k, 3)
	if err != nil {
		return err
	}
	m, err := intParam("m", q.m, 1)
	if err != nil {
		return err
	}
	var prefix []int
	if q.prefix != "" {
		if prefix, err = parseIntList(q.prefix); err != nil {
			return fmt.Errorf("bad prefix: %w", err)
		}
	}
	if q.users != "" {
		if m != 1 || len(prefix) > 0 {
			return fmt.Errorf("m and prefix are not supported with users batches")
		}
		users, err := parseIntList(q.users)
		if err != nil {
			return fmt.Errorf("bad users: %w", err)
		}
		if len(users) > MaxBatchUsers {
			return fmt.Errorf("batch of %d users exceeds limit %d", len(users), MaxBatchUsers)
		}
		writeJSON(w, newBatchAnswer(s.QueryBatch(r.Context(), users, k), k))
		return nil
	}
	user, err := intParam("user", q.user, -1)
	if err != nil || user < 0 {
		return fmt.Errorf("bad or missing user")
	}
	// Every single query runs under a trace (a hit's one span costs well
	// under a microsecond); ?trace=1 additionally inlines the finished
	// span tree into the response, the only place besides /tracez that
	// exports it.
	tr := s.tracer.StartTrace("selling-points")
	res, hit, err := s.SellingPoints(obsv.ContextWithTrace(r.Context(), tr), user, k, m, prefix)
	tr.Finish()
	if err != nil {
		return err
	}
	doc := newAnswer(res, user, k, m, hit, q.explain == "1" || q.trace == "1")
	if q.trace == "1" {
		td := tr.Data()
		doc.Trace = &td
	}
	writeJSON(w, &doc)
	return nil
}

// queryArgs are the /selling-points and /audience query parameters.
type queryArgs struct {
	k, m, user, users, prefix, tags, samples, trace, explain string
}

// parseQueryArgs reads both GET routes' parameters from a raw URL query
// in one pass, without building url.Values: each field is what
// url.Values.Get would return — the first value of its key (an empty one
// included), %- and +-decoded, with the pairs url.ParseQuery rejects
// (a ';', a malformed escape) skipped.
func parseQueryArgs(raw string) queryArgs {
	var q queryArgs
	var seen uint16
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(key)
		if err != nil {
			continue
		}
		field, bit := q.field(key)
		if field == nil || seen&bit != 0 {
			continue
		}
		if value, err = url.QueryUnescape(value); err != nil {
			continue
		}
		*field, seen = value, seen|bit
	}
	return q
}

// field maps a parameter name to its field and a bit of its own; nil for
// a name the endpoint does not read.
func (q *queryArgs) field(key string) (*string, uint16) {
	switch key {
	case "k":
		return &q.k, 1 << 0
	case "m":
		return &q.m, 1 << 1
	case "user":
		return &q.user, 1 << 2
	case "users":
		return &q.users, 1 << 3
	case "prefix":
		return &q.prefix, 1 << 4
	case "tags":
		return &q.tags, 1 << 5
	case "samples":
		return &q.samples, 1 << 6
	case "trace":
		return &q.trace, 1 << 7
	case "explain":
		return &q.explain, 1 << 8
	}
	return nil, 0
}

// audienceAnswer is the /audience document, its fields in sorted key
// order like answer's.
type audienceAnswer struct {
	Audience []pitex.InfluencedUser `json:"audience"`
	Cached   bool                   `json:"cached"`
	Trace    *obsv.TraceData        `json:"trace,omitempty"`
	User     int                    `json:"user"`
}

func (s *Server) handleAudience(w http.ResponseWriter, r *http.Request) error {
	q := parseQueryArgs(r.URL.RawQuery)
	user, err := intParam("user", q.user, -1)
	if err != nil || user < 0 {
		return fmt.Errorf("bad or missing user")
	}
	tags, err := parseIntList(q.tags)
	if err != nil {
		return fmt.Errorf("bad tags: %w", err)
	}
	m, err := intParam("m", q.m, 10)
	if err != nil {
		return err
	}
	// Default 0: Audience normalizes it to pitex.DefaultAudienceSamples,
	// so an omitted samples and an explicit 0 share one cache key.
	samples, err := intParam("samples", q.samples, 0)
	if err != nil {
		return err
	}
	tr := s.tracer.StartTrace("audience")
	aud, hit, err := s.Audience(obsv.ContextWithTrace(r.Context(), tr), user, tags, m, int64(samples))
	tr.Finish()
	if err != nil {
		return err
	}
	doc := audienceAnswer{Audience: aud, Cached: hit, User: user}
	if q.trace == "1" {
		td := tr.Data()
		doc.Trace = &td
	}
	writeJSON(w, &doc)
	return nil
}

// maxUpdateBody bounds the /admin/update request body (1 MiB is ~10k
// staged operations, far beyond the incremental sweet spot).
const maxUpdateBody = 1 << 20

func (s *Server) handleAdminUpdate(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return withStatus(http.StatusMethodNotAllowed, errors.New("POST required"))
	}
	// The body is distrib.UpdateRequest without its generation: the server
	// picks the next one itself.
	var req distrib.UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("bad update body: %w", err)
	}
	if req.Generation != 0 {
		return fmt.Errorf("bad update body: generation %d is not the caller's to choose", req.Generation)
	}
	// Negative add_users flow through so apply-time validation rejects the
	// whole request with 400 instead of silently applying half of it.
	batch, err := distrib.RequestToBatch(req)
	if err != nil {
		return err
	}
	stats, err := s.ApplyUpdates(batch)
	if err != nil {
		return err
	}
	writeJSON(w, map[string]any{
		"generation":        stats.Generation,
		"edges_inserted":    stats.EdgesInserted,
		"edges_deleted":     stats.EdgesDeleted,
		"edges_retopiced":   stats.EdgesRetopiced,
		"users_added":       stats.UsersAdded,
		"graphs_repaired":   stats.GraphsRepaired,
		"graphs_appended":   stats.GraphsAppended,
		"graphs_total":      stats.GraphsTotal,
		"repaired_fraction": stats.RepairedFraction(),
		"full_rebuild":      stats.FullRebuild,
		"dirty_users":       stats.DirtyUsers,
		"elapsed":           stats.Elapsed.String(),
	})
	return nil
}

// readiness adds the offline index's footprint (index strategies), its
// ε when a θ cap leaves it looser than configured (noteEpsilon) and, on a
// coordinator, the fleet's shard count to /readyz.
func (s *Server) readiness(doc map[string]any) error {
	g := s.gen.Load()
	if g.indexBytes > 0 {
		doc["index_bytes"] = g.indexBytes
	}
	noteEpsilon(doc, g.effectiveEpsilon, g.engine.Options().Epsilon)
	if s.remote != nil {
		doc["remote_shards"] = s.remote.TotalShards()
	}
	return nil
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// intParam parses the query parameter name's value v; an empty v is def.
func intParam(name, v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", name, v)
	}
	return n, nil
}

func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	out := make([]int, 0, strings.Count(s, ",")+1)
	for {
		p, rest, more := strings.Cut(s, ",")
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", p)
		}
		out = append(out, v)
		if !more {
			return out, nil
		}
		s = rest
	}
}
