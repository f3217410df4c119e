package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitex"
	"pitex/analytics"
	"pitex/distrib"
	"pitex/obsv"
)

// Server wires the serving stack — pool → cache → estimator — behind both
// an HTTP surface (Handler) and a programmatic one (SellingPoints,
// Audience, QueryBatch), and keeps it live under graph updates: a
// versioned engine pool that ApplyUpdates swaps atomically, with cache
// keys carrying the engine generation so a hot-swap can never serve a
// pre-update result. Build it with New; all methods are safe for
// concurrent use.
type Server struct {
	serverCore
	pool       atomic.Pointer[Pool]
	generation atomic.Uint64
	// updateMu serializes ApplyUpdates and Close; proto is the current
	// generation's prototype engine and closed the shutdown latch, both
	// accessed only under it.
	updateMu sync.Mutex
	proto    *pitex.Engine
	closed   bool

	// remote is the shard-fleet client of a coordinator (NewCoordinator);
	// nil for a single-process server. ApplyUpdates fans batches through
	// it, /statsz exports its health view.
	remote *distrib.Client

	cache *Cache
	// Update-plane counters, exposed via /metrics.
	updatesApplied *obsv.Counter
	graphsRepaired *obsv.Counter
	poolSwaps      *obsv.Counter
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
	// numTags is the tag-vocabulary size, fixed across generations
	// (ApplyUpdates mutates the network, never the tag model); request
	// validation reads it without touching the pool.
	numTags int
	opts    pitex.ServeOptions
}

// New builds a Server over the given query-ready engine. The engine is
// used as the clone prototype for the pool and retained as the update
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
		proto:   en,
		cache:   NewCache(opts.CacheCapacity, opts.CacheShards),
		jobs:    analytics.NewManager(),
		numTags: en.Model().NumTags(),
		opts:    opts,
	}
	s.pool.Store(NewPool(en, opts.PoolSize, opts.QueueDepth, opts.QueueTimeout))
	s.generation.Store(en.Generation())
	s.initCore(en.Strategy().String(), s.generation.Load,
		func() error { return s.pool.Load().gate.open() }, s.readiness)
	s.registerMetrics()
	return s, nil
}

// registerMetrics wires every serving layer into the unified registry:
// owned counters for the update and estimator planes, plus read-at-scrape
// bridges over the pool, cache and job subsystems (which keep their own
// atomics for /statsz).
func (s *Server) registerMetrics() {
	reg := s.metrics.Registry()
	s.updatesApplied = reg.Counter("pitex_updates_applied_total",
		"Update batches applied through ApplyUpdates.")
	s.graphsRepaired = reg.Counter("pitex_graphs_repaired_total",
		"RR-Graphs incrementally repaired across all applied updates.")
	s.poolSwaps = reg.Counter("pitex_pool_swaps_total",
		"Engine-pool hot swaps performed by updates.")
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
		func() float64 { return float64(s.pool.Load().IndexBytes()) })
	reg.GaugeFunc("pitex_index_effective_epsilon", "Error budget the serving generation's index delivers: Eq. 7 solved for ε at its θ and |V|, above the configured ε when θ was capped (0 for online strategies).",
		func() float64 { return s.pool.Load().EffectiveEpsilon() })
	reg.GaugeFunc("pitex_pool_in_use", "Pool engines currently checked out.",
		func() float64 { return float64(s.pool.Load().Stats().InUse) })
	reg.GaugeFunc("pitex_pool_waiting", "Requests queued for a pool engine.",
		func() float64 { return float64(s.pool.Load().Stats().Waiting) })
	reg.CounterFunc("pitex_pool_served_total", "Requests admitted and served by the pool.",
		func() int64 { return s.pool.Load().Stats().Served })
	reg.CounterFunc("pitex_pool_rejected_total", "Requests shed by admission control.",
		func() int64 { return s.pool.Load().Stats().Rejected })
	reg.CounterFunc("pitex_pool_timeouts_total", "Requests that timed out waiting in the queue.",
		func() int64 { return s.pool.Load().Stats().Timeouts })
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
// so queries flow coordinator pool → best-first exploration → client
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
// resume on the next start), and later ApplyUpdates calls are rejected —
// an update landing during shutdown must not swap in a fresh pool and
// resurrect a server a load balancer is draining.
func (s *Server) Close() {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	s.closed = true
	s.jobs.Shutdown()
	s.pool.Load().Close()
	if s.remote != nil {
		// A coordinator owns its fleet client: stop the anti-entropy
		// reconciler and idle connections with the server (Close is
		// idempotent, so a caller closing the client too is harmless).
		s.remote.Close()
	}
}

// Generation returns the engine generation currently serving queries.
func (s *Server) Generation() uint64 { return s.generation.Load() }

// Engine returns the current generation's prototype engine — the one
// pool clones and sweep jobs derive from. Treat it as read-only shared
// state: clone it for queries, and never apply updates to it directly
// (use ApplyUpdates).
func (s *Server) Engine() *pitex.Engine {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	return s.proto
}

// drainGrace bounds how long a retired pool may finish its in-flight and
// queued work after a hot-swap before it is force-closed.
func (s *Server) drainGrace() time.Duration {
	grace := 2 * time.Second
	if s.opts.QueueTimeout > 0 {
		grace += s.opts.QueueTimeout
	}
	if s.opts.QueryTimeout > 0 {
		grace += s.opts.QueryTimeout
	}
	return grace
}

// ApplyUpdates applies a batch of graph mutations to the serving engine
// with zero downtime: the index is repaired incrementally
// (pitex.Engine.ApplyUpdates), a pool of clones over the repaired engine
// atomically replaces the current one, the generation counter moves, and
// the result cache is purged. Queries never stop: requests dispatched
// before the swap drain against the old generation (their results are
// cached under the old generation's keys, unreachable afterwards), and
// requests after it land on the repaired engine. Batches are serialized;
// on error nothing changes and the current generation keeps serving.
func (s *Server) ApplyUpdates(batch *pitex.UpdateBatch) (pitex.UpdateStats, error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if s.closed {
		return pitex.UpdateStats{}, ErrPoolClosed
	}
	next, stats, err := s.proto.ApplyUpdates(batch)
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
	s.proto = next
	old := s.pool.Swap(NewPool(next, s.opts.PoolSize, s.opts.QueueDepth, s.opts.QueueTimeout))
	// Order matters: once the generation is visible, any reader building a
	// key with it is guaranteed to load the new pool (both are atomic and
	// the pool moved first), so a new-generation key can never be computed
	// by an old-generation engine.
	s.generation.Store(next.Generation())
	s.cache.Purge()
	// Sweep jobs keep running on their pinned (pre-swap) generation —
	// consistent answers, never mixed generations — but are flagged so
	// GET /admin/jobs/{id} reports the population moved on.
	s.jobs.MarkStale(next.Generation())
	old.DrainAndClose(s.drainGrace())
	s.updatesApplied.Inc()
	s.graphsRepaired.Add(int64(stats.GraphsRepaired))
	s.poolSwaps.Inc()
	return stats, nil
}

// do runs fn on a pool engine behind deadline-aware admission under
// endpoint's latency label, with fn's panics recovered, all under an
// admission span that ends at engine checkout. The queue wait honors the
// caller's ctx (a dead client must not hold an admission token); fn
// decides how far its own work follows that ctx.
//
// do retries on the new pool when the one it loaded was retired
// mid-dispatch: a request can load the pool pointer, lose the CPU across a
// hot-swap, and find the old pool already drained and closed — that
// request belongs on the new generation, not in a 503. The loop only
// continues while the pool pointer keeps moving, so a genuinely closed
// server still returns ErrPoolClosed.
func (s *Server) do(ctx context.Context, endpoint string, fn func(*pitex.Engine) error) error {
	asp, _ := obsv.StartSpan(ctx, "admission")
	defer asp.End() // no-op once the checkout ended it
	asp.SetAttr("queue_depth", s.pool.Load().Stats().Waiting)
	if err := s.admitBudget(ctx, endpoint+"/"+s.strategy); err != nil {
		return err
	}
	run := func(en *pitex.Engine) (err error) {
		defer s.recoverTo(endpoint, &err)
		asp.End()
		return fn(en)
	}
	for {
		p := s.pool.Load()
		err := p.Do(ctx, run)
		if errors.Is(err, ErrPoolClosed) && s.pool.Load() != p {
			continue
		}
		return err
	}
}

// queryCtx applies the per-query deadline, if configured.
func (s *Server) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.QueryTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.QueryTimeout)
	}
	return ctx, func() {}
}

// SellingPoints answers one PITEX query through the cache and pool: the m
// best size-k tag sets for user, optionally constrained to contain prefix
// (prefix queries require m == 1, as in Engine.QueryWithPrefix). The
// second return reports whether the answer was served without running an
// estimation in this call (cache hit or in-flight dedup); a cached
// Result's Elapsed still reports the original estimation time.
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
	// Mirror the engine's prefix checks before admission: a duplicate or
	// oversized prefix must 400 immediately, not occupy a pool engine (or
	// cache a per-arguments error under a malformed key).
	if err := pitex.ValidatePrefix(prefix, k, s.numTags); err != nil {
		return pitex.Result{}, false, err
	}
	key := Key{Kind: "query", Gen: s.generation.Load(), User: user, K: k, M: m, Tags: TagsKey(prefix)}
	csp, ctx := obsv.StartSpan(ctx, "cache")
	defer csp.End()
	v, cached, err := s.cache.GetOrCompute(ctx, key, func() (any, error) {
		var res pitex.Result
		// Once an engine is checked out the estimation is decoupled from
		// the caller's cancellation: concurrent identical requests
		// piggyback on this flight, so one client's disconnect must not
		// fail theirs — and a completed estimation is cached either way.
		// QueryTimeout (default 30s) bounds work orphaned by disconnections.
		err := s.do(ctx, "selling-points", func(en *pitex.Engine) error {
			qctx, cancel := s.queryCtx(context.WithoutCancel(ctx))
			defer cancel()
			qsp, qctx := obsv.StartSpan(qctx, "query")
			defer qsp.End()
			qsp.SetAttr("user", user)
			qsp.SetAttr("k", k)
			qsp.SetAttr("m", m)
			qsp.SetAttr("strategy", s.strategy)
			var qerr error
			if len(prefix) > 0 {
				res, qerr = en.QueryWithPrefixCtx(qctx, user, prefix, k)
			} else {
				res, qerr = en.QueryTopCtx(qctx, user, k, m)
			}
			if qerr == nil {
				s.noteExplain(res.Explain)
				if res.Degraded != nil {
					// Degraded answers carry their accuracy loss into the
					// trace: achieved ε and the shards that were absent.
					qsp.SetAttr("degraded", true)
					qsp.SetAttr("achieved_epsilon", res.Degraded.AchievedEpsilon)
					qsp.SetAttr("target_epsilon", res.Degraded.TargetEpsilon)
					qsp.SetAttr("missing_shards", res.Degraded.MissingShards)
				}
			}
			return qerr
		})
		if err == nil && res.Degraded != nil {
			// A degraded answer (shards were unreachable) must reach the
			// caller but never the cache — the cache stores only
			// nil-error results, and the moment the fleet heals an
			// identical request deserves the exact answer. The sentinel
			// error rides the flight to concurrent waiters too, so
			// piggybacked requests share the degraded result without any
			// of them caching it.
			return res, &degradedErr{res: res}
		}
		return res, err
	})
	csp.SetAttr("hit", cached)
	if err != nil {
		var de *degradedErr
		if errors.As(err, &de) {
			return de.res, false, nil
		}
		return pitex.Result{}, false, err
	}
	return v.(pitex.Result), cached, nil
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

// degradedErr smuggles a degraded (uncacheable) result through the
// cache's error path; SellingPoints unwraps it back into a success.
type degradedErr struct {
	res pitex.Result
}

func (e *degradedErr) Error() string {
	return "serve: degraded result (not cached)"
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
// users by activation probability, cached like a query. samples is clamped
// to MaxAudienceSamples. The returned slice may be shared with the cache
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
	// The engine's tag-set check, before admission as in SellingPoints: a
	// repeated or unknown tag must 400 without occupying a pool engine.
	if err := pitex.ValidatePrefix(tags, len(tags), s.numTags); err != nil {
		return nil, false, err
	}
	key := Key{Kind: "audience", Gen: s.generation.Load(), User: user, M: m, Samples: samples, Tags: TagsKey(tags)}
	csp, ctx := obsv.StartSpan(ctx, "cache")
	defer csp.End()
	v, cached, err := s.cache.GetOrCompute(ctx, key, func() (any, error) {
		var aud []pitex.InfluencedUser
		// Queue wait cancellable, sampling run not — see SellingPoints.
		err := s.do(ctx, "audience", func(en *pitex.Engine) error {
			qsp, _ := obsv.StartSpan(ctx, "sample")
			defer qsp.End()
			qsp.SetAttr("user", user)
			qsp.SetAttr("samples", samples)
			var qerr error
			aud, qerr = en.Audience(user, tags, m, samples)
			return qerr
		})
		return aud, err
	})
	csp.SetAttr("hit", cached)
	if err != nil {
		return nil, false, err
	}
	return v.([]pitex.InfluencedUser), cached, nil
}

// MaxBatchUsers caps the user list of one QueryBatch / batch HTTP request.
const MaxBatchUsers = 1024

// MaxTopM caps the m of a top-m query. Large m loosens best-effort
// pruning toward exhaustive enumeration (the bar becomes the m-th best),
// so an uncapped client value could pin a pool worker for the full query
// deadline per request.
const MaxTopM = 64

// QueryBatch answers one plain (user, k) query per user through the cache
// and pool, fanned out over at most PoolSize workers so a large batch
// queues instead of tripping admission control. Results come back in input
// order; per-user failures (including admission rejections when competing
// traffic has the pool saturated) are reported in BatchResult.Err without
// failing the batch.
func (s *Server) QueryBatch(ctx context.Context, users []int, k int) []pitex.BatchResult {
	// pitex.RunBatchCtx supplies the drain-on-cancellation fan-out shared
	// with Engine.QueryAllCtx: a cancelled batch marks its remaining users
	// with ctx.Err() and never leaks a worker. Each row still flows
	// through the cache and pool (admission control included) rather than
	// a raw engine clone.
	return pitex.RunBatchCtx(ctx, users, s.pool.Load().Size(), func() pitex.BatchQueryFunc {
		return func(ctx context.Context, user int) (pitex.Result, error) {
			return s.batchQuery(ctx, user, k)
		}
	})
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

// Stats snapshots every layer's counters (the pool and index snapshots
// are the current generation's).
func (s *Server) Stats() Stats {
	pool := s.pool.Load()
	var remote *distrib.Status
	if s.remote != nil {
		st := s.remote.Status()
		remote = &st
	}
	return Stats{
		Remote:           remote,
		Strategy:         s.strategy,
		Generation:       s.generation.Load(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Build:            obsv.GetBuildInfo(),
		IndexBytes:       pool.IndexBytes(),
		EffectiveEpsilon: pool.EffectiveEpsilon(),
		IndexShards:      pool.ShardStats(),
		Pool:             pool.Stats(),
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
// Queries accept &trace=1 (inline the request's span tree into the
// response) and &explain=1 (inline the estimator cost breakdown).
//
// The /admin endpoints carry no authentication; expose them only on an
// internal listener or behind a reverse proxy that does.
func (s *Server) Handler() http.Handler {
	mux := s.newMux()
	single := s.chain(route{label: "selling-points"}, s.handleSellingPoints)
	// Batches record under their own label: one 1024-user batch sample
	// would otherwise dominate the per-query tail latencies.
	batch := s.chain(route{label: "selling-points-batch"}, s.handleSellingPoints)
	mux.HandleFunc("/selling-points", func(w http.ResponseWriter, r *http.Request) {
		if rawQueryHas(r.URL.RawQuery, "users") {
			batch(w, r)
		} else {
			single(w, r)
		}
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

func (s *Server) handleSellingPoints(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	k, err := intParam(q, "k", 3)
	if err != nil {
		return err
	}
	m, err := intParam(q, "m", 1)
	if err != nil {
		return err
	}
	var prefix []int
	if pArg := q.Get("prefix"); pArg != "" {
		if prefix, err = parseIntList(pArg); err != nil {
			return fmt.Errorf("bad prefix: %w", err)
		}
	}
	if usersArg := q.Get("users"); usersArg != "" {
		if m != 1 || len(prefix) > 0 {
			return fmt.Errorf("m and prefix are not supported with users batches")
		}
		users, err := parseIntList(usersArg)
		if err != nil {
			return fmt.Errorf("bad users: %w", err)
		}
		if len(users) > MaxBatchUsers {
			return fmt.Errorf("batch of %d users exceeds limit %d", len(users), MaxBatchUsers)
		}
		batch := s.QueryBatch(r.Context(), users, k)
		type row struct {
			User      int      `json:"user"`
			Tags      []string `json:"tags,omitempty"`
			TagIDs    []int    `json:"tag_ids,omitempty"`
			Influence float64  `json:"influence,omitempty"`
			Error     string   `json:"error,omitempty"`
		}
		rows := make([]row, len(batch))
		for i, br := range batch {
			rows[i] = row{User: br.User, Tags: br.Result.TagNames,
				TagIDs: br.Result.Tags, Influence: br.Result.Influence}
			if br.Err != nil {
				rows[i] = row{User: br.User, Error: br.Err.Error()}
			}
		}
		writeJSON(w, map[string]any{"k": k, "results": rows})
		return nil
	}
	user, err := intParam(q, "user", -1)
	if err != nil || user < 0 {
		return fmt.Errorf("bad or missing user")
	}
	// Every single query runs under a trace (spans cost microseconds
	// against millisecond estimations); ?trace=1 additionally inlines the
	// finished span tree into the response.
	tr := s.tracer.StartTrace("selling-points")
	// Bind the per-query deadline to the request context up front, so
	// deadline-aware admission can shed a query whose budget cannot cover
	// the observed median latency before it occupies a pool engine.
	ctx, cancel := s.queryCtx(obsv.ContextWithTrace(r.Context(), tr))
	defer cancel()
	res, cached, err := s.SellingPoints(ctx, user, k, m, prefix)
	td := tr.Finish()
	if err != nil {
		return err
	}
	out := map[string]any{
		"user":      user,
		"k":         k,
		"tags":      res.TagNames,
		"tag_ids":   res.Tags,
		"influence": res.Influence,
		"cached":    cached,
		"elapsed":   res.Elapsed.String(),
	}
	if res.Degraded != nil {
		// Degraded-but-honest: the estimate stands, extrapolated over the
		// responding shards, and the payload says exactly how much
		// accuracy was lost and which shards were absent.
		out["degraded"] = res.Degraded
	}
	if q.Get("trace") == "1" {
		out["trace"] = td
	}
	if q.Get("explain") == "1" || q.Get("trace") == "1" {
		out["explain"] = res.Explain
	}
	if m > 1 {
		type alt struct {
			Tags      []string `json:"tags"`
			Influence float64  `json:"influence"`
		}
		alts := make([]alt, len(res.Alternatives))
		for i, a := range res.Alternatives {
			alts[i] = alt{Tags: a.TagNames, Influence: a.Influence}
		}
		out["alternatives"] = alts
	}
	writeJSON(w, out)
	return nil
}

func (s *Server) handleAudience(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	user, err := intParam(q, "user", -1)
	if err != nil || user < 0 {
		return fmt.Errorf("bad or missing user")
	}
	tr := s.tracer.StartTrace("audience")
	ctx, cancel := s.queryCtx(obsv.ContextWithTrace(r.Context(), tr))
	defer cancel()
	defer tr.Finish()
	tags, err := parseIntList(q.Get("tags"))
	if err != nil {
		return fmt.Errorf("bad tags: %w", err)
	}
	m, err := intParam(q, "m", 10)
	if err != nil {
		return err
	}
	// Default 0: Audience normalizes it to pitex.DefaultAudienceSamples,
	// so an omitted samples and an explicit 0 share one cache key.
	samples, err := intParam(q, "samples", 0)
	if err != nil {
		return err
	}
	aud, cached, err := s.Audience(ctx, user, tags, m, int64(samples))
	if err != nil {
		return err
	}
	writeJSON(w, map[string]any{"user": user, "audience": aud, "cached": cached})
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
		"elapsed":           stats.Elapsed.String(),
	})
	return nil
}

// readiness adds the offline index's footprint (index strategies) and,
// on a coordinator, the fleet's shard count to /readyz.
func (s *Server) readiness(doc map[string]any) error {
	if bytes := s.pool.Load().IndexBytes(); bytes > 0 {
		doc["index_bytes"] = bytes
	}
	if s.remote != nil {
		doc["remote_shards"] = s.remote.TotalShards()
	}
	return nil
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func intParam(q map[string][]string, name string, def int) (int, error) {
	vs, ok := q[name]
	if !ok || len(vs) == 0 || vs[0] == "" {
		return def, nil
	}
	v, err := strconv.Atoi(vs[0])
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", name, vs[0])
	}
	return v, nil
}

func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
