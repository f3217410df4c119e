// Package serve is the production query-serving subsystem for pitex: it
// turns one offline-constructed Engine into an HTTP service that survives
// heavy concurrent traffic.
//
// # Architecture
//
// A request flows cache → admission → estimator:
//
//	HTTP handler
//	   │  parse + validate (pitex.Request.Validate, against the
//	   │  serving generation, before any engine is taken)
//	   ▼
//	Cache (sharded LRU, keyed on (kind, user, k, m, tags))
//	   │  hit  → answer in O(1), no estimation
//	   │  miss → in-flight deduplication: concurrent identical queries
//	   │         collapse into ONE estimation (singleflight), so a hot
//	   │         user going viral costs one query, not thousands
//	   ▼
//	Gate (one per server, for its whole life), then an engine clone
//	   │  borrowed from the serving generation (PoolSize clones over one
//	   │  shared offline index): at most PoolSize in service plus
//	   │  QueueDepth waiting; excess load is shed immediately with
//	   │  ErrOverloaded, queued waiters time out with ErrQueueTimeout
//	   ▼
//	Engine.Query (per-query deadline observed between best-first
//	   expansions)
//
// Both servers run one request pipeline. Every route is registered
// through one handler chain that observes its latency label, evaluates
// its fault point, recovers a panic into a 500 and maps a returned error
// to its status. Admission is one path in both servers: enter the
// server's gate, load the generation, borrow scratch from that
// generation's stack (engine clones on a Server, estimator sets on a
// ShardServer), run, and return it to the same stack. The gate is a slot
// per worker, a bounded queue with a timed wait, and a close latch, and
// each server keeps one for its whole life. It refuses a closed gate,
// then an already-ended caller context, then load beyond the bound,
// before taking a slot. A
// deadline-aware check sheds a request whose remaining budget is below
// the route's observed median latency before it reaches the gate. The
// /healthz and /readyz probes are the pipeline's too: both answer 503
// "closed" once a server is closed, and /readyz adds only each server's
// readiness fields (index bytes and remote shards; owned shards, or 503
// while they build).
//
// Every stage is observable: per-endpoint/per-strategy latency histograms,
// cache hit/miss/dedup counters and gate occupancy (Stats.Pool, whose
// counters run across hot-swaps) are exported as JSON on /statsz and
// programmatically via Server.Stats.
//
// # Endpoints
//
//	/selling-points?user=12&k=3[&m=5][&prefix=1,4][&users=1,2,3][&trace=1][&explain=1]
//	/audience?user=12&tags=1,4[&m=10][&samples=5000][&trace=1]
//	   (rows {"user","probability"}; an audience reaching nobody is [],
//	   whether the posterior is undefined or the cascades die at the user;
//	   it was null for an undefined posterior, and rows were keyed
//	   "User" and "Probability")
//	/admin/update (POST, JSON)
//	/admin/jobs (POST to start a population sweep, GET to list)
//	/admin/jobs/{id} (GET progress/ETA/leaderboard, DELETE to cancel)
//	/healthz, /readyz
//	/statsz
//	/metrics (Prometheus text format)
//	/tracez (JSON ring of recent traces)
//
// A ShardServer (cmd/pitexshard) serves the fleet protocol instead, whose
// wire contract is package distrib's. It holds the shards it owns of
// one RR-Graph index, in the container an engine holds all of them in
// (rrindex.ShardedIndex), so a fleet serves the index strategies
// (INDEXEST, INDEXEST+; pitex.Strategy.Distributes) and nothing else:
//
//	/shard/estimate (POST; a binary frame of weight rows, Content-Type
//	   application/x-pitex-frontier, answered with a frame; any other
//	   body — the old JSON probe included — is a 400)
//	/shard/info (GET, JSON)
//	/shard/update (POST, JSON), /shard/resync (GET and POST, JSON)
//	/healthz, /readyz, /statsz, /metrics, /tracez
//
// # Observability
//
// The metrics plane is unified in Metrics: the latency histograms plus an
// obsv.Registry of counters and gauges (admission, cache traffic,
// update and repair counts, estimator work totals, build info, and — on
// a coordinator — the distrib client's scatter/hedge/failover/degraded
// counters), all rendered together on /metrics in Prometheus text format.
//
// Every query runs under a lightweight trace (package obsv): the handler
// opens cache → admission → query spans (cache → admission → sample on
// /audience), a coordinator adds, per estimation, sibling probe-marshal,
// scatter (parent of the per-endpoint shard-rpc spans) and gather spans,
// and the trace ID propagates to shard servers over the X-Pitex-Trace
// header so the same ID shows up in their /tracez rings. The last traces
// are kept in a ring on /tracez; ?trace=1 on either GET route inlines the
// finished span tree into the response, and ?explain=1 on
// /selling-points attaches the engine's per-query cost
// breakdown (Result.Explain: probes evaluated, probe-cache hit ratio,
// RR-graphs checked and pruned, frontier expansions, samples drawn). On
// index and coordinator engines partial_bounds_estimated counts the
// partial sets bounded as rows of the frontier batch, bound_cache_hits
// is always 0, and a coordinator's remote_siblings counts those bound
// rows together with the candidate sets.
// When no trace is attached the span helpers are nil-receiver no-ops, so
// un-traced serving pays nothing. A traced request pays for its spans,
// not for their export: the trace is sealed into the /tracez ring as it
// stands and rendered to JSON only when /tracez or ?trace=1 reads it, so
// a cache hit's one-span trace costs 432 B in 4 allocations and a shard
// estimate's 648 B in 5 (obsv's BenchmarkTrace).
//
// A warmed hit on either GET route costs about the lookup it wraps. Both
// run one read path: the handler reads its parameters from the raw query
// in one pass (no url.Values map), the key is looked up before the
// per-query deadline is armed (a stored hit never needs the timer; a
// miss or a follower of an identical in-flight computation waits under
// QueryTimeout, over HTTP or through SellingPoints and Audience called
// directly), and the handler encodes a typed answer document whose
// fields are declared in sorted key order, so its bytes are those of a
// map[string]any with the same keys. Through Handler() into an httptest
// recorder a hit takes 16 allocations on /selling-points and 17 on
// /audience (18 and 19 under -race), the recorder's own included;
// TestSellingPointsHitAllocs and TestAudienceHitAllocs hold both at 20
// or fewer.
//
// # Population sweeps
//
// POST /admin/jobs starts a whole-population (or cohort) analytics sweep
// — one query per user, reduced to an influence leaderboard and a
// tag-frequency histogram (package pitex/analytics). Jobs run on their
// own engine clones, so query admission and latency are untouched, and
// each job is pinned to the engine generation it
// started on: after a hot-swap it finishes on the pre-swap generation —
// never mixing generations — and its status reports stale so the
// operator knows to re-run. Jobs support server-side checkpoint files
// and resume (see the analytics package documentation); over HTTP,
// checkpoint files are confined to the operator-configured
// ServeOptions.SweepCheckpointDir, and requests naming one are rejected
// when no directory is configured. DELETE cancels a running job or
// removes a finished one; finished jobs beyond a retention cap are
// evicted oldest-first.
//
// # Live updates and zero-downtime hot-swap
//
// The serving stack stays up while the social graph changes. POST
// /admin/update (or Server.ApplyUpdates) carries a batch of mutations —
// edge inserts/deletes, probability changes, new users — and flows
// update batch → incremental repair → generation swap:
//
//	pitex.Engine.ApplyUpdates repairs the offline index incrementally
//	   │  (only RR-Graphs touching mutated edges are re-sampled; see the
//	   │  pitex package documentation for the guarantees)
//	   ▼
//	the repaired engine and PoolSize clones of it are published as the
//	   │  new generation in one atomic store; the gate stays
//	   ▼
//	a request that loaded the old generation finishes on its clones,
//	which are garbage once the last such request returns
//
// The swap replaces the engines, not the admission machinery: PoolSize
// bounds the engines running at once across a swap too, and the gate's
// served, rejected and timeout counters (Stats.Pool, pitex_pool_*_total)
// never fall. A shard server swaps the same way: a generation is its
// owned index plus a stack of estimator sets, built on first use.
//
// No stale result is ever served: cache keys carry the engine generation,
// taken from the same load as the engine that computes the answer (an
// answer computed by generation g is unreachable from generation g+1,
// even if an in-flight computation lands after the swap) and the
// whole cache is purged on swap so retired entries don't crowd out live
// ones. Queries never observe a half-applied batch — they see the old
// engine or the new one, atomically. Watch repaired_fraction in the
// /admin/update response: when batches repeatedly repair a large share
// of the index (hub-heavy churn), schedule an offline rebuild and
// restart from a -save-index file instead.
//
// The /admin endpoints are unauthenticated; bind them to an internal
// listener or gate them behind a reverse proxy.
//
// # Sharding
//
// Engines built with pitex.Options.IndexShards > 1 serve from a
// hash-partitioned offline index: estimations scatter across shards and
// gather into the same unbiased answer, update batches repair only the
// shards owning touched heads (concurrently), and /statsz exposes the
// layout as index_shards — one row per shard with its user count, θ,
// graph count, singletons (how many of those graphs have one vertex and
// are kept as a per-user count, not a graph), in_stars (how many have
// every member one edge from the target and are kept as per-member
// thresholds), index_bytes share and the
// cumulative graphs_repaired across update generations. Watch the repair counters to spot skew: a
// shard absorbing most repairs hosts the churn-heavy hubs, the signal to
// schedule an offline rebuild (or raise IndexShards) before repair cost
// approaches rebuild cost.
//
// The determinism contract is unchanged by sharding — answers are
// deterministic per (seed, IndexShards), so caching stays exact. Saved
// indexes round-trip their shard layout (one file layout at every S; see
// internal/rrindex), and a loaded index keeps the file's shard count. pitexserve's -index-shards flag sets the knob.
//
// # Choosing a strategy for serving
//
// The engine's Options.Strategy decides the latency profile:
//
//   - StrategyIndexPruned (IndexEst+) is the serving default: it pays an
//     offline RR-Graph construction once, then answers interactively; the
//     edge-cut filter-and-verify layer prunes most candidate sets without
//     touching samples.
//   - StrategyDelay (DelayMat) serves from a per-user-counter index that is
//     orders of magnitude smaller — pick it when the RR-Graph index does
//     not fit in memory.
//   - StrategyIndex (IndexEst) is IndexEst+ without the cut filter;
//     simpler, slower on dense models.
//   - Online strategies (Lazy, MC, RR, TIM) need no offline phase but pay
//     a full sampling run per estimation — fine for low traffic, not for
//     interactive serving. A mutating network is no longer a reason to
//     serve online: index strategies absorb updates incrementally (see
//     "Live updates" below).
//
// Whatever the strategy, the cache flattens the cost of repeated queries:
// answers for a (user, k) pair are deterministic per engine seed, so
// caching is exact, not approximate.
package serve
