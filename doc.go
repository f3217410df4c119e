// Package pitex answers personalized social influential tag exploration
// (PITEX) queries: given a social network whose edges carry topic-aware
// influence probabilities, a tag vocabulary distributed over the topics,
// a target user u and a size k, it finds the size-k tag set W* maximizing
// u's expected influence spread E[I(u|W)] under the independent-cascade
// model.
//
// It is a from-scratch Go reproduction of Li, Tan, Fan and Zhang,
// "Discovering Your Selling Points: Personalized Social Influential Tags
// Exploration", SIGMOD 2017. The problem is NP-hard to approximate within
// any constant factor; every strategy here returns a (1-ε)/(1+ε)
// approximation with probability 1-1/δ (when sample budgets are left at
// their theoretical values).
//
// # Quick start
//
//	nb := pitex.NewNetworkBuilder(numUsers, numTopics)
//	nb.AddEdge(0, 1, pitex.TopicProb{Topic: 0, Prob: 0.4})
//	net, err := nb.Build()
//	// ...
//	model, _ := pitex.NewTagModel(numTags, numTopics)
//	model.SetTagTopic(0, 0, 0.6)
//	// ...
//	engine, err := pitex.NewEngine(net, model, pitex.Options{})
//	res, err := engine.Query(context.Background(), pitex.Request{User: 0, K: 3}) // top-3 tags for user 0
//
// # Strategies
//
// The engine supports all seven estimation strategies evaluated in the
// paper: the online samplers MC, RR and Lazy (Sec. 4-5), the tree-based
// TIM baseline, and the index-based IndexEst, IndexEst+ and DelayMat
// (Sec. 6). Index strategies pay an offline construction cost inside
// NewEngine and answer queries orders of magnitude faster. All strategies
// run under best-effort exploration (Sec. 5.2) unless disabled.
//
// DelayMat keeps only a counter per user and recovers the user's
// RR-Graphs on the first query for them (Algo 4), so its first touch of a
// user costs a recovery — a few milliseconds on a 15000-user graph,
// because lazy propagation (Sec. 5.1) drives the recovery's cascades and
// the attempts that stop at the user's own out-neighbours are jumped in
// bulk — and a repeated query costs what IndexEst costs. The first
// recovery of an index generation also builds one table over the graph
// (8 bytes per edge) that every clone shares. A recovery's randomness is derived
// from (Seed, shard, user), so a DelayMat answer does not depend on which
// clone serves it or on what that clone served before;
// Explain.RecoveryAttempts and RecoveryCascades report what it cost.
//
// # Query execution
//
// A query is a best-first search (the paper's Algo 5) over partial tag
// sets: a max-heap ordered by the Lemma 8 upper bound pops the most
// promising prefix, expands it by one tag, and admits each child only if
// its bound still beats the k-th best full set found so far. The
// children of one expansion are frontier-batched under the index
// strategies: the whole sibling group goes to the estimator in a single
// call — full-size children as their Eq. 1 posteriors, partial children
// as their Lemma 8 completion weights, whose estimate under the same
// RR-Graphs deterministically dominates every completion's, so the
// search stays an exact arg-max over estimates — which lets the index
// share per-edge probability rows across siblings
// (sampling.FrontierProbeCache) and answer up to 64 siblings per RR-graph
// traversal with uint64 membership-word bitsets; every sibling is scanned
// over the user's whole posting list, so each estimate is the paper's
// full count hits/θ·|V|. Online strategies have no index to batch
// against: they bound a partial set by its masked reachability count — a
// true upper bound on every completion's influence — memoized per
// live-topic mask for the duration of the query:
// children are bounded eagerly at expansion (so beaten branches never
// enter the heap), sibling masks resolve together in one word-parallel
// BFS, and deeper masks reuse memoized supersets as dominance bounds
// (reach counts are monotone in the mask) without any BFS at all.
// Result.Explain itemizes all of it per query — full sets estimated,
// bounds pruned, probe-cache hits, RR-graphs checked and pruned.
//
// # Performance model
//
// The approximation guarantee prices every estimate: an online
// estimation draws θ_W = λ/⌈I(u|W)⌉ samples with
// λ = (2+ε)/ε² · (ln δ + ln φ_K + ln 2), where φ_K counts the candidate
// sets the union bound must cover; the offline index samples θ RR-graphs
// the same way once, and every query afterwards only scans the target's
// posting list (Eq. 7). Query cost for index strategies is therefore
// O(|postings(u)| · scan cost), shrunk in practice by frequency pruning
// (INDEXEST+) and frontier batching. Two knobs trade the formal
// guarantee for latency or the reverse: MaxSamples / MaxIndexSamples cap
// the theoretical budgets, and DisableEarlyStop turns off the online
// samplers' Algo 2 stopping rule (index strategies never stop early, so
// it does not touch them). Measured
// numbers per PR live in BENCH_query.json; the repository-level design
// is documented in ARCHITECTURE.md.
//
// # Performance layout
//
// The offline RR-Graph index is one flat store per shard: the θ sampled
// graphs live back to back in a few pointer-free arrays, a graph is a
// 12-byte record of offsets into them, and a scan builds a graph's view
// on its stack; the per-user postings lists share a single int32 arena.
// A one-vertex graph — about three in four on a typical network — is a
// hit for its own target only, so it is kept as one bit, its 4-byte
// target and a per-user count, never as a record or a posting. An
// in-star — every member one live edge from the target, about one graph
// in six — is a hit for member u exactly when p(e|W) ≥ c on u's edge, so
// it is kept as one (edge, draw) threshold per member, which a query
// counts without a posting or a traversal (see the internal/rrindex
// package documentation for the layout and the on-disk format, which
// still lists every graph in full). Query evaluation caches p(e|W) once
// per distinct edge per estimation, and the best-first explorer reuses
// its heap, tag-set and traversal scratch across queries, so a
// steady-state query allocates almost nothing. Engine.IndexMemoryBytes is
// O(1) and exported by serve's /statsz as index_bytes; it counts every
// array, record, bitmap word, count, threshold and postings window the
// index retains, by capacity, so operators can watch the index's true
// heap share across live updates (3.0 MiB for the INDEXEST+ engine on a
// 15 000-user, 200 000-edge graph at θ = 200 000; 4.2 MiB before in-stars
// became thresholds, 8.2 MiB before one-vertex graphs became counts).
// Measured effects per PR are recorded in CHANGES.md and BENCH_query.json.
//
// # Sharding
//
// Options.IndexShards splits an index strategy's offline structure into S
// independent shards: users are hash-partitioned (stable in (user, S),
// independent of |V|), each shard samples θ_s ∝ |V_s| RR-Graphs whose
// targets lie in its partition, and every shard owns its own graph
// store, postings and DelayMat counters. A build runs on every core:
// each graph draws on its own stream derived from (Seed, shard,
// position), so results are deterministic per (Seed, IndexShards)
// whatever GOMAXPROCS is. Incremental repair parallelizes across shards
// under derived per-shard streams, and a sharded build or repair runs,
// shard by shard, the same recipe a shard server runs for its own slice. Queries scatter across shards (in
// parallel above a small work threshold, with a per-shard p(e|W) cache so
// workers never contend) and gather the per-shard coverage counts into
// Σ_s (hits_s/θ_s)·|V_s| — unbiased at every S. There is one estimator for every index strategy and every S:
// a per-shard scan policy (IndexEst, IndexEst+ or DelayMat) producing
// partial rows, and one fold over them; S=1 is the same path with one
// shard, where the sum is the paper's (hits/θ)·|V|.
//
// When to raise IndexShards: when offline build or repair latency is the
// bottleneck (each shard builds and repairs concurrently, and an update
// batch repairs only the shards whose postings contain a touched head —
// roughly 1/S of the index for a small batch), or when the single store's
// allocation granularity is too coarse. Per-query latency
// is roughly flat in S on mid-sized graphs; sharding is a build/repair/
// memory-granularity lever, not a per-query one. One caveat: DelayMat
// counters span all of |V| per shard (any user can appear in any shard's
// graphs), so that strategy's — already tiny — counter footprint grows
// with S; sharding's memory benefits apply to the materialized index,
// whose arenas genuinely partition.
//
// Serialization: every saved index or DelayMat is one file layout, a
// header plus one block per shard, so it round-trips the shard layout at
// any S. One-shard files from older binaries (a v2 index, a v1 DelayMat)
// still load, but a one-shard file written now carries the shard words
// and older binaries refuse it, as they refuse S>1 files; seed-format v1
// index files are refused with a rebuild message. A loaded index keeps
// its file's shard count regardless of Options.IndexShards, and the
// engine's Options reports that count (a 0 stays 0 for a one-shard file).
// Per-shard sizes and repair counters are exported by serve's /statsz as
// index_shards and programmatically via Engine.IndexShardStats.
//
// # Serving
//
// An Engine is not safe for concurrent use, but Clone returns a worker
// sharing the offline index with fresh estimator scratch, and Query
// observes its context between best-first expansions so a serving layer
// can cancel abandoned work and enforce deadlines. A Request carries one
// query — user, k, the m best sets, a pinned prefix — and
// Request.Validate is its one argument check, which a serving layer runs
// before admission. The pitex/serve subpackage assembles these into a production
// query-serving subsystem — an engine-clone pool with admission control, a
// sharded result cache with in-flight request deduplication, and an
// HTTP/JSON surface with latency histograms (pool → cache → estimator; see
// the serve package documentation for the architecture and for which
// strategy to serve with). ServeOptions in this package holds its knobs;
// cmd/pitexserve is the ready-made entry point:
//
//	engine, _ := pitex.NewEngine(net, model, pitex.Options{Strategy: pitex.StrategyIndexPruned})
//	srv, _ := serve.New(engine, pitex.ServeOptions{})
//	http.ListenAndServe(":8437", srv.Handler())
//
// # Distributed serving
//
// When one machine can't hold or rebuild the index, the sharded layout
// runs as a fleet: cmd/pitexshard servers each build and own a slice of
// the IndexShards-way partition and answer per-shard probe work over
// HTTP (a JSON control plane beside one binary frame for every
// estimate), returning raw partials (hits, θ_s, |V_s|) rather than
// estimates; a coordinator — NewRemoteEngine plus serve.NewCoordinator,
// or cmd/pitexserve -shards — runs the same best-first exploration as
// the monolith but scatters the estimations to the fleet (via the
// pitex/distrib client) and gathers the partials with the very fold the
// in-process estimator applies to its own shards' rows, so all-healthy
// answers are byte-identical to the in-process sharded engine at the
// same seeds by construction. Every estimation is one per-topic weight
// row (a tag set's posterior, or a partial set's Lemma 8 bound weights);
// RemoteProbe carries one, and RemoteEstimator is the narrow interface a
// transport must satisfy. One that also implements
// RemoteFrontierEstimator receives each round of the exploration — the
// children of several expansions, up to 64 rows — as a single scatter
// instead of one per row (the distrib client sends a single row as a
// frontier of width 1), and shards always scan exhaustively. Answers are
// in canonical order — influence descending, then sorted tag IDs
// ascending, ties included — which makes them independent of how the
// exploration was batched, so a coordinator answers exactly as the
// in-process engine, whose rounds are one expansion each; only the
// search counters differ.
//
// Robustness: every scatter runs under one shard deadline, shipped to
// the shards as a budget; replicas within a shard group are hedged after the
// group's observed latency quantile, with immediate failover on hard
// errors and exponential endpoint cooldowns. When a whole group is
// unreachable the gather re-normalizes over the responding |V_s| and
// the Result carries a DegradedCoverage block reporting the missing
// shards and the achieved ε = ε·√(θ_total/θ_resp) — honest about
// precision instead of silently wrong; degraded answers are never
// cached. Update batches route as deltas: the coordinator repairs its
// local engine, fans the batch to every shard server's /shard/update
// (each repairs only its own slice under a generation-derived RNG
// stream, idempotent on retry), and bumps the cluster generation that
// keys caches; shard servers double-buffer the previous generation so
// in-flight queries drain across the swap.
//
// # Live graph updates
//
// The paper's offline structures assume a frozen network; production
// social graphs mutate constantly. Engine.ApplyUpdates absorbs a batched
// UpdateBatch — edge insertions and deletions, topic-probability changes,
// new-user appends — by incrementally repairing the index instead of
// rebuilding it: only the RR-Graphs whose sampled edges are touched by
// the batch are re-sampled (DelayMat counters are recounted, which makes
// an updated DELAYMAT engine equal to NewEngine over the updated
// network), which is 10x+ faster than NewEngine for batches touching ≤1%
// of edges
// (BenchmarkIncrementalRepair against BenchmarkFullRebuild). An
// RR-Graph can change only if it contains the head vertex of a mutated
// edge, and a sharded index repairs only the shards that own a touched
// head. The result is a NEW engine of the next Generation; the receiver
// is not modified, shares every untouched RR-Graph with it, and keeps
// answering over the pre-update network, so a serving layer can hot-swap
// with zero downtime. Package serve does so behind POST /admin/update:
// it swaps in a pool of the new generation, lets the old pool drain, and
// keys its caches by generation.
//
// The repair also names the users whose answers the batch can change
// (UpdateStats.Dirty, counted in DirtyUsers). On an index strategy a
// user's answer reads only the RR-Graphs containing it, θ_s and |V_s|, so
// only the members of the re-sampled graphs, before and after
// re-sampling, can move; every other user answers byte for byte as
// before, and serve carries its cached answers across the swap. Every
// user is dirty on a batch that adds users, on DELAYMAT, on the online
// strategies and on a remote engine.
//
// # Statistical contract of repair
//
// A repaired index is distribution-equivalent to a fresh rebuild over the
// updated network: untouched RR-Graphs would have been re-sampled to an
// identically distributed outcome (their generation never probes a mutated
// edge), invalidated ones are re-sampled from the new network, and vertex
// additions re-balance both θ (Eq. 7 scales with |V|) and the uniform
// target distribution by re-targeting existing graphs with probability
// ΔV/|V_new| and appending the θ growth. Estimates therefore keep the
// engine's (1-ε)/(1+ε) guarantees at every generation.
//
// # When to prefer a full rebuild
//
// Incremental repair wins when batches touch a small fraction of the
// network — the common case for a social graph absorbing follows and
// unfollows. Prefer a full rebuild (NewEngine over the updated network)
// when:
//
//   - a batch touches hub vertices contained in most RR-Graphs, so the
//     invalidated fraction approaches 1 and repair degenerates into a
//     slower rebuild;
//   - many deletions have accumulated: deleted edges are tombstoned (IDs
//     stay stable for the index), so the edge array never shrinks until a
//     rebuild compacts it;
//   - the tag model or topic count changed — that is a different model,
//     not a graph delta, and no index sample survives it.
//
// UpdateStats.RepairedFraction reports the invalidated share per batch; a
// serving layer can watch it and schedule an offline rebuild when it
// stays high.
//
// # Observability
//
// Query results carry Result.Explain, the per-query EXPLAIN: which
// strategy ran, how many full sets and partial bounds the best-first
// loop estimated, what was pruned (unsupported prefixes, Lemma 8
// bounds), frontier expansions, samples drawn, edge probes evaluated
// with the probe-cache hit ratio, and RR-graphs checked versus pruned.
// The pitex/obsv subpackage supplies the plumbing shared by the serving
// binaries: a dependency-free metrics registry with Prometheus text
// exposition, nil-safe request tracing with cross-process propagation
// (X-Pitex-Trace), build-info reporting, and slog helpers that stamp
// records with the active trace ID. Package serve wires both into
// /metrics, /tracez and the ?trace=1 / ?explain=1 query parameters.
//
// # Analytics sweeps
//
// Beyond per-query serving, the pitex/analytics subpackage runs the
// whole-population workload: one query per user (or per cohort member),
// reduced into leaderboards — the top-N users by E[I(u|W*)] and the
// tag-frequency histogram across optimal selling points. Sweeps are
// chunked over fresh engine clones, which makes the output deterministic
// per (Seed, Options) regardless of worker count, and checkpointed to
// versioned JSON so a killed sweep resumes to byte-identical output.
// Engine.QueryAll is the one-shot, in-memory variant (a cancellable batch
// fan-out, the one serve's batches and the sweep's chunks also use);
// analytics.Run adds persistence and analytics.Manager adds background
// jobs with progress, ETA, cancellation and generation pinning. Package
// serve exposes jobs at POST /admin/jobs (pinned to the serving
// generation and reported stale after a hot-swap); cmd/pitexsweep is the
// batch CLI, whose -resume flag continues an interrupted run:
//
//	lb, _ := analytics.Run(ctx, engine, analytics.Options{
//		K: 3, TopN: 100, CheckpointPath: "sweep.ckpt", Resume: true,
//	})
//	_ = lb.WriteJSON(os.Stdout)
package pitex
