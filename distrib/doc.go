// Package distrib is the client half of pitex's distributed serving
// plane: a scatter-gather coordinator over shard servers, each holding a
// slice of the RR-Graph index (built with rrindex.BuildShard so the
// fleet's union is byte-identical to the monolithic sharded index).
//
// Topology: shard servers are arranged in replica groups — the endpoints
// of one group all serve the same shard set, and the groups together
// partition [0, S). An estimation scatters to every group, each server
// answers with its shards' partial hits plus the θ_s/|V_s| gather
// metadata — the rows the in-process rrindex.ShardedEstimator's scan of
// that shard produces — and the client folds them through the same
// function that estimator folds its own rows with: with every group
// responding, the estimate is the in-process one by construction.
//
// Wire contract of POST /shard/estimate. A request (EstimateRequest) is
// stamped with the serving generation and takes exactly one of two
// forms; a server answers in the form it was asked in, 400 when a
// request carries both or neither.
//
//   - Per candidate: "probe" holds one serialized edge prober
//     (pitex.RemoteProbe — a per-topic weight row evaluated by Eq. 1, or
//     a prepared min(max, sum) Lemma 8 prober). The response's
//     "partials" has one rrindex.Partial per owned shard, folded by
//     rrindex.GatherPartials. RemoteEstimators without the batched
//     capability use this form, one weight row per scatter; a
//     coordinator engine no longer sends the Lemma 8 prober shape.
//   - Frontier: "frontier" holds one per-topic weight row per sibling
//     of one best-first expansion — a posterior (a full-size sibling's
//     p(z|W)) or a Lemma 8 weight vector (a partial sibling's completion
//     bound; both are evaluated by Eq. 1, so the server cannot and need
//     not tell them apart). Every row is exactly one float per topic,
//     ragged or mis-sized rows are a 400. The server decides all
//     siblings in ONE masked pass over the user's postings
//     (rrindex.PartialFrontier) and answers "frontier": one row per
//     owned shard, row[i] being that shard's partial for sibling i.
//     Rows are positional, never keyed: the client checks that a group
//     sent exactly its shards' rows at exactly the asked width (anything
//     else counts the group missing) and folds with
//     rrindex.GatherFrontierPartials, or sibling by sibling with
//     rrindex.GatherPartialsDegraded when groups are missing — each
//     sibling's estimate is what its own per-candidate scatter would
//     have returned. No stop rule crosses the wire: shards always scan
//     exhaustively, so a coordinator's answers equal the in-process
//     DisableEarlyStop engine's in either form.
//
// Both forms share one path end to end: the same generation stamp and
// 409, deadline header and admission control, panic recovery, trace
// join, fault-injection points, hedging and failover. There is no
// version negotiation: a shard server that predates the frontier form
// rejects it (400, "probe needs exactly one of …"), so upgrade shard
// servers before the coordinator.
//
// Robustness: every group fetch runs under a per-shard deadline; after
// an adaptive hedge delay (a latency-window quantile, clamped to the
// deadline) the fetch is hedged to the next replica, and a hard error
// fails over immediately. Endpoints accumulate consecutive-failure
// cooldowns so a dead replica stops being tried first. When a whole
// group misses the deadline, the gather degrades instead of failing:
// rrindex.GatherPartialsDegraded extrapolates over the responding
// shards' |V_s| and the answer carries the missing shard list and the
// achieved (weakened) ε — degraded but honest, never silently wrong.
//
// Updates ride the repair-routing delta path: the coordinator applies a
// batch locally (graph only), fans the same batch to every endpoint
// keyed by the next generation, and each server repairs only the owned
// shards the routing decision (rrindex.RepairShard) says the batch
// touched. Servers double-buffer the previous generation so queries
// in flight across the swap still answer; the client's generation stamp
// moves only after the fan-out completes.
//
// Self-healing: the client journals every applied delta body for the
// last Options.JournalHorizon generations, and a background reconciler
// (Options.ReconcileInterval) continuously compares each endpoint's
// generation to the head. An endpoint a few generations behind is
// replayed the exact missed bodies in order — because shard repair is a
// deterministic function of (state, body, generation), replay leaves the
// replica byte-identical to its siblings. An endpoint behind the journal
// horizon is healed by full-state transfer instead: the reconciler
// copies a serialized snapshot (GET /shard/resync) from an in-group
// sibling already at head and installs it on the straggler
// (POST /shard/resync) — a copy of healthy state, never a rebuild, so
// byte-identity holds there too. While lagging, an endpoint is excluded
// from scatter candidacy so queries never mix generations; heal attempts
// back off with capped exponential growth plus seeded jitter
// (Options.HealBackoff, Options.JitterSeed). Status and the Prometheus
// registration expose scatters and the siblings that rode in frontier
// batches (their ratio is the mean batch width), journal replays,
// resyncs, heal failures, and per-endpoint lag.
//
// Failure contract, end to end: a query answer is exact (all groups
// responded at one generation) or carries an explicit degraded block
// with the achieved ε — never silently wrong; and a fleet that stops
// failing converges back to the head generation without operator
// intervention or restarts. The internal/faultinject failpoints wired
// through roundTrip and the update fan-out (see cmd/pitexchaos) exist to
// prove both properties deterministically.
package distrib
