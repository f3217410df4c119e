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
// Wire contract of POST /shard/estimate. There is one estimate form: a
// request (EstimateRequest), stamped with the serving generation, is a
// binary frame (Content-Type application/x-pitex-frontier) carrying one
// per-topic weight row per sibling of one best-first expansion — a
// posterior (a full-size sibling's p(z|W)) or a Lemma 8 weight vector (a
// partial sibling's completion bound; both are evaluated by Eq. 1, so the
// server cannot and need not tell them apart). A single estimate
// (Client.EstimateRemote) is a frontier of width 1. The server decides
// all rows in ONE masked pass over the user's postings
// (rrindex.PartialFrontier) and answers with a frame of one row per owned
// shard, row[i] being that shard's partial for sibling i. A body of any
// other Content-Type is a 400.
//
// The frame (frame.go is the only code that knows it; little-endian, no
// padding, CRC-32C Castagnoli over every byte before it):
//
//	request frame                  response frame
//	 0  "PFQ" 0x01                  0  "PFR" 0x02
//	 4  user           i64          4  generation     u64
//	12  generation     u64         12  rows           u32 (owned shards)
//	20  rows           u32         16  width          u32 (siblings)
//	24  topics         u32         20  rows×width     partial records
//	28  rows×topics    f64 weights  …  crc            u32
//	 …  crc            u32
//
//	partial record, 48 bytes: shard, hits, samples, contained, theta and
//	users as i64 at 0, 8, … 40
//
// Both decoders reject a foreign magic or version byte (a frame of the
// right kind but another version is refused with both versions named),
// declared counts whose product is not exactly the payload's cell count
// (zero counts included; compared as counts, so nothing overflows, and
// before anything is sized from them), a checksum mismatch, and NaN or
// ±Inf anywhere; the response decoder also rejects a record no scan
// produces — anything but 0 ≤ hits ≤ samples ≤ contained ≤ theta with
// shard and users non-negative — and the encoder refuses the same. The
// server adds topics ≠ the served topic count, the body
// cap and a missing Content-Length (all 400), the client a group that
// did not send exactly its shards' rows at exactly the asked width —
// rows are positional, never keyed — and counts such a group missing.
// Complete rows fold through rrindex.GatherFrontierPartials, incomplete
// ones sibling by sibling through rrindex.GatherPartialsDegraded: each
// sibling's estimate is what its own width-1 scatter would have
// returned. Shards always scan exhaustively, as every index estimator
// does, so a coordinator's answers equal the in-process engine's
// whatever the batch width.
//
// JSON remains where it costs nothing that matters: the control plane
// (info, update, resync) runs per update or per dial, not 24
// times a query, its bodies are journalled and replayed as opaque bytes,
// and an operator can read and curl it. There is no version negotiation.
// A shard server that predates the frame reads it as malformed JSON
// (400), so upgrade shard servers before the coordinator. Since the JSON
// probe form was dropped, a coordinator works with any shard server that
// speaks the frame, because it sends nothing else; and a shard server
// rejects only the JSON probe, which a frame-era coordinator sent just
// for RemoteEstimator decorators that hide the frontier capability — its
// engine's own scatters were already frames. Response version 0x02
// dropped the 0x01 record's always-zero stop fields, so a coordinator
// and its shard servers must run builds of the same response version:
// across a mismatch every response is refused, and a 0x02 coordinator's
// error names both versions.
//
// Robustness: every scatter runs under one Options.ShardDeadline, whose
// budget each attempt ships to its shard (DeadlineHeader); after an
// adaptive hedge delay (a latency-window quantile, clamped to the
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
// keyed by the next generation, and each server repairs its owned shards
// with rrindex.RepairShard — the very per-shard repair an in-process
// ShardedIndex.Repair runs for each of its shards — which re-samples only
// the shards the batch touched and shares the rest. Servers double-buffer the previous generation so queries
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
// registration expose scatters and the weight rows they carried, a
// width-1 scatter counting 1 (their ratio is the mean batch width),
// journal replays,
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
