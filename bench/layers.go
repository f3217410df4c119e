package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"pitex"
	"pitex/analytics"
	"pitex/distrib"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// perLayer lists every per-layer metric with its unit, in report order.
// Every traced run emits all of them; a metric whose layer the workload
// does not cross reads 0. BENCHMARK.json carries the same names (the smoke
// test holds the two lists together).
var perLayer = []struct{ name, unit string }{
	{"datasets.generate_s", "s"},
	{"rrindex.build_s", "s"}, {"rrindex.index_mb", "MB"}, {"rrindex.save_ms", "ms"},
	{"rrindex.load_ms", "ms"}, {"rrindex.file_mb", "MB"},
	{"serve.http_ms", "ms"}, {"serve.call_ms", "ms"}, {"serve.http_self_ms", "ms"},
	{"serve.self_ms", "ms"}, {"serve.cached_call_ns", "ns"}, {"serve.cache_hit_ratio", "ratio"},
	{"serve.shed_share", "ratio"}, {"serve.contention_ratio", "ratio"},
	{"engine.query_ms", "ms"}, {"engine.self_ms", "ms"}, {"engine.clone_ms", "ms"},
	{"engine.allocs_per_query", "count"}, {"engine.alloc_kb_per_query", "KB"}, {"engine.requery_ms", "ms"},
	{"bestfirst.query_ms", "ms"}, {"bestfirst.self_ms", "ms"},
	{"bestfirst.full_sets_per_query", "count"}, {"bestfirst.bounds_per_query", "count"},
	{"bestfirst.pruned_by_bound_per_query", "count"}, {"bestfirst.bound_cache_hits_per_query", "count"},
	{"bestfirst.frontier_calls_per_query", "count"}, {"bestfirst.frontier_width_mean", "count"},
	{"rrindex.estimate_ms", "ms"}, {"rrindex.recover_share", "ratio"}, {"rrindex.partial_ms", "ms"},
	{"rrindex.graphs_checked_per_query", "count"}, {"rrindex.graphs_pruned_per_query", "count"},
	{"rrindex.early_stops_per_query", "count"},
	{"sampling.probe_row_ns", "ns"}, {"sampling.probes_per_query", "count"},
	{"sampling.probe_cache_hit_ratio", "ratio"},
	{"distrib.scatter_ms", "ms"}, {"serve.shard_handler_ms", "ms"}, {"distrib.wire_self_ms", "ms"},
	{"engine.coordinator_self_ms", "ms"}, {"distrib.scatter_share", "ratio"},
	{"distrib.scatters_per_query", "count"},
	{"distrib.rpcs_per_query", "count"}, {"distrib.wire_kb_per_query", "KB"},
	{"distrib.hedges", "count"}, {"distrib.failovers", "count"}, {"distrib.degraded", "count"},
	{"serve.apply_updates_ms", "ms"}, {"engine.apply_updates_ms", "ms"}, {"rrindex.repair_ms", "ms"},
	{"serve.swap_ms", "ms"}, {"serve.refill_misses_per_update", "count"}, {"rrindex.repaired_fraction", "ratio"},
	{"analytics.users_per_s", "1/s"}, {"analytics.chunk_ms", "ms"},
	{"serve.open_p50_ms", "ms"}, {"serve.open_p95_ms", "ms"}, {"harness.open_late_ms_max", "ms"},
	{"harness.samples", "count"}, {"harness.trace_overhead_share", "ratio"},
}

// layerResult is the outcome of a workload's traced phase.
type layerResult struct {
	metrics   map[string]metric
	attempted int
	// failed counts answers that differed between boundaries (or from the
	// reference engine), plus transport failures.
	failed int
	tr     *tracer
}

// traced carries the traced phase's state between its stages.
type traced struct {
	ctx context.Context
	w   *workload
	d   *deployment
	p   *plan
	tr  *tracer
	res *layerResult
	off *offlineIndex
	err error // first error a boundary step hit; ends the replay

	ops      int   // T: the HTTP and SellingPoints boundaries replay ops [0, T)
	users    []int // distinct users replayed at the engine and explorer boundaries
	firstOp  []int // op index of each user's first read (its request id)
	userSlot map[int]int

	http, tracedHTTP *httpBoundary
	call             *callBoundary
	engine           *engineBoundary
	raw, dec         *explorerBoundary
	explorerAns      []explorerAnswer

	updateLat            []time.Duration // POST /admin/update latencies seen over HTTP
	fleetRPCs, fleetWire int64
	tracedClient         *distrib.Client // the decorated fleet's coordinator client
	scatterShare         []float64       // per traced request: time inside scatters ÷ its HTTP latency
}

func (t *traced) set(name string, v float64, n int) {
	m := t.res.metrics[name]
	m.Value, m.N = v, n
	t.res.metrics[name] = m
}

func (t *traced) get(name string) float64 { return t.res.metrics[name].Value }

func (t *traced) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// runTraced runs the workload's traced phase: the boundary-interleaved
// single-client replay (see boundaries.go), then the two-client
// comparison, and the direct measurements of the offline, update, sweep
// and wire layers.
func runTraced(ctx context.Context, w *workload, seed uint64) (layerResult, error) {
	res := layerResult{metrics: make(map[string]metric, len(perLayer)), tr: newTracer()}
	for _, pl := range perLayer {
		res.metrics[pl.name] = metric{Unit: pl.unit}
	}
	d, err := deploy(ctx, w, nil)
	if err != nil {
		return res, err
	}
	defer d.Close()
	t := &traced{ctx: ctx, w: w, d: d, tr: res.tr, res: &res, p: newPlan(w, seed, d.net)}
	t.ops = min(w.traceOps, t.p.limit())
	t.users, t.firstOp = t.p.distinctUsers(w.traceUsers)
	t.userSlot = make(map[int]int, len(t.users))
	for i, u := range t.users {
		t.userSlot[u] = i
	}
	t.set("datasets.generate_s", d.generateS, 1)
	t.set("harness.samples", float64(t.ops), 1)
	res.attempted = t.ops
	if t.off, err = t.offline(); err != nil {
		return res, err
	}

	// One server (or fleet) per boundary that reaches a cache.
	if err := warm(ctx, d.front, t.p); err != nil {
		return res, err
	}
	t.http = newHTTPBoundary("serve.http", d.front, t.ops)
	callFront, done, err := t.fresh()
	if err != nil {
		return res, err
	}
	defer done()
	t.call = newCallBoundary(callFront, t.ops)
	if w.fleet {
		td, err := deploy(ctx, w, t.tr)
		if err != nil {
			return res, err
		}
		defer td.Close()
		t.tracedHTTP = newHTTPBoundary("serve.http.traced", td.front, t.ops)
		t.engine = newEngineBoundary(td.engine.Clone(), td.traced, len(t.users))
		t.tracedClient = td.client
	} else {
		t.engine = newEngineBoundary(d.engine.Clone(), nil, len(t.users))
		t.raw, t.dec = newExplorerBoundary(t, false), newExplorerBoundary(t, true)
	}
	if err := t.replay(); err != nil {
		return res, err
	}
	t.summarize()
	if err := t.cachedCall(); err != nil {
		return res, err
	}
	t.compareAnswers()
	if err := t.contention(); err != nil {
		return res, err
	}
	if w.fleet {
		if err := t.fleetLayers(); err != nil {
			return res, err
		}
	}
	if w.updateEvery > 0 {
		if err := t.updates(t.off); err != nil {
			return res, err
		}
	}
	if w.cohort > 0 {
		if err := t.sweep(); err != nil {
			return res, err
		}
	}
	if w.openLoop > 0 {
		if err := t.openLoop(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// offlineIndex is the bench-built copy of the engine's offline structure:
// the same rrindex build the engine runs, from the same options, so the
// benchmark can put its own explorer and decorated estimator on top.
type offlineIndex struct {
	index *rrindex.ShardedIndex
	delay *rrindex.ShardedDelayMat
	build rrindex.BuildOptions
	model *topics.Model
}

// estimator builds the estimator Engine.newEstimator builds.
func (o *offlineIndex) estimator(opts pitex.Options) innerEstimator {
	switch {
	case o.delay != nil:
		return rrindex.NewShardedDelayEstimator(o.delay, rng.New(opts.Seed+7919)) // Engine.newEstimator's stream
	case opts.Strategy == pitex.StrategyIndex:
		return rrindex.NewShardedEstimator(o.index)
	default:
		return rrindex.NewShardedPrunedEstimator(o.index)
	}
}

// offline measures the rrindex offline layer: build, footprint, and the
// save → load round trip through a buffer; plus Engine.Clone.
func (t *traced) offline() (*offlineIndex, error) {
	d := t.d
	g := d.net.Graph()
	off := &offlineIndex{}
	var err error
	if off.build, err = pitex.IndexBuildOptions(d.model, d.opts); err != nil {
		return nil, err
	}
	// The explorer wants the internal tag model; the text format
	// round-trips float64 exactly.
	var mb bytes.Buffer
	if err := d.model.Write(&mb); err != nil {
		return nil, err
	}
	if off.model, err = topics.Read(&mb); err != nil {
		return nil, err
	}
	id := t.tr.begin("rrindex.build", 0, 0)
	start := time.Now()
	var footprint int64
	if d.opts.Strategy == pitex.StrategyDelay {
		off.delay, err = rrindex.BuildShardedDelayMat(g, off.build, d.opts.IndexShards)
	} else {
		off.index, err = rrindex.BuildSharded(g, off.build, d.opts.IndexShards)
	}
	if err != nil {
		return nil, err
	}
	t.set("rrindex.build_s", time.Since(start).Seconds(), 1)
	t.tr.end(id)

	var buf bytes.Buffer
	start = time.Now()
	if off.delay != nil {
		footprint = off.delay.MemoryFootprint()
		err = rrindex.WriteShardedDelayMat(&buf, off.delay)
	} else {
		footprint = off.index.MemoryFootprint()
		err = rrindex.WriteSharded(&buf, off.index)
	}
	if err != nil {
		return nil, err
	}
	t.set("rrindex.save_ms", ms(time.Since(start)), 1)
	t.set("rrindex.index_mb", float64(footprint)/(1<<20), 1)
	t.set("rrindex.file_mb", float64(buf.Len())/(1<<20), 1)
	start = time.Now()
	if off.delay != nil {
		_, err = rrindex.ReadShardedDelayMat(bytes.NewReader(buf.Bytes()), g)
	} else {
		_, err = rrindex.ReadSharded(bytes.NewReader(buf.Bytes()), g)
	}
	if err != nil {
		return nil, err
	}
	t.set("rrindex.load_ms", ms(time.Since(start)), 1)

	const clones = 9
	var cl []float64
	for i := 0; i < clones; i++ {
		start = time.Now()
		_ = d.engine.Clone()
		cl = append(cl, ms(time.Since(start)))
	}
	t.set("engine.clone_ms", median(cl), clones)
	return off, nil
}

// fresh returns a front door in the workload's starting state: the warmed
// one for hot-cache (hits leave it unchanged); otherwise another server
// over the same prototype engine — an empty result cache and fresh pool
// clones (so DELAYMAT's per-clone recovery is cold again) without
// rebuilding the index, and at generation 0, because updates applied
// through a server never touch the prototype; for a fleet, a whole new
// deployment, since shard servers and coordinator come up together.
func (t *traced) fresh() (*frontend, func(), error) {
	switch {
	case t.w.fleet:
		d, err := deploy(t.ctx, t.w, nil)
		if err != nil {
			return nil, nil, err
		}
		return d.front, d.Close, nil
	case t.w.hotKeys > 0 && t.w.updateEvery == 0:
		return t.d.front, func() {}, nil
	}
	f, err := newFrontend(t.d.engine, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := warm(t.ctx, f, t.p); err != nil {
		f.close()
		return nil, nil, err
	}
	return f, f.close, nil
}

// readLatencies picks the read ops' latencies (ms) out of a per-op slice.
func readLatencies(p *plan, lat []time.Duration) []float64 {
	var out []float64
	for i, l := range lat {
		if _, upd := p.op(i); upd < 0 {
			out = append(out, ms(l))
		}
	}
	return out
}

// summarize turns the replay's per-op and per-user timings into the
// boundary metrics. A layer's self time is its span minus the child span
// it covers, paired op by op (or user by user) and then medianed.
func (t *traced) summarize() {
	httpMs, callMs := readLatencies(t.p, t.http.lat), readLatencies(t.p, t.call.lat)
	t.set("serve.http_ms", median(httpMs), len(httpMs))
	t.set("serve.call_ms", median(callMs), len(callMs))
	var httpSelf, serveSelf []float64
	for i := 0; i < t.ops; i++ {
		user, upd := t.p.op(i)
		if upd >= 0 {
			continue
		}
		httpSelf = append(httpSelf, ms(t.http.lat[i]-t.call.lat[i]))
		// A hit has no child span; a miss ran one engine query, timed at
		// the engine boundary when this is the user's first read.
		switch slot, ok := t.userSlot[user]; {
		case t.call.cached[i]:
			serveSelf = append(serveSelf, ms(t.call.lat[i]))
		case ok && t.firstOp[slot] == i:
			serveSelf = append(serveSelf, ms(t.call.lat[i]-t.engine.lat[slot]))
		}
	}
	t.set("serve.http_self_ms", median(httpSelf), len(httpSelf))
	t.set("serve.self_ms", median(serveSelf), len(serveSelf))

	e := t.engine
	n := len(t.users)
	q := float64(n)
	t.set("engine.query_ms", median(durationsMs(e.lat)), n)
	t.set("engine.allocs_per_query", mean(e.allocs), n)
	t.set("engine.alloc_kb_per_query", mean(e.allocKB), n)
	x := e.explain
	t.set("bestfirst.full_sets_per_query", float64(x.FullSetsEstimated)/q, n)
	t.set("bestfirst.bounds_per_query", float64(x.PartialBoundsEstimated)/q, n)
	t.set("bestfirst.pruned_by_bound_per_query", float64(x.PrunedByBound)/q, n)
	t.set("bestfirst.bound_cache_hits_per_query", float64(x.BoundCacheHits)/q, n)
	t.set("sampling.probes_per_query", float64(x.ProbesEvaluated)/q, n)
	t.set("sampling.probe_cache_hit_ratio", ratio(float64(x.ProbeCacheHits), float64(x.ProbesEvaluated)), n)
	t.set("rrindex.graphs_checked_per_query", float64(x.GraphsChecked)/q, n)
	t.set("rrindex.graphs_pruned_per_query", float64(x.GraphsPruned)/q, n)
	t.set("rrindex.early_stops_per_query", float64(x.EarlyStops)/q, n)
	if len(e.requery) > 0 {
		t.set("engine.requery_ms", median(e.requery), len(e.requery))
		t.set("rrindex.recover_share", 1-ratio(t.get("engine.requery_ms"), t.get("engine.query_ms")), len(e.requery))
	}
	if len(e.coordSelf) > 0 {
		t.set("engine.coordinator_self_ms", median(e.coordSelf), len(e.coordSelf))
	}
	if t.tracedHTTP != nil {
		var over []float64
		for i := range t.tracedHTTP.lat {
			over = append(over, ratio(float64(t.tracedHTTP.lat[i]), float64(t.http.lat[i]))-1)
		}
		t.set("harness.trace_overhead_share", median(over), len(over))
	}
	if t.raw == nil {
		return
	}
	var engineSelf, bfSelf, over []float64
	for s := range t.users {
		engineSelf = append(engineSelf, ms(e.lat[s]-t.raw.lat[s]))
		bfSelf = append(bfSelf, ms(t.dec.lat[s]-t.dec.busy[s]))
		over = append(over, ratio(float64(t.dec.lat[s]), float64(t.raw.lat[s]))-1)
	}
	dec := t.dec.dec
	t.set("engine.self_ms", median(engineSelf), n)
	t.set("bestfirst.query_ms", median(durationsMs(t.raw.lat)), n)
	t.set("bestfirst.self_ms", median(bfSelf), n)
	t.set("rrindex.estimate_ms", median(durationsMs(t.dec.busy)), n)
	t.set("harness.trace_overhead_share", median(over), n)
	t.set("bestfirst.frontier_calls_per_query", float64(dec.frontierCalls)/q, n)
	t.set("bestfirst.frontier_width_mean", ratio(float64(dec.frontierWidth), float64(dec.frontierCalls)), int(dec.frontierCalls))

	// Probe rows: what one frontier pays to turn its sibling posteriors
	// into per-edge probability rows, over a fixed edge prefix.
	g := t.d.net.Graph()
	fc := sampling.NewFrontierProbeCache(g.NumEdges())
	edges := min(g.NumEdges(), 4096)
	var rowNs []float64
	for _, c := range dec.captured {
		start := time.Now()
		fc.Begin(g, c)
		for e := 0; e < edges; e++ {
			fc.Row(graph.EdgeID(e))
		}
		rowNs = append(rowNs, float64(time.Since(start))/float64(edges))
	}
	t.set("sampling.probe_row_ns", median(rowNs), len(rowNs)*edges)
}

// cachedCall times Server.SellingPoints on a key that is certainly
// cached, in batches between clock reads: one cached call is well under a
// microsecond, the same order as reading the clock.
func (t *traced) cachedCall() error {
	user, _ := t.p.op(0) // op 0 is a read on every plan
	const batches, perBatch = 21, 200
	var ns []float64
	for b := 0; b <= batches; b++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			if _, _, err := t.call.srv.SellingPoints(t.ctx, user, queryK, 1, nil); err != nil {
				return fmt.Errorf("cached call: %w", err)
			}
		}
		if b > 0 { // batch 0 may have had to fill the key after a hot-swap
			ns = append(ns, float64(time.Since(start))/perBatch)
		}
	}
	t.set("serve.cached_call_ns", median(ns), batches*perBatch)
	return nil
}

// compareAnswers holds the boundaries to one answer per request. The
// explorer boundaries share the engine boundary's estimator state (same
// index, same RNG seed, same user order), so those three must agree
// exactly for every strategy. HTTP and SellingPoints must agree op by op
// and, on generation-0 reads, with the engine boundary — except for
// DELAYMAT, whose answer depends on which pool clone served the request:
// there the serve boundaries are only checked for well-formed, undegraded
// answers here, and the measured passes hold them to the (ε, δ) band.
func (t *traced) compareAnswers() {
	for _, a := range t.explorerAns {
		if a.hash != t.engine.ans[a.slot] {
			t.res.failed++
		}
	}
	if !t.w.deterministic() {
		return
	}
	firstUpdate := t.ops
	if ue := t.w.updateEvery; ue > 0 {
		firstUpdate = min(t.ops, ue/2)
	}
	for i := 0; i < t.ops; i++ {
		user, upd := t.p.op(i)
		if upd >= 0 {
			continue
		}
		if t.http.ans[i] != t.call.ans[i] || (t.tracedHTTP != nil && t.tracedHTTP.ans[i] != t.http.ans[i]) {
			t.res.failed++
			continue
		}
		if slot, ok := t.userSlot[user]; ok && i < firstUpdate && t.engine.ans[slot] != t.call.ans[i] {
			t.res.failed++
		}
	}
}

// contention replays the same ops with the two closed-loop clients of a
// measured pass and compares against the single-client replay; the
// server's own counters give the cache and admission ratios.
func (t *traced) contention() error {
	f, done, err := t.fresh()
	if err != nil {
		return err
	}
	defer done()
	before := f.srv.Stats()
	pr := runPass(t.ctx, f, t.p, numClients, t.ops, 0)
	after := f.srv.Stats()
	var lat []float64
	updates := 0
	for _, s := range pr.samples {
		switch {
		case s.update >= 0:
			updates++
			t.updateLat = append(t.updateLat, s.lat)
		default:
			lat = append(lat, ms(s.lat))
		}
		if s.failed {
			t.res.failed++
		}
	}
	t.res.attempted += len(pr.samples)
	t.set("serve.contention_ratio", ratio(median(lat), t.get("serve.http_ms")), len(lat))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	deduped := float64(after.Cache.Deduped - before.Cache.Deduped)
	t.set("serve.cache_hit_ratio", ratio(hits, hits+misses+deduped), len(lat))
	// Pool counters restart with every hot-swap, so after an update these
	// are the last generation's; a shed request is also a failed op above.
	t.set("serve.shed_share", ratio(float64(after.Pool.Rejected+after.Pool.Timeouts), float64(len(lat))), len(lat))
	if updates > 0 {
		t.set("serve.refill_misses_per_update", misses/float64(updates), updates)
	}
	if len(t.updateLat) > 0 {
		t.set("serve.apply_updates_ms", median(durationsMs(t.updateLat)), len(t.updateLat))
	}
	return nil
}

// updateChains is how many times the direct update chains are repeated;
// the HTTP replays post each batch only twice.
const updateChains = 3

// updates measures the write path below the HTTP handler on the batches
// the HTTP replays posted: Engine.ApplyUpdates on a lockstep engine chain,
// and ShardedIndex.Repair alone on the bench-built index.
func (t *traced) updates(off *offlineIndex) error {
	n := 0
	for i := 0; i < t.ops; i++ {
		if _, upd := t.p.op(i); upd >= 0 {
			n++
		}
	}
	var engineMs, repairMs, fraction []float64
	for rep := 0; rep < updateChains; rep++ {
		en, net, idx := t.d.engine, t.d.net, off.index
		for j := 0; j < n; j++ {
			b := t.p.batches[j]
			id := t.tr.begin("engine.apply_updates", 0, j)
			start := time.Now()
			next, stats, err := en.ApplyUpdates(b.batch())
			engineMs = append(engineMs, ms(time.Since(start)))
			t.tr.end(id)
			if err != nil {
				return fmt.Errorf("engine update %d: %w", j, err)
			}
			en = next
			fraction = append(fraction, stats.RepairedFraction())

			newNet, info, err := net.ApplyBatch(b.batch())
			if err != nil {
				return fmt.Errorf("network update %d: %w", j, err)
			}
			bo := off.build
			bo.Seed = pitex.RepairSeed(t.d.opts.Seed, uint64(j+1))
			id = t.tr.begin("rrindex.repair", 0, j)
			start = time.Now()
			nextIdx, _, err := idx.Repair(newNet.Graph(), bo, info.TouchedHeads, info.AddedVertices)
			repairMs = append(repairMs, ms(time.Since(start)))
			t.tr.end(id)
			if err != nil {
				return fmt.Errorf("index repair %d: %w", j, err)
			}
			net, idx = newNet, nextIdx
		}
	}
	t.set("engine.apply_updates_ms", median(engineMs), len(engineMs))
	t.set("rrindex.repair_ms", median(repairMs), len(repairMs))
	t.set("rrindex.repaired_fraction", mean(fraction), len(fraction))
	t.set("serve.swap_ms", t.get("serve.apply_updates_ms")-t.get("engine.apply_updates_ms"), len(engineMs))
	return nil
}

// sweep runs one analytics.Run over a cohort of the plan's first users.
func (t *traced) sweep() error {
	const workers, chunk = 2, 16
	cohort, _ := t.p.distinctUsers(t.w.cohort)
	chunks := 0
	id := t.tr.begin("analytics.run", 0, 0)
	start := time.Now()
	prev := start
	lb, err := analytics.Run(t.ctx, t.d.engine, analytics.Options{
		K: queryK, TopN: 20, Workers: workers, ChunkSize: chunk, Users: cohort,
		OnProgress: func(analytics.Progress) {
			// Called under the collector lock, so completions are
			// serialized: a chunk span runs from the previous completion.
			now := time.Now()
			t.tr.add("analytics.chunk", id, chunks, prev, now)
			chunks++
			prev = now
		},
	})
	wall := time.Since(start)
	t.tr.end(id)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if lb.UsersSwept != len(cohort) || lb.Errors > 0 {
		t.res.failed += len(cohort) - lb.UsersSwept + lb.Errors
	}
	t.set("analytics.users_per_s", float64(len(cohort))/wall.Seconds(), len(cohort))
	// Mean busy time per chunk: wall time of the run, times the workers
	// that shared it, over the chunks completed.
	t.set("analytics.chunk_ms", ratio(ms(wall)*float64(min(workers, max(chunks, 1))), float64(chunks)), chunks)
	return nil
}

// openLoopRate is the probe's fixed request rate, well under the ~130
// cold queries per second two cores sustain.
const openLoopRate = 80

// openLoop sends cold queries on a fixed schedule regardless of
// completions and times each from its due time. Informational: on a small
// box the generator itself runs late, which is why the lateness is
// reported next to the percentiles and no end-to-end metric rests on it.
func (t *traced) openLoop() error {
	f, done, err := t.fresh()
	if err != nil {
		return err
	}
	defer done()
	n := min(t.w.openLoop, t.p.limit()-t.ops)
	if n <= 0 {
		return nil
	}
	lat := make([]float64, n)
	var failed, lateMax int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / openLoopRate)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := int64(time.Since(due)); late > lateMax {
			lateMax = late
		}
		user, _ := t.p.op(t.ops + i) // past the replayed prefix: still cold
		wg.Add(1)
		go func(i, user int) {
			defer wg.Done()
			_, _, bad := newCaller(f.url).get(t.ctx, user)
			l := ms(time.Since(due))
			mu.Lock()
			lat[i] = l
			if bad {
				failed++
			}
			mu.Unlock()
		}(i, user)
	}
	wg.Wait()
	t.res.failed += int(failed)
	t.res.attempted += n
	t.set("serve.open_p50_ms", quantile(lat, 0.50), n)
	t.set("serve.open_p95_ms", quantile(lat, 0.95), n)
	t.set("harness.open_late_ms_max", ms(time.Duration(lateMax)), n)
	return nil
}

// fleetLayers derives the wire-layer metrics from the spans the decorated
// deployment recorded under the traced HTTP boundary, checks the engine
// boundary against an in-process three-shard engine, and replays the
// captured scatters against bench-built shard indexes.
func (t *traced) fleetLayers() error {
	spans := t.tr.snapshot()
	name := make(map[int]string, len(spans))
	for _, s := range spans {
		name[s.ID] = s.Name
	}
	slowest := make(map[int]time.Duration)
	var handlerMs, scatterMs, wireSelf []float64
	for _, s := range spans {
		if s.Name == "serve.shard_handler" {
			handlerMs = append(handlerMs, ms(s.dur()))
			if s.dur() > slowest[s.Parent] {
				slowest[s.Parent] = s.dur()
			}
		}
	}
	for _, s := range spans {
		if s.Name == "distrib.scatter" && name[s.Parent] == t.tracedHTTP.span {
			scatterMs = append(scatterMs, ms(s.dur()))
			wireSelf = append(wireSelf, ms(s.dur()-slowest[s.ID]))
		}
	}
	q := float64(t.ops)
	t.set("distrib.scatter_ms", median(scatterMs), len(scatterMs))
	t.set("serve.shard_handler_ms", median(handlerMs), len(handlerMs))
	t.set("distrib.wire_self_ms", median(wireSelf), len(wireSelf))
	t.set("distrib.scatter_share", median(t.scatterShare), len(t.scatterShare))
	t.set("distrib.scatters_per_query", float64(len(scatterMs))/q, t.ops)
	t.set("distrib.rpcs_per_query", float64(t.fleetRPCs)/q, t.ops)
	t.set("distrib.wire_kb_per_query", float64(t.fleetWire)/1024/q, t.ops)
	// Every scatter of the decorated fleet is over by now; its client's
	// own counters say whether any was hedged, failed over or degraded.
	st := t.tracedClient.Status()
	t.set("distrib.hedges", float64(st.Hedges), 1)
	t.set("distrib.failovers", float64(st.Failovers), 1)
	t.set("distrib.degraded", float64(st.DegradedAnswers), 1)
	t.res.failed += int(st.DegradedAnswers)

	ref, err := referenceEngine(t.d)
	if err != nil {
		return err
	}
	rc := ref.Clone()
	for slot, u := range t.users {
		r, err := rc.QueryTopCtx(t.ctx, u, queryK, 1)
		if err != nil {
			return fmt.Errorf("reference query user %d: %w", u, err)
		}
		if resultHash(r.Tags, r.Influence) != t.engine.ans[slot] {
			t.res.failed++
		}
	}

	// What a shard handler does per request, without HTTP: a fresh pruned
	// estimator's Partial on the shard's index.
	g := t.d.net.Graph()
	var partialMs []float64
	for s := 0; s < fleetShards; s++ {
		idx, users, err := rrindex.BuildShard(g, t.off.build, fleetShards, s)
		if err != nil {
			return err
		}
		for _, c := range t.engine.remote.scatters() {
			prober, err := c.probe.Prober(g)
			if err != nil {
				return err
			}
			start := time.Now()
			rrindex.NewPrunedEstimator(idx).Partial(s, users, graph.VertexID(c.user), prober)
			partialMs = append(partialMs, ms(time.Since(start)))
		}
	}
	t.set("rrindex.partial_ms", median(partialMs), len(partialMs))
	return nil
}
