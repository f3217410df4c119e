package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"pitex"
	"pitex/internal/bestfirst"
	"pitex/internal/enumerate"
	"pitex/internal/graph"
	"pitex/internal/topics"
	"pitex/serve"
)

// The traced phase crosses the stack at five boundaries, outermost first:
//
//	L0  GET /selling-points over loopback HTTP        (serve.http)
//	L1  Server.SellingPoints                          (serve.call)
//	L2  Engine.QueryTopCtx on one clone               (engine.query)
//	L3  a bench-built bestfirst.Explorer              (bestfirst.query)
//	L4  the estimator under it, through a decorator   (rrindex.estimate)
//
// Each boundary owns its own copy of the state below it (its own server,
// clone or estimator), so each sees every op cold exactly once. The ops
// are replayed boundary-interleaved — op i at every boundary, then op
// i+1 — with the boundary order rotated per op: identical replays run
// back to back drift by ±10 % on a shared box, far more than the serve
// and HTTP layers cost, and only a paired, interleaved comparison
// resolves them.

// queryTimeout is ServeOptions' default QueryTimeout. The HTTP handler
// binds it to every request's context, and a deadline changes what happens
// below (deadline-aware admission, the budget header on every shard RPC),
// so the inner boundaries call with the same deadline to stay comparable.
const queryTimeout = 30 * time.Second

// httpBoundary is L0: one closed-loop client on a front door.
type httpBoundary struct {
	span string
	cl   *caller
	lat  []time.Duration // per op; zero for update ops
	ans  []uint64
}

func newHTTPBoundary(span string, front *frontend, ops int) *httpBoundary {
	return &httpBoundary{span: span, cl: newCaller(front.url),
		lat: make([]time.Duration, ops), ans: make([]uint64, ops)}
}

func (b *httpBoundary) read(t *traced, i, user int) {
	end := t.tr.request(b.span, i)
	start := time.Now()
	ans, _, bad := b.cl.get(t.ctx, user)
	b.lat[i] = time.Since(start)
	end()
	b.ans[i] = ans
	if bad {
		t.res.failed++
	}
}

func (b *httpBoundary) update(t *traced, i, upd int) {
	id := t.tr.begin("serve.apply_updates", 0, i)
	start := time.Now()
	bad := b.cl.post(t.ctx, t.p.updates[upd])
	t.updateLat = append(t.updateLat, time.Since(start))
	t.tr.end(id)
	if bad {
		t.res.failed++
	}
}

// callBoundary is L1: Server.SellingPoints on its own server.
type callBoundary struct {
	srv    *serve.Server
	lat    []time.Duration
	ans    []uint64
	cached []bool
}

func newCallBoundary(front *frontend, ops int) *callBoundary {
	return &callBoundary{srv: front.srv, lat: make([]time.Duration, ops),
		ans: make([]uint64, ops), cached: make([]bool, ops)}
}

func (b *callBoundary) read(t *traced, i, user int) {
	ctx, cancel := context.WithTimeout(t.ctx, queryTimeout)
	defer cancel()
	end := t.tr.request("serve.call", i)
	start := time.Now()
	r, cached, err := b.srv.SellingPoints(ctx, user, queryK, 1, nil)
	b.lat[i] = time.Since(start)
	end()
	if err != nil {
		t.res.failed++
		return
	}
	b.ans[i], b.cached[i] = resultHash(r.Tags, r.Influence), cached
}

func (b *callBoundary) update(t *traced, upd int) {
	if _, err := b.srv.ApplyUpdates(t.p.batches[upd].batch()); err != nil {
		t.fail(fmt.Errorf("update %d through Server.ApplyUpdates: %w", upd, err))
	}
}

// engineBoundary is L2: one engine clone, with allocation deltas around
// every query and the Explain counters summed. remote, when set, is a
// fleet's decorated estimator: its busy time per query is what the
// coordinator engine spent scattered.
type engineBoundary struct {
	en     *pitex.Engine
	remote *tracedRemote

	lat     []time.Duration // per users slot
	ans     []uint64
	explain pitex.Explain

	allocs, allocKB, requery, coordSelf []float64
}

func newEngineBoundary(en *pitex.Engine, remote *tracedRemote, users int) *engineBoundary {
	return &engineBoundary{en: en, remote: remote, lat: make([]time.Duration, users), ans: make([]uint64, users)}
}

func (b *engineBoundary) read(t *traced, i, slot, user int) {
	var before, after runtime.MemStats
	var busy0 time.Duration
	if b.remote != nil {
		busy0 = b.remote.scattered()
	}
	ctx, cancel := context.WithTimeout(t.ctx, queryTimeout)
	defer cancel()
	runtime.ReadMemStats(&before)
	end := t.tr.request("engine.query", i)
	start := time.Now()
	r, err := b.en.QueryTopCtx(ctx, user, queryK, 1)
	b.lat[slot] = time.Since(start)
	end()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.fail(fmt.Errorf("engine query user %d: %w", user, err))
		return
	}
	if r.Degraded != nil {
		t.res.failed++
	}
	b.ans[slot] = resultHash(r.Tags, r.Influence)
	b.allocs = append(b.allocs, float64(after.Mallocs-before.Mallocs))
	b.allocKB = append(b.allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	if b.remote != nil {
		b.coordSelf = append(b.coordSelf, ms(b.lat[slot]-(b.remote.scattered()-busy0)))
	}
	e, sum := r.Explain, &b.explain
	sum.FullSetsEstimated += e.FullSetsEstimated
	sum.PartialBoundsEstimated += e.PartialBoundsEstimated
	sum.PrunedByBound += e.PrunedByBound
	sum.BoundCacheHits += e.BoundCacheHits
	sum.ProbesEvaluated += e.ProbesEvaluated
	sum.ProbeCacheHits += e.ProbeCacheHits
	sum.GraphsChecked += e.GraphsChecked
	sum.GraphsPruned += e.GraphsPruned
	sum.EarlyStops += e.EarlyStops
	if t.w.strategy == pitex.StrategyDelay {
		// The same user again: DELAYMAT keeps the last user's recovered
		// RR-Graphs, so this is the query minus first-touch recovery.
		start = time.Now()
		if _, err := b.en.QueryTopCtx(ctx, user, queryK, 1); err != nil {
			t.fail(fmt.Errorf("engine requery user %d: %w", user, err))
			return
		}
		b.requery = append(b.requery, ms(time.Since(start)))
	}
}

// explorerBoundary is L3: a bench-built explorer over the bench-built
// index. dec, when set, is the decorator whose busy time is L4.
type explorerBoundary struct {
	ex  *bestfirst.Explorer
	dec *tracedEstimator

	lat, busy []time.Duration // per users slot
}

// newExplorer wires a best-first explorer the way Engine.newExplorer does.
func newExplorer(g *graph.Graph, m *topics.Model, opts pitex.Options, est bestfirst.Estimator) *bestfirst.Explorer {
	ex := bestfirst.NewExplorer(g, m, est)
	ex.CheapBounds = opts.CheapBounds
	if !opts.DisableEarlyStop {
		lss := enumerate.LogPhiK(m.NumTags(), opts.MaxK)
		if math.IsInf(lss, -1) {
			lss = 0
		}
		ex.StopLogInvDelta = math.Log(opts.Delta) + lss + math.Ln2
	}
	return ex
}

func newExplorerBoundary(t *traced, decorate bool) *explorerBoundary {
	b := &explorerBoundary{lat: make([]time.Duration, len(t.users)), busy: make([]time.Duration, len(t.users))}
	inner := t.off.estimator(t.d.opts)
	var est bestfirst.Estimator = inner
	if decorate {
		b.dec = &tracedEstimator{inner: inner, tr: t.tr}
		est = b.dec
	}
	b.ex = newExplorer(t.d.net.Graph(), t.off.model, t.d.opts, est)
	return b
}

func (b *explorerBoundary) read(t *traced, i, slot, user int) {
	var busy0 time.Duration
	end := func() {}
	if b.dec != nil {
		busy0 = b.dec.busy
		end = t.tr.request("bestfirst.query", i)
	}
	ctx, cancel := context.WithTimeout(t.ctx, queryTimeout)
	defer cancel()
	start := time.Now()
	r, err := b.ex.QueryTopCtx(ctx, graph.VertexID(user), queryK, 1)
	b.lat[slot] = time.Since(start)
	end()
	if err != nil {
		t.fail(fmt.Errorf("explorer query user %d: %w", user, err))
		return
	}
	if b.dec != nil {
		b.busy[slot] = b.dec.busy - busy0
	}
	// The engine boundary ran this user first or will run it next, on an
	// estimator in the same state; compare once both are in.
	t.explorerAns = append(t.explorerAns, explorerAnswer{slot, resultHash(r.Tags, r.Influence)})
}

// explorerAnswer is one L3 answer awaiting comparison with L2's.
type explorerAnswer struct {
	slot int
	hash uint64
}

// replay runs ops [0, T) at every boundary, interleaved. The engine and
// explorer boundaries run a user only at its first read, and only for the
// first traceUsers users.
func (t *traced) replay() error {
	var steps []func()
	for i := 0; i < t.ops && t.err == nil; i++ {
		user, upd := t.p.op(i)
		if upd >= 0 {
			t.http.update(t, i, upd)
			t.call.update(t, upd)
			continue
		}
		steps = append(steps[:0],
			func() { t.http.read(t, i, user) },
			func() { t.call.read(t, i, user) })
		if t.tracedHTTP != nil {
			steps = append(steps, func() { t.readTracedHTTP(i, user) })
		}
		if slot, ok := t.userSlot[user]; ok && t.firstOp[slot] == i {
			steps = append(steps, func() { t.engine.read(t, i, slot, user) })
			if t.raw != nil {
				steps = append(steps,
					func() { t.raw.read(t, i, slot, user) },
					func() { t.dec.read(t, i, slot, user) })
			}
		}
		for k := range steps {
			steps[(i+k)%len(steps)]()
		}
	}
	return t.err
}

// readTracedHTTP is L0 on a fleet's decorated deployment; the RPC and
// wire-byte counters are attributed to it alone (the engine boundary
// scatters through the same shard handlers).
func (t *traced) readTracedHTTP(i, user int) {
	rpcs, wire := t.tr.rpcs.Load(), t.tr.wireBytes.Load()
	busy := t.engine.remote.scattered()
	t.tracedHTTP.read(t, i, user)
	t.fleetRPCs += t.tr.rpcs.Load() - rpcs
	t.fleetWire += t.tr.wireBytes.Load() - wire
	t.scatterShare = append(t.scatterShare, ratio(float64(t.engine.remote.scattered()-busy), float64(t.tracedHTTP.lat[i])))
}
