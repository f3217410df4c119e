package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/faultinject"
	"pitex/internal/graph"
	"pitex/internal/rrindex"
	"pitex/obsv"
)

// ShardConfig places one ShardServer in a cluster layout: the server
// builds and serves the Owned shards of an S = TotalShards sharded index
// (rrindex.BuildShard), byte-identical to the corresponding slices of a
// monolithic engine built with IndexShards = TotalShards and the same
// options.
type ShardConfig struct {
	// TotalShards is the layout's S. Defaults to max(1, opts.IndexShards).
	TotalShards int
	// Owned lists the shard ids this server holds; default all of [0,S).
	// Replica servers use identical Owned sets.
	Owned []int
	// Workers bounds concurrent estimations (default 4); QueueDepth and
	// QueueTimeout bound the admission queue behind them (defaults 64,
	// 100ms). The gate enforcing them is the coordinator pool's own code,
	// so a shard sheds, times out and drains exactly as the pool does.
	Workers      int
	QueueDepth   int
	QueueTimeout time.Duration
}

func (c ShardConfig) withDefaults(opts pitex.Options) ShardConfig {
	if c.TotalShards < 1 {
		c.TotalShards = opts.IndexShards
	}
	if c.TotalShards < 1 {
		c.TotalShards = 1
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	return c
}

// shardState is one generation of a shard server's serving state. It is
// immutable once published; updates build a new one and keep the
// predecessor in prev (double buffering), so queries stamped with the
// pre-update generation keep answering across the swap window while the
// coordinator fans the update out.
type shardState struct {
	net        *pitex.Network
	generation uint64
	// slices holds the owned index slices, parallel to ShardConfig.Owned.
	slices []indexSlice
	prev   *shardState
	// pool holds this generation's reusable estimators. Held by pointer:
	// double-buffering copies shardState by value, and the copy must keep
	// answering from the same pool.
	pool *estimatorPool
}

// indexSlice is one owned shard: its RR-Graph index and its |V_s|.
type indexSlice struct {
	idx   *rrindex.Index
	users int
}

// newShardState returns a serving state for one generation with an empty
// slot per owned shard.
func newShardState(net *pitex.Network, generation uint64, owned int) *shardState {
	return &shardState{
		net:        net,
		generation: generation,
		slices:     make([]indexSlice, owned),
		pool:       &estimatorPool{},
	}
}

// shardEstimator is what /shard/estimate needs of a shard's scan policy;
// rrindex.Estimator and rrindex.PrunedEstimator both provide it.
type shardEstimator interface {
	PartialFrontier(shard, users int, u graph.VertexID, posteriors [][]float64) []rrindex.Partial
}

// estimatorSet is one request's scratch: one estimator per owned shard,
// parallel to ShardConfig.Owned, and the buffer a framed request's weight
// rows decode into.
type estimatorSet struct {
	ests []shardEstimator
	rows distrib.FrontierScratch
}

// estimatorPool keeps one generation's idle estimator sets. Estimators
// are scratch state (probe caches sized by the edge count, a user's cut
// lists) that is expensive to build and not safe to share, so a request
// borrows a whole set for its estimation step and returns it: the caches
// survive across the many RPCs of one query, sets are built lazily on
// first use, at most Workers exist (borrowing happens behind the
// admission gate), and all of them die with the generation's state.
type estimatorPool struct {
	mu   sync.Mutex
	idle []*estimatorSet
}

// get borrows an idle set, most recently returned first so consecutive
// RPCs of one query find their user's cut lists warm; nil when none is
// idle and the caller must build one.
func (p *estimatorPool) get() *estimatorSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	set := p.idle[n-1]
	p.idle = p.idle[:n-1]
	return set
}

func (p *estimatorPool) put(set *estimatorSet) {
	p.mu.Lock()
	p.idle = append(p.idle, set)
	p.mu.Unlock()
}

// ShardServer serves a slice of the distributed RR-index over the
// /shard/* HTTP protocol (see package distrib for the wire contract). It
// holds RR-Graph index slices only, so it serves the strategies that
// distribute (pitex.Strategy.Distributes) and nothing else.
// The index slices build asynchronously — the server answers /healthz
// and /readyz immediately, /readyz turning 200 (and /shard/info Ready)
// only once every owned shard is built. All methods are safe for
// concurrent use.
type ShardServer struct {
	serverCore
	opts pitex.Options
	cfg  ShardConfig
	// baseSeed is the defaulted engine seed; repair seeds derive from it
	// per generation exactly as Engine.ApplyUpdates derives them.
	baseSeed  uint64
	buildOpts rrindex.BuildOptions

	state    atomic.Pointer[shardState]
	ready    chan struct{}
	buildErr error // written before ready closes, read only after

	updateMu sync.Mutex
	// gate admits estimations; closing it drains the server.
	gate *gate
}

// NewShardServer starts building the owned shards of the layout and
// returns immediately; use WaitReady (or poll /readyz) before serving
// estimates. net, model and opts must match the cluster's — every shard
// server and the in-process reference engine derive the identical
// rrindex build parameters from them (pitex.IndexBuildOptions).
func NewShardServer(net *pitex.Network, model *pitex.TagModel, opts pitex.Options, cfg ShardConfig) (*ShardServer, error) {
	if net == nil || model == nil {
		return nil, fmt.Errorf("serve: nil network or model")
	}
	if !opts.Strategy.Distributes() {
		return nil, fmt.Errorf("serve: strategy %v does not distribute", opts.Strategy)
	}
	bo, err := pitex.IndexBuildOptions(model, opts)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(opts)
	if len(cfg.Owned) == 0 {
		for s := 0; s < cfg.TotalShards; s++ {
			cfg.Owned = append(cfg.Owned, s)
		}
	}
	owned := append([]int(nil), cfg.Owned...)
	slices.Sort(owned)
	owned = slices.Compact(owned)
	for _, s := range owned {
		if s < 0 || s >= cfg.TotalShards {
			return nil, fmt.Errorf("serve: owned shard %d outside [0,%d)", s, cfg.TotalShards)
		}
	}
	cfg.Owned = owned
	ss := &ShardServer{
		opts:      opts,
		cfg:       cfg,
		baseSeed:  bo.Seed,
		buildOpts: bo,
		ready:     make(chan struct{}),
		gate:      newGate(cfg.Workers, cfg.QueueDepth, cfg.QueueTimeout),
	}
	ss.initCore(opts.Strategy.String(), ss.Generation, ss.gate.open, ss.readiness)
	ss.registerMetrics()
	go ss.build(net)
	return ss, nil
}

// registerMetrics wires the shard server's serving state into its
// /metrics exposition.
func (ss *ShardServer) registerMetrics() {
	reg := ss.metrics.Registry()
	reg.GaugeFunc("pitex_shard_inflight", "Estimations currently holding a worker slot.",
		func() float64 { return float64(ss.gate.inUse.Load()) })
	reg.GaugeFunc("pitex_shard_waiting", "Requests queued for a worker slot.",
		func() float64 { return float64(ss.gate.waiting.Load()) })
	reg.CounterFunc("pitex_shard_rejected_total", "Estimations shed by admission control beyond the queue bound.",
		func() int64 { return ss.gate.rejected.Load() })
	reg.CounterFunc("pitex_shard_timeouts_total", "Estimations that timed out waiting for a worker slot.",
		func() int64 { return ss.gate.timeouts.Load() })
	reg.GaugeFunc("pitex_shards_owned", "Shard slices this server holds.",
		func() float64 { return float64(len(ss.cfg.Owned)) })
	reg.GaugeFunc("pitex_index_effective_epsilon", "Error budget this server's slices deliver: Eq. 7 solved for ε at their Σθ_s and Σ|V_s| (0 while building).",
		func() float64 { return ss.effectiveEpsilon(ss.state.Load()) })
}

// effectiveEpsilon is Eq. 7 solved for ε over the owned slices of st, or
// 0 before they are built.
func (ss *ShardServer) effectiveEpsilon(st *shardState) float64 {
	if st == nil {
		return 0
	}
	var theta int64
	users := 0
	for _, sl := range st.slices {
		theta += sl.idx.Theta()
		users += sl.users
	}
	if theta == 0 {
		return 0
	}
	return ss.buildOpts.EffectiveEpsilon(users, theta)
}

func (ss *ShardServer) build(net *pitex.Network) {
	defer close(ss.ready)
	st := newShardState(net, 0, len(ss.cfg.Owned))
	for i, s := range ss.cfg.Owned {
		sl := &st.slices[i]
		var err error
		if sl.idx, sl.users, err = rrindex.BuildShard(net.Graph(), ss.buildOpts, ss.cfg.TotalShards, s); err != nil {
			ss.buildErr = fmt.Errorf("serve: building shard %d: %w", s, err)
			return
		}
	}
	ss.state.Store(st)
}

// Close marks the server draining — it closes the admission gate, so
// subsequent estimate, update and resync requests are refused with 503 —
// and blocks until the background shard build (if still running) has
// finished, so no goroutine outlives the call. Safe to call more than
// once.
func (ss *ShardServer) Close() {
	ss.gate.close()
	<-ss.ready
}

// WaitReady blocks until every owned shard is built (returning any build
// error) or ctx ends.
func (ss *ShardServer) WaitReady(ctx context.Context) error {
	select {
	case <-ss.ready:
		return ss.buildErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Generation returns the serving generation (0 until ready).
func (ss *ShardServer) Generation() uint64 {
	if st := ss.state.Load(); st != nil {
		return st.generation
	}
	return 0
}

// stateFor resolves the serving state a generation-stamped request runs
// against: the current generation or, during an update swap window, the
// double-buffered previous one.
func (ss *ShardServer) stateFor(gen uint64, hasGen bool) (*shardState, error) {
	st := ss.state.Load()
	if st == nil {
		if ss.buildErr != nil {
			return nil, ss.buildErr
		}
		return nil, fmt.Errorf("serve: shards still building")
	}
	if !hasGen || gen == st.generation {
		return st, nil
	}
	if st.prev != nil && st.prev.generation == gen {
		return st.prev, nil
	}
	return nil, fmt.Errorf("serve: generation %d not served (current %d)", gen, st.generation)
}

// Handler returns the shard-server HTTP surface:
//
//	POST /shard/estimate  — partial hits for every weight row of a frame
//	                        (any other body is a 400)
//	GET  /shard/info      — layout metadata + readiness
//	POST /shard/update    — generation-keyed incremental repair
//	GET  /shard/resync    — full-state snapshot (anti-entropy source)
//	POST /shard/resync    — install a snapshot taken from a replica
//	GET  /healthz         — process liveness
//	GET  /readyz          — serving readiness (shards built)
//	GET  /statsz
//
// Like the coordinator's /admin endpoints, /shard/update carries no
// authentication; keep the listener internal.
func (ss *ShardServer) Handler() http.Handler {
	mux := ss.newMux()
	mux.HandleFunc("POST /shard/estimate", ss.chain(route{"shard-estimate", faultinject.PointShardEstimate, ss.gate}, ss.handleEstimate))
	mux.HandleFunc("GET /shard/info", ss.chain(route{}, ss.handleInfo))
	mux.HandleFunc("POST /shard/update", ss.chain(route{"shard-update", faultinject.PointShardUpdate, ss.gate}, ss.handleUpdate))
	resync := route{"shard-resync", faultinject.PointShardResync, ss.gate}
	mux.HandleFunc("GET /shard/resync", ss.chain(resync, ss.handleResyncGet))
	mux.HandleFunc("POST /shard/resync", ss.chain(resync, ss.handleResyncPost))
	mux.HandleFunc("/statsz", ss.handleStatsz)
	return mux
}

// maxEstimateBody bounds /shard/estimate bodies (posteriors are one
// float per topic; 4 MiB covers hundreds of thousands of topics).
const maxEstimateBody = 4 << 20

func (ss *ShardServer) handleEstimate(w http.ResponseWriter, r *http.Request) error {
	// Adopt the coordinator's trace ID when the request carries one, so
	// this server's /tracez correlates with the coordinator's span tree;
	// un-headered requests get a local trace.
	tid, _, _ := obsv.ParseTraceHeader(r.Header.Get(obsv.TraceHeader))
	str := ss.tracer.Join(tid, "shard-estimate")
	defer str.Finish()
	req, err := decodeEstimate(r)
	if err != nil {
		return fmt.Errorf("bad estimate body: %w", err)
	}
	st, err := ss.stateFor(req.Generation, true)
	if err != nil {
		return withStatus(http.StatusConflict, err)
	}
	if req.User < 0 || req.User >= st.net.NumUsers() {
		return fmt.Errorf("user %d outside [0,%d)", req.User, st.net.NumUsers())
	}
	if err := req.Validate(st.net.NumTopics()); err != nil {
		return err
	}
	// Deadline-aware admission: the coordinator forwards its remaining
	// budget in a header (context deadlines do not cross HTTP), which
	// becomes this request's deadline; a budget already below this
	// server's observed median latency is shed before it takes a slot.
	ctx := r.Context()
	if n, perr := strconv.ParseInt(r.Header.Get(distrib.DeadlineHeader), 10, 64); perr == nil && n > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(n)*time.Millisecond)
		defer cancel()
	}
	if err := ss.admitBudget(ctx, "shard-estimate/"+ss.strategy); err != nil {
		return err
	}
	asp := str.StartSpan("acquire")
	asp.SetAttr("waiting", ss.gate.waiting.Load())
	err = ss.gate.enter(ctx)
	asp.End()
	if err != nil {
		return err
	}
	defer ss.gate.leave()
	psp := str.StartSpan("partials")
	psp.SetAttr("user", req.User)
	psp.SetAttr("generation", st.generation)
	psp.SetAttr("owned", len(ss.cfg.Owned))
	psp.SetAttr("width", req.Width())
	defer psp.End()
	return writeEstimate(w, ss.estimate(st, &req), corrupted(r))
}

// decodeEstimate reads an estimate request's frame into a buffer of
// exactly its declared length. A body of any other Content-Type — the
// JSON probe a pre-frame coordinator, or a decorator hiding the frontier
// capability from one, would send — is refused unread.
func decodeEstimate(r *http.Request) (req distrib.EstimateRequest, err error) {
	if ctype := r.Header.Get("Content-Type"); ctype != distrib.FrontierContentType {
		return req, fmt.Errorf("content type %q, want %s", ctype, distrib.FrontierContentType)
	}
	if r.ContentLength < 0 || r.ContentLength > maxEstimateBody {
		return req, fmt.Errorf("frame needs a Content-Length of at most %d", maxEstimateBody)
	}
	frame := make([]byte, r.ContentLength)
	if _, err = io.ReadFull(r.Body, frame); err != nil {
		return req, err
	}
	return distrib.DecodeFrontierRequest(frame)
}

// estimate is the estimation step of /shard/estimate: every owned shard's
// partial hits for the request — one positional row per shard, every
// weight row decided in a single masked pass over every graph. It runs
// on an estimator set borrowed from the generation's pool, so in the
// steady state it allocates only the response. A panicking estimator
// unwinds to the handler chain, and its set — scratch in an unknown
// state — is not returned.
func (ss *ShardServer) estimate(st *shardState, req *distrib.EstimateRequest) (resp distrib.EstimateResponse) {
	set := st.pool.get()
	if set == nil {
		set = &estimatorSet{ests: make([]shardEstimator, len(st.slices))}
		for i, sl := range st.slices {
			if ss.opts.Strategy == pitex.StrategyIndexPruned {
				set.ests[i] = rrindex.NewPrunedEstimator(sl.idx)
			} else {
				set.ests[i] = rrindex.NewEstimator(sl.idx)
			}
		}
	}
	resp.Generation = st.generation
	u := graph.VertexID(req.User)
	frontier := req.FrontierRows(&set.rows)
	for i, s := range ss.cfg.Owned {
		resp.Frontier = append(resp.Frontier,
			set.ests[i].PartialFrontier(s, st.slices[i].users, u, frontier))
	}
	st.pool.put(set)
	return resp
}

// writeEstimate writes an estimate response frame with its Content-Length
// declared, so the client reads it into one exactly-sized buffer. It also
// carries the corrupt-payload fault: when a faultinject rule asked for
// corruption, the encoded body is bit-flipped before it leaves,
// exercising client-side decode hardening.
func writeEstimate(w http.ResponseWriter, resp distrib.EstimateResponse, corrupt bool) error {
	data, err := distrib.EncodeFrontierResponse(resp)
	if err != nil {
		return withStatus(http.StatusInternalServerError, err)
	}
	if corrupt {
		data = faultinject.CorruptBytes(data)
	}
	w.Header().Set("Content-Type", distrib.FrontierContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
	return nil
}

func (ss *ShardServer) handleInfo(w http.ResponseWriter, r *http.Request) error {
	st := ss.state.Load()
	if st == nil {
		if ss.buildErr != nil {
			return withStatus(http.StatusInternalServerError, ss.buildErr)
		}
		writeJSON(w, distrib.InfoResponse{
			TotalShards: ss.cfg.TotalShards,
			Strategy:    ss.strategy,
			Ready:       false,
		})
		return nil
	}
	writeJSON(w, ss.infoFor(st))
	return nil
}

func (ss *ShardServer) infoFor(st *shardState) distrib.InfoResponse {
	info := distrib.InfoResponse{
		Generation:  st.generation,
		TotalShards: ss.cfg.TotalShards,
		TotalUsers:  st.net.NumUsers(),
		Strategy:    ss.strategy,
		Ready:       true,
	}
	for i, s := range ss.cfg.Owned {
		sl := st.slices[i]
		info.Shards = append(info.Shards, distrib.ShardInfo{
			Shard: s, Users: sl.users, Theta: sl.idx.Theta(), Graphs: sl.idx.NumGraphs(),
		})
	}
	return info
}

// errBuilding refuses a state-changing request before the owned shards
// are built: there is no state yet to update or snapshot.
var errBuilding = withStatus(http.StatusServiceUnavailable, errors.New("serve: shards still building"))

func (ss *ShardServer) handleUpdate(w http.ResponseWriter, r *http.Request) error {
	var req distrib.UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("bad update body: %w", err)
	}
	return ss.advance(w, func(st *shardState) (*shardState, any, error) {
		if req.Generation == st.generation {
			// Idempotent retry of an already-applied fan-out.
			return nil, distrib.UpdateResponse{Generation: st.generation}, nil
		}
		if req.Generation != st.generation+1 {
			return nil, nil, withStatus(http.StatusConflict,
				fmt.Errorf("serve: update for generation %d, serving %d", req.Generation, st.generation))
		}
		batch, err := distrib.RequestToBatch(req)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		newNet, info, err := st.net.ApplyBatch(batch)
		if err != nil {
			return nil, nil, err
		}
		bo := ss.buildOpts
		bo.Seed = pitex.RepairSeed(ss.baseSeed, req.Generation)
		next := newShardState(newNet, req.Generation, len(ss.cfg.Owned))
		resp := distrib.UpdateResponse{Generation: req.Generation}
		for i, s := range ss.cfg.Owned {
			sl := &next.slices[i]
			var rs rrindex.RepairStats
			sl.idx, rs, sl.users, err = st.slices[i].idx.RepairShard(
				newNet.Graph(), bo, ss.cfg.TotalShards, s, info.TouchedHeads, info.AddedVertices)
			if err != nil {
				return nil, nil, withStatus(http.StatusInternalServerError, err)
			}
			resp.GraphsRepaired += rs.Invalidated + rs.Retargeted
			resp.GraphsAppended += rs.Appended
		}
		resp.ElapsedNs = int64(time.Since(start))
		return next, resp, nil
	})
}

// advance runs step under the update lock against the serving state,
// publishes the successor it returns (nil: nothing to publish), then
// writes its response. Publishing double-buffers exactly one generation
// back: queries in flight across the coordinator's swap window still
// resolve, without growing an unbounded chain.
func (ss *ShardServer) advance(w http.ResponseWriter, step func(st *shardState) (*shardState, any, error)) error {
	ss.updateMu.Lock()
	defer ss.updateMu.Unlock()
	st := ss.state.Load()
	if st == nil {
		return errBuilding
	}
	next, resp, err := step(st)
	if err != nil {
		return err
	}
	if next != nil {
		prev := *st
		prev.prev = nil
		next.prev = &prev
		ss.state.Store(next)
	}
	writeJSON(w, resp)
	return nil
}

// maxResyncBody bounds /shard/resync installs: a snapshot carries the
// whole network plus every owned index slice.
const maxResyncBody = 256 << 20

// handleResyncGet serializes the current serving state as a snapshot a
// lagging replica in the same group can install verbatim. Copying —
// never rebuilding — is what keeps replicas byte-identical: the snapshot
// is the source's exact index bytes, so after install the pair would
// serialize identically again.
func (ss *ShardServer) handleResyncGet(w http.ResponseWriter, r *http.Request) error {
	st := ss.state.Load()
	if st == nil {
		return errBuilding
	}
	snap := distrib.ResyncState{
		Generation:  st.generation,
		TotalShards: ss.cfg.TotalShards,
		Strategy:    ss.strategy,
	}
	var nb bytes.Buffer
	if err := st.net.Write(&nb); err != nil {
		return withStatus(http.StatusInternalServerError, err)
	}
	snap.Network = nb.Bytes()
	for i, s := range ss.cfg.Owned {
		var sb bytes.Buffer
		if err := rrindex.WriteIndex(&sb, st.slices[i].idx); err != nil {
			return withStatus(http.StatusInternalServerError, err)
		}
		snap.Shards = append(snap.Shards, distrib.ResyncShard{Shard: s, Users: st.slices[i].users, Index: sb.Bytes()})
	}
	writeJSON(w, snap)
	return nil
}

// handleResyncPost installs a snapshot taken from a caught-up replica,
// replacing this server's state wholesale. Generations at or below the
// serving one are acknowledged idempotently; the snapshot's layout and
// strategy must match this server's exactly, and each slice must fit the
// shard it is labelled as (rrindex CheckShard) or the install is a 400.
func (ss *ShardServer) handleResyncPost(w http.ResponseWriter, r *http.Request) error {
	var snap distrib.ResyncState
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResyncBody))
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("bad resync body: %w", err)
	}
	return ss.advance(w, func(st *shardState) (*shardState, any, error) {
		if snap.Generation <= st.generation {
			// Stale or duplicate snapshot; the server already serves newer state.
			return nil, distrib.ResyncResponse{Generation: st.generation}, nil
		}
		if snap.TotalShards != ss.cfg.TotalShards || snap.Strategy != ss.strategy {
			return nil, nil, withStatus(http.StatusConflict,
				fmt.Errorf("serve: snapshot layout %d/%s does not match %d/%s",
					snap.TotalShards, snap.Strategy, ss.cfg.TotalShards, ss.strategy))
		}
		net, err := pitex.ReadNetwork(bytes.NewReader(snap.Network))
		if err != nil {
			return nil, nil, fmt.Errorf("bad snapshot network: %w", err)
		}
		next := newShardState(net, snap.Generation, len(ss.cfg.Owned))
		for _, sh := range snap.Shards {
			i := slices.Index(ss.cfg.Owned, sh.Shard)
			if i < 0 {
				return nil, nil, withStatus(http.StatusConflict,
					fmt.Errorf("serve: snapshot carries shard %d, not owned here", sh.Shard))
			}
			// A slice is installed under its label only if it fits that
			// shard of the layout: every gather trusts its |V_s| and targets.
			idx, err := rrindex.ReadIndex(bytes.NewReader(sh.Index), net.Graph())
			if err == nil {
				err = idx.CheckShard(ss.buildOpts, ss.cfg.TotalShards, sh.Shard, sh.Users)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("bad snapshot shard %d: %w", sh.Shard, err)
			}
			next.slices[i] = indexSlice{idx: idx, users: sh.Users}
		}
		for i, s := range ss.cfg.Owned {
			if next.slices[i].idx == nil {
				return nil, nil, withStatus(http.StatusConflict,
					fmt.Errorf("serve: snapshot missing owned shard %d", s))
			}
		}
		return next, distrib.ResyncResponse{Generation: snap.Generation}, nil
	})
}

// readiness adds the owned shards to /readyz once every one is built.
func (ss *ShardServer) readiness(doc map[string]any) error {
	select {
	case <-ss.ready:
		if ss.buildErr != nil {
			return ss.buildErr
		}
	default:
		return errors.New("building")
	}
	doc["shards"] = ss.cfg.Owned
	return nil
}

func (ss *ShardServer) handleStatsz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"strategy":       ss.strategy,
		"total_shards":   ss.cfg.TotalShards,
		"owned":          ss.cfg.Owned,
		"uptime_seconds": time.Since(ss.start).Seconds(),
		"build":          obsv.GetBuildInfo(),
		"inflight":       ss.gate.inUse.Load(),
		"rejected":       ss.gate.rejected.Load(),
		"timeouts":       ss.gate.timeouts.Load(),
		"latency":        ss.metrics.Snapshot(),
	}
	if st := ss.state.Load(); st != nil {
		out["generation"] = st.generation
		out["shards"] = ss.infoFor(st).Shards
		out["effective_epsilon"] = ss.effectiveEpsilon(st)
	}
	writeJSON(w, out)
}
