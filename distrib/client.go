package distrib

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitex"
	"pitex/internal/faultinject"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
	"pitex/obsv"
)

// Options tunes the client's robustness machinery. The zero value is
// usable; withDefaults fills the blanks.
type Options struct {
	// ShardDeadline bounds one group fetch end to end — all attempts,
	// hedges included (default 2s). A group that cannot answer within it
	// is reported missing and the gather degrades.
	ShardDeadline time.Duration
	// HedgeMin floors the hedge delay (default 20ms): a hedge is never
	// sent sooner, even when the latency window says the group is faster.
	HedgeMin time.Duration
	// UpdateDeadline bounds one /shard/update fan-out call per endpoint
	// (default 60s — repairs re-sample RR-Graphs and are much slower than
	// queries).
	UpdateDeadline time.Duration
	// JitterSeed seeds the per-endpoint backoff jitter (default 1).
	// Endpoints that failed together would otherwise cool down in
	// lockstep and retry as a thundering herd; the jitter spreads their
	// recovery probes while staying deterministic per (seed, URL).
	JitterSeed uint64
	// ReconcileInterval is the cadence of the background anti-entropy
	// reconciler that heals lagging endpoints (default 500ms; negative
	// disables the reconciler entirely).
	ReconcileInterval time.Duration
	// JournalHorizon bounds the per-generation update journal the
	// reconciler replays from (default 32 generations). An endpoint whose
	// gap reaches past the horizon is healed via /shard/resync instead.
	JournalHorizon int
	// HealBackoff is the base delay between failed heal attempts on one
	// endpoint (default 500ms), doubling per consecutive failure up to
	// 2^5× with the same per-endpoint jitter as the cooldown.
	HealBackoff time.Duration
}

const (
	// hedgeQuantile is the latency-window quantile after which a fetch is
	// hedged to the next replica.
	hedgeQuantile = 0.9
	// failureCooldown is the base endpoint cooldown after a failure,
	// doubling per consecutive failure up to 2^5×.
	failureCooldown = time.Second
)

func (o Options) withDefaults() Options {
	if o.ShardDeadline <= 0 {
		o.ShardDeadline = 2 * time.Second
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 20 * time.Millisecond
	}
	if o.UpdateDeadline <= 0 {
		o.UpdateDeadline = 60 * time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	if o.ReconcileInterval == 0 {
		o.ReconcileInterval = 500 * time.Millisecond
	}
	if o.JournalHorizon <= 0 {
		o.JournalHorizon = 32
	}
	if o.HealBackoff <= 0 {
		o.HealBackoff = 500 * time.Millisecond
	}
	return o
}

// endpoint is one shard-server address with failure bookkeeping.
type endpoint struct {
	url  string
	base *url.URL // url parsed once; every request URL is a copy with its path set

	// gen is the endpoint's last-known applied generation, maintained by
	// the update fan-out and the reconciler. An endpoint with gen behind
	// the coordinator head is lagging: it would answer head-stamped
	// requests with 409, so the scatter path skips it until it heals.
	gen atomic.Uint64

	mu          sync.Mutex
	consecFails int
	coolUntil   time.Time
	jit         *rng.Source // backoff jitter stream; nil = no jitter
	healFails   int
	nextHeal    time.Time
}

// newEndpoint parses one shard-server address (URL or host:port) and
// seeds its deterministic backoff jitter stream from (seed, URL).
func newEndpoint(addr string, seed uint64) (*endpoint, error) {
	ep := &endpoint{url: normalizeURL(addr)}
	var err error
	if ep.base, err = url.Parse(ep.url); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(ep.url))
	ep.jit = rng.New(rng.Mix(seed, h.Sum64()))
	return ep, nil
}

// jitterLocked scales d by a uniform factor in [1, 1.5) drawn from the
// endpoint's own seeded stream, so replicas that failed together do not
// retry in lockstep. Without a stream (zero-value endpoints in tests) the
// delay stays exact. Caller holds e.mu.
func (e *endpoint) jitterLocked(d time.Duration) time.Duration {
	if e.jit == nil {
		return d
	}
	return time.Duration(float64(d) * (1 + 0.5*e.jit.Float64()))
}

func (e *endpoint) fail(now time.Time, base time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.consecFails++
	n := e.consecFails
	if n > 6 {
		n = 6
	}
	e.coolUntil = now.Add(e.jitterLocked(base << uint(n-1)))
}

func (e *endpoint) succeed() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.consecFails = 0
	e.coolUntil = time.Time{}
}

func (e *endpoint) cooling(now time.Time) (bool, time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return now.Before(e.coolUntil), e.coolUntil
}

// healDue reports whether the reconciler may attempt a heal now (heal
// failures back off like fetch failures, with jitter).
func (e *endpoint) healDue(now time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !now.Before(e.nextHeal)
}

func (e *endpoint) healFailed(now time.Time, base time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.healFails++
	n := e.healFails
	if n > 6 {
		n = 6
	}
	e.nextHeal = now.Add(e.jitterLocked(base << uint(n-1)))
}

func (e *endpoint) healedOK() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.healFails = 0
	e.nextHeal = time.Time{}
}

// latWindow is a small ring of recent group latencies for the hedge
// quantile.
type latWindow struct {
	mu   sync.Mutex
	buf  [64]time.Duration
	n    int // filled entries, capped at len(buf)
	next int
}

func (w *latWindow) add(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// quantile returns the q-quantile of the window, or ok=false when empty.
func (w *latWindow) quantile(q float64) (time.Duration, bool) {
	w.mu.Lock()
	n := w.n
	tmp := make([]time.Duration, n)
	copy(tmp, w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0, false
	}
	slices.Sort(tmp)
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return tmp[i], true
}

// group is one replica set: every endpoint serves the same shard ids.
type group struct {
	endpoints []*endpoint
	shards    []int
	lat       latWindow
}

// candidates orders the group's endpoints for an attempt sequence:
// healthy ones first (configured order), cooling ones last. Endpoints
// lagging behind the head generation are excluded outright — they would
// answer a head-stamped request with 409, so attempting them wastes the
// hedge budget; the reconciler heals them off the query path. When every
// replica is lagging or cooling the full list comes back anyway (lagging
// last) — probing is how a group recovers.
func (g *group) candidates(now time.Time, head uint64) []*endpoint {
	avail := make([]*endpoint, 0, len(g.endpoints))
	var cooling, lagging []*endpoint
	for _, ep := range g.endpoints {
		c, _ := ep.cooling(now)
		switch {
		case ep.gen.Load() < head:
			lagging = append(lagging, ep)
		case c:
			cooling = append(cooling, ep)
		default:
			avail = append(avail, ep)
		}
	}
	if len(avail)+len(cooling) == 0 {
		return lagging
	}
	return append(avail, cooling...)
}

// hedgeDelay derives the adaptive hedge trigger: the latency-window
// quantile, clamped to [HedgeMin, ShardDeadline/2]. An empty window (cold
// start) hedges aggressively at HedgeMin.
func (g *group) hedgeDelay(o Options) time.Duration {
	d, ok := g.lat.quantile(hedgeQuantile)
	if !ok || d < o.HedgeMin {
		d = o.HedgeMin
	}
	if max := o.ShardDeadline / 2; d > max {
		d = max
	}
	return d
}

// Client is the coordinator-side handle on a shard-server fleet. It
// implements pitex.RemoteEstimator and pitex.RemoteFrontierEstimator and
// is safe for concurrent use.
type Client struct {
	opts   Options
	http   *http.Client
	groups []*group

	generation  atomic.Uint64
	totalShards int
	strategy    string

	// Last-known per-shard gather metadata, refreshed by every partial
	// that flows through (θ grows under repairs, |V_s| under AddUsers) —
	// the degraded gather's denominator and the achieved-ε report read
	// these.
	shardTheta []atomic.Int64
	shardUsers []atomic.Int64

	scatters       *obsv.Counter
	siblings       *obsv.Counter
	hedges         *obsv.Counter
	failovers      *obsv.Counter
	degraded       *obsv.Counter
	journalReplays *obsv.Counter
	resyncs        *obsv.Counter
	healFailures   *obsv.Counter

	// Self-healing machinery: the journal retains recent update bodies
	// for replay; the reconciler goroutine retries lagging endpoints.
	journal *journal
	stop    chan struct{}
	wg      sync.WaitGroup
	//pitexlint:allow ctxflow -- background reconciler lifetime, cancelled by Close; not a request context
	healCtx    context.Context
	healCancel context.CancelFunc
	closed     atomic.Bool
}

// Dial connects to a fleet: groups[i] lists the replica endpoints (URL or
// host:port) of one shard set. Dial polls each group's /shard/info until
// a replica reports Ready (shard servers build their index slices
// asynchronously) or ctx ends, then validates that the groups exactly
// partition [0, TotalShards) and agree on layout, user count, strategy
// and generation.
func Dial(ctx context.Context, groupAddrs [][]string, opts Options) (*Client, error) {
	if len(groupAddrs) == 0 {
		return nil, fmt.Errorf("distrib: no shard groups")
	}
	opts = opts.withDefaults()
	c := &Client{
		opts: opts, totalShards: -1,
		// A dedicated client, so the fleet's connection pool is its own.
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		scatters: obsv.NewCounter(), siblings: obsv.NewCounter(), hedges: obsv.NewCounter(),
		failovers: obsv.NewCounter(), degraded: obsv.NewCounter(),
		journalReplays: obsv.NewCounter(), resyncs: obsv.NewCounter(),
		healFailures: obsv.NewCounter(),
		journal:      newJournal(opts.JournalHorizon),
		stop:         make(chan struct{}),
	}
	//pitexlint:allow ctxflow -- the healer must outlive Dial's ctx: it runs until Close, not until dialing ends
	c.healCtx, c.healCancel = context.WithCancel(context.Background())
	covered := make(map[int]int) // shard -> group index
	type pending struct {
		g    *group
		info *InfoResponse
	}
	var infos []pending
	for gi, addrs := range groupAddrs {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("distrib: group %d has no endpoints", gi)
		}
		g := &group{}
		for _, a := range addrs {
			ep, err := newEndpoint(a, opts.JitterSeed)
			if err != nil {
				return nil, fmt.Errorf("distrib: group %d: %w", gi, err)
			}
			g.endpoints = append(g.endpoints, ep)
		}
		info, err := c.awaitReady(ctx, g)
		if err != nil {
			return nil, fmt.Errorf("distrib: group %d (%s): %w", gi, strings.Join(addrs, ","), err)
		}
		if c.totalShards == -1 {
			c.totalShards = info.TotalShards
			c.strategy = info.Strategy
			c.generation.Store(info.Generation)
		} else {
			switch {
			case info.TotalShards != c.totalShards:
				return nil, fmt.Errorf("distrib: group %d has %d total shards, group 0 has %d",
					gi, info.TotalShards, c.totalShards)
			case info.Strategy != c.strategy:
				return nil, fmt.Errorf("distrib: group %d strategy %s, group 0 %s", gi, info.Strategy, c.strategy)
			case info.TotalUsers != infos[0].info.TotalUsers:
				return nil, fmt.Errorf("distrib: group %d serves %d users, group 0 serves %d",
					gi, info.TotalUsers, infos[0].info.TotalUsers)
			case info.Generation != c.generation.Load():
				return nil, fmt.Errorf("distrib: group %d at generation %d, group 0 at %d",
					gi, info.Generation, c.generation.Load())
			}
		}
		for _, si := range info.Shards {
			if si.Shard < 0 || si.Shard >= c.totalShards {
				return nil, fmt.Errorf("distrib: group %d serves shard %d outside [0,%d)", gi, si.Shard, c.totalShards)
			}
			if prev, dup := covered[si.Shard]; dup {
				return nil, fmt.Errorf("distrib: shard %d served by both group %d and %d", si.Shard, prev, gi)
			}
			covered[si.Shard] = gi
			g.shards = append(g.shards, si.Shard)
		}
		slices.Sort(g.shards)
		c.groups = append(c.groups, g)
		infos = append(infos, pending{g, info})
	}
	if len(covered) != c.totalShards {
		var missing []int
		for s := 0; s < c.totalShards; s++ {
			if _, ok := covered[s]; !ok {
				missing = append(missing, s)
			}
		}
		return nil, fmt.Errorf("distrib: shards %v not served by any group", missing)
	}
	c.shardTheta = make([]atomic.Int64, c.totalShards)
	c.shardUsers = make([]atomic.Int64, c.totalShards)
	for _, p := range infos {
		for _, si := range p.info.Shards {
			c.shardTheta[si.Shard].Store(si.Theta)
			c.shardUsers[si.Shard].Store(int64(si.Users))
		}
	}
	// Every endpoint starts presumed-current; the fan-out, 409 responses
	// and the reconciler's probes keep the view honest from here on.
	for _, g := range c.groups {
		for _, ep := range g.endpoints {
			ep.gen.Store(c.generation.Load())
		}
	}
	if c.opts.ReconcileInterval > 0 {
		c.wg.Add(1)
		go c.reconcileLoop()
	}
	return c, nil
}

// Close stops the background reconciler and releases idle connections.
// In-flight calls finish; further heals are abandoned. Safe to call more
// than once.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	close(c.stop)
	c.healCancel()
	c.wg.Wait()
	c.http.CloseIdleConnections()
}

func normalizeURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// awaitReady polls a group's endpoints for a Ready /shard/info.
func (c *Client) awaitReady(ctx context.Context, g *group) (*InfoResponse, error) {
	var lastErr error
	for {
		for _, ep := range g.endpoints {
			info, err := c.getInfo(ctx, ep)
			if err != nil {
				lastErr = err
				continue
			}
			if info.Ready {
				return info, nil
			}
			lastErr = fmt.Errorf("%s still building its shards", ep.url)
		}
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last: %v)", ctx.Err(), lastErr)
			}
			return nil, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func (c *Client) getInfo(ctx context.Context, ep *endpoint) (*InfoResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.ShardDeadline)
	defer cancel()
	body, err := c.roundTrip(ctx, ep, rpc{method: http.MethodGet, path: "/shard/info"})
	if err != nil {
		return nil, err
	}
	var info InfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("bad info from %s: %w", ep.url, err)
	}
	return &info, nil
}

// statusError is a non-2xx response, kept typed so callers can react to
// specific statuses (409 marks an endpoint's generation view stale).
type statusError struct {
	method, url string
	code        int
	msg         string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.url, e.code, e.msg)
}

// responseStatus extracts the HTTP status behind err, or 0 when err is
// not a status error (transport failure, context end, injected fault).
func responseStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// rpc is one shard-protocol call, as every attempt of a fan-out sends it.
type rpc struct {
	method, path string
	body         []byte
	ctype        string // of body; JSON when empty
	deadlineMs   string // DeadlineHeader value, set once per scatter by fanOut
}

// roundTrip performs one HTTP exchange and returns the response body,
// mapping non-2xx statuses to errors carrying the server's message.
func (c *Client) roundTrip(ctx context.Context, ep *endpoint, call rpc) ([]byte, error) {
	out := faultinject.Eval(ctx, faultinject.PointRoundTrip)
	if out.Err != nil {
		return nil, out.Err
	}
	u := *ep.base
	u.Path, u.RawQuery = u.Path+call.path, ""
	req := new(http.Request).WithContext(ctx)
	req.Method, req.URL, req.Header = call.method, &u, make(http.Header, 3)
	if call.body != nil {
		// What http.NewRequest derives from a *bytes.Reader body: the
		// length, and GetBody so the transport may replay the request on a
		// keep-alive connection the server closed under it.
		req.ContentLength = int64(len(call.body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(call.body)), nil }
		req.Body, _ = req.GetBody()
		req.Header.Set("Content-Type", cmp.Or(call.ctype, "application/json"))
	}
	if call.deadlineMs != "" {
		req.Header.Set(DeadlineHeader, call.deadlineMs)
	}
	// Propagate the trace across the wire so a shard's spans join the
	// coordinator's trace ID.
	if tr := obsv.TraceFrom(ctx); tr != nil {
		req.Header.Set(obsv.TraceHeader, obsv.FormatTraceHeader(tr.ID(), obsv.SpanFrom(ctx).ID()))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, &statusError{method: call.method, url: ep.url + call.path, code: resp.StatusCode, msg: msg}
	}
	if out.Corrupt {
		data = faultinject.CorruptBytes(data)
	}
	return data, nil
}

// maxResponseBytes caps a shard response read. Resync snapshots carry
// whole index slices, so the cap is far above the 16MB that bounds every
// other message type.
const maxResponseBytes = 256 << 20

// readBody reads a response body into a buffer sized by its declared
// Content-Length (shard servers declare it on estimate responses), and
// falls back to growing through io.ReadAll for chunked or oversized
// declarations — capped at maxResponseBytes either way.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxResponseBytes {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
}

// fetchGroup runs one hedged, failing-over fetch against a group: the
// first candidate is tried immediately, the next one after the adaptive
// hedge delay (straggler) or instantly on a hard error (dead replica),
// and so on down the candidate list; the first success wins. The whole
// sequence runs under fanOut's one ShardDeadline, which also ends the
// attempts that lost.
func (c *Client) fetchGroup(ctx context.Context, g *group, call rpc) ([]byte, error) {
	cands := g.candidates(time.Now(), c.generation.Load())
	if len(cands) == 0 {
		return nil, fmt.Errorf("distrib: group has no endpoints")
	}
	type attempt struct {
		data []byte
		err  error
		ep   *endpoint
		dur  time.Duration
	}
	ch := make(chan attempt, len(cands))
	launch := func(ep *endpoint, hedged bool) {
		go func() {
			sp, sctx := obsv.StartSpan(ctx, "shard-rpc")
			sp.SetAttr("endpoint", ep.url)
			sp.SetAttr("path", call.path)
			if hedged {
				sp.SetAttr("hedge", true)
			}
			t0 := time.Now()
			data, err := c.roundTrip(sctx, ep, call)
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
			ch <- attempt{data, err, ep, time.Since(t0)}
		}()
	}
	launch(cands[0], false)
	next, inFlight := 1, 1
	// The hedge timer exists only while there is a replica to hedge to; a
	// nil channel never fires.
	var hd time.Duration
	var timer *time.Timer
	var hedge <-chan time.Time
	if len(cands) > 1 {
		hd = g.hedgeDelay(c.opts)
		timer = time.NewTimer(hd)
		defer timer.Stop()
		hedge = timer.C
	}
	var firstErr error
	for inFlight > 0 {
		select {
		case a := <-ch:
			inFlight--
			if a.err == nil {
				a.ep.succeed()
				g.lat.add(a.dur)
				return a.data, nil
			}
			a.ep.fail(time.Now(), failureCooldown)
			if responseStatus(a.err) == http.StatusConflict {
				// The endpoint rejected our generation: its index view is
				// stale (or ahead after a lost fan-out ack). Zero the
				// cached generation so the reconciler probes and heals it
				// and the scatter path stops picking it meanwhile.
				a.ep.gen.Store(0)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if next < len(cands) {
				c.failovers.Add(1)
				launch(cands[next], false)
				next++
				inFlight++
			}
		case <-hedge:
			if next < len(cands) {
				c.hedges.Add(1)
				launch(cands[next], true)
				next++
				inFlight++
				timer.Reset(hd)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, firstErr
}

// noteShard refreshes the last-known gather metadata from a partial.
func (c *Client) noteShard(p rrindex.Partial) {
	if p.Shard >= 0 && p.Shard < len(c.shardTheta) {
		c.shardTheta[p.Shard].Store(p.Theta)
		c.shardUsers[p.Shard].Store(int64(p.Users))
	}
}

// TotalTheta returns the last-known Σθ_s across the fleet, the gather
// denominator: read from /shard/info at Dial and refreshed by every
// partial row received.
func (c *Client) TotalTheta() int64 {
	var t int64
	for i := range c.shardTheta {
		t += c.shardTheta[i].Load()
	}
	return t
}

func (c *Client) totalUsers() int {
	var u int64
	for i := range c.shardUsers {
		u += c.shardUsers[i].Load()
	}
	return int(u)
}

// groupResult is one group's raw answer to a fan-out.
type groupResult struct {
	data []byte
	err  error
}

// fanOut runs one hedged, failing-over fetch per group concurrently —
// group 0's on the calling goroutine — and returns the raw results in
// group order. All of it shares one ShardDeadline, and every attempt
// ships the budget read off it here (context deadlines do not cross HTTP;
// a shard sheds requests whose caller will have hung up before a worker
// frees up).
func (c *Client) fanOut(ctx context.Context, call rpc) []groupResult {
	ctx, cancel := context.WithTimeout(ctx, c.opts.ShardDeadline)
	defer cancel()
	dl, _ := ctx.Deadline()
	call.deadlineMs = strconv.FormatInt(max(time.Until(dl).Milliseconds(), 1), 10)
	results := make([]groupResult, len(c.groups))
	fetch := func(i int) {
		results[i].data, results[i].err = c.fetchGroup(ctx, c.groups[i], call)
	}
	var wg sync.WaitGroup
	for i := 1; i < len(c.groups); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fetch(i)
		}(i)
	}
	fetch(0)
	wg.Wait()
	return results
}

// scattered is what one estimate scatter brought back: the shard rows of
// the groups that answered (group order), the ascending shard ids of the
// groups that did not, and the open gather span the caller folds under
// and ends.
type scattered struct {
	rows    [][]rrindex.Partial
	missing []int
	span    *obsv.Span
}

// scatterEstimate is the one scatter/collect path: it stamps req with the
// serving generation, frames it, posts it to every group, and decodes and
// validates each answer. A group whose fetch failed, whose frame does not
// decode, or whose rows do not match the request (ragged, short or for
// the wrong shards) is counted missing. It fails outright only when no
// group at all answered.
func (c *Client) scatterEstimate(ctx context.Context, req EstimateRequest) (scattered, error) {
	req.Generation = c.generation.Load()
	width := len(req.Frontier)
	call := rpc{method: http.MethodPost, path: "/shard/estimate", ctype: FrontierContentType}
	var err error
	psp, _ := obsv.StartSpan(ctx, "probe-marshal")
	// A fresh body per scatter, never a pooled one: hedge and failover
	// attempts outlive this call and may still be writing it.
	call.body, err = EncodeFrontierRequest(req)
	psp.End()
	if err != nil {
		return scattered{}, err
	}
	c.scatters.Inc()
	c.siblings.Add(int64(width))
	ssp, sctx := obsv.StartSpan(ctx, "scatter")
	ssp.SetAttr("groups", len(c.groups))
	ssp.SetAttr("siblings", width)
	results := c.fanOut(sctx, call)
	ssp.End()

	out := scattered{}
	out.span, _ = obsv.StartSpan(ctx, "gather")
	var firstErr error
	for i, r := range results {
		var resp EstimateResponse
		if r.err == nil {
			resp, r.err = DecodeFrontierResponse(r.data)
		}
		if r.err == nil {
			r.err = resp.check(c.groups[i].shards, width)
		}
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			out.missing = append(out.missing, c.groups[i].shards...)
			continue
		}
		for _, row := range resp.Frontier {
			c.noteShard(row[0])
		}
		out.rows = append(out.rows, resp.Frontier...)
	}
	if len(out.rows) == 0 {
		out.span.End()
		return scattered{}, fmt.Errorf("distrib: no shard responded: %w", firstErr)
	}
	if len(out.missing) > 0 {
		// One degraded answer per estimation the scatter carried.
		c.degraded.Add(int64(width))
		slices.Sort(out.missing)
		out.span.SetAttr("degraded", true)
		out.span.SetAttr("missing_shards", out.missing)
	}
	return out, nil
}

// EstimateRemote implements pitex.RemoteEstimator as a frontier of width
// 1: the probe's posterior is the one row, so its estimate is exactly
// what EstimateRemoteFrontier answers for that row, degraded or not.
func (c *Client) EstimateRemote(ctx context.Context, user int, probe pitex.RemoteProbe) (pitex.RemoteEstimate, error) {
	ests, err := c.EstimateRemoteFrontier(ctx, user, [][]float64{probe.Posterior})
	if err != nil {
		return pitex.RemoteEstimate{}, err
	}
	return ests[0], nil
}

// EstimateRemoteFrontier implements pitex.RemoteFrontierEstimator: the
// whole sibling group crosses the wire as ONE scatter — each shard server
// decides every sibling in a single masked pass over the user's postings
// (rrindex.PartialFrontier) — and the positional rows fold
// through rrindex.GatherFrontierPartials, byte-identical to the
// in-process sharded estimator, or sibling by sibling through
// rrindex.GatherPartialsDegraded when groups are missing, reporting which
// shards were absent and the θ actually consulted. It fails outright only
// when no shard at all responded.
func (c *Client) EstimateRemoteFrontier(ctx context.Context, user int, posteriors [][]float64) ([]pitex.RemoteEstimate, error) {
	if len(posteriors) == 0 {
		return nil, nil
	}
	sc, err := c.scatterEstimate(ctx, EstimateRequest{User: user, Frontier: posteriors})
	if err != nil {
		return nil, err
	}
	defer sc.span.End()
	out := make([]pitex.RemoteEstimate, len(posteriors))
	if len(sc.missing) == 0 {
		for i, r := range rrindex.GatherFrontierPartials(sc.rows) {
			out[i] = pitex.RemoteEstimate{
				Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
				RespondingTheta: r.Theta, TotalTheta: r.Theta,
			}
		}
		return out, nil
	}
	sibling := make([]rrindex.Partial, len(sc.rows))
	for i := range out {
		for s, row := range sc.rows {
			sibling[s] = row[i]
		}
		r := rrindex.GatherPartialsDegraded(sibling, c.totalUsers())
		out[i] = pitex.RemoteEstimate{
			Influence: r.Influence, Samples: r.Samples, Theta: r.Theta, Reachable: r.Reachable,
			MissingShards: sc.missing, RespondingTheta: r.Theta, TotalTheta: c.TotalTheta(),
		}
	}
	return out, nil
}

// EndpointUpdate is one endpoint's outcome of an Update fan-out.
type EndpointUpdate struct {
	URL            string `json:"url"`
	Generation     uint64 `json:"generation,omitempty"`
	GraphsRepaired int    `json:"graphs_repaired"`
	GraphsAppended int    `json:"graphs_appended"`
	Error          string `json:"error,omitempty"`
}

// Update fans one staged batch to EVERY endpoint of every group (each
// replica holds its own index copy and repairs it independently —
// deterministically, so replicas stay byte-identical). Failed endpoints
// are reported, not fatal: a replica that missed the update answers the
// new generation with 409, fails health checks, and the fleet serves
// degraded until it recovers. The caller advances SetGeneration only
// after this returns.
func (c *Client) Update(ctx context.Context, req UpdateRequest) ([]EndpointUpdate, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	// Journal the batch before delivery: whatever subset of endpoints
	// misses this fan-out, the reconciler replays the exact same body, so
	// replicas converge byte-identically. Re-staging the same generation
	// after a failed fan-out replaces the entry.
	c.journal.put(req.Generation, body)
	var eps []*endpoint
	for _, g := range c.groups {
		eps = append(eps, g.endpoints...)
	}
	out := make([]EndpointUpdate, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *endpoint) {
			defer wg.Done()
			ectx, cancel := context.WithTimeout(ctx, c.opts.UpdateDeadline)
			defer cancel()
			out[i] = EndpointUpdate{URL: ep.url}
			if fo := faultinject.Eval(ectx, faultinject.PointUpdateFanout); fo.Err != nil {
				ep.fail(time.Now(), failureCooldown)
				out[i].Error = fo.Err.Error()
				return
			}
			data, err := c.roundTrip(ectx, ep, rpc{method: http.MethodPost, path: "/shard/update", body: body})
			if err != nil {
				ep.fail(time.Now(), failureCooldown)
				if responseStatus(err) == http.StatusConflict {
					ep.gen.Store(0)
				}
				out[i].Error = err.Error()
				return
			}
			var resp UpdateResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				out[i].Error = err.Error()
				return
			}
			ep.succeed()
			ep.gen.Store(resp.Generation)
			out[i].Generation = resp.Generation
			out[i].GraphsRepaired = resp.GraphsRepaired
			out[i].GraphsAppended = resp.GraphsAppended
		}(i, ep)
	}
	wg.Wait()
	failed := 0
	for _, o := range out {
		if o.Error != "" {
			failed++
		}
	}
	if failed == len(out) {
		return out, fmt.Errorf("distrib: update failed on every endpoint (first: %s)", out[0].Error)
	}
	return out, nil
}

// Register wires the client's robustness counters and fleet gauges into
// a metrics registry, so the coordinator's /metrics covers the remote
// path with no extra bookkeeping.
func (c *Client) Register(reg *obsv.Registry) {
	reg.RegisterCounter("pitex_remote_scatters_total",
		"Estimate scatters issued to the shard fleet (one per frontier batch, or per weight row without batching).", c.scatters)
	reg.RegisterCounter("pitex_remote_frontier_siblings_total",
		"Weight rows shipped in estimate scatters: candidate tag sets and partial-set Lemma 8 bounds alike, a width-1 scatter counting 1 (mean batch width = this / scatters).", c.siblings)
	reg.RegisterCounter("pitex_remote_hedges_total",
		"Hedged shard fetches fired after the adaptive delay.", c.hedges)
	reg.RegisterCounter("pitex_remote_failovers_total",
		"Shard fetches retried on the next replica after a hard error.", c.failovers)
	reg.RegisterCounter("pitex_remote_degraded_answers_total",
		"Estimations answered with one or more shard groups missing.", c.degraded)
	reg.RegisterCounter("pitex_remote_journal_replays_total",
		"Missed update batches replayed to lagging endpoints from the journal.", c.journalReplays)
	reg.RegisterCounter("pitex_remote_resyncs_total",
		"Full-state /shard/resync transfers to endpoints behind the journal horizon.", c.resyncs)
	reg.RegisterCounter("pitex_remote_heal_failures_total",
		"Failed heal attempts on lagging endpoints (retried with backoff).", c.healFailures)
	reg.GaugeFunc("pitex_remote_lagging_endpoints",
		"Endpoints currently behind the head generation.",
		func() float64 { return float64(c.laggingCount()) })
	for _, g := range c.groups {
		for _, ep := range g.endpoints {
			ep := ep
			reg.GaugeFunc("pitex_remote_endpoint_lag",
				"Generations this endpoint is behind the coordinator head.",
				func() float64 {
					head := c.generation.Load()
					if g := ep.gen.Load(); g < head {
						return float64(head - g)
					}
					return 0
				}, obsv.Label{Key: "endpoint", Value: ep.url})
		}
	}
	reg.GaugeFunc("pitex_remote_generation",
		"Index generation currently stamped on remote requests.",
		func() float64 { return float64(c.generation.Load()) })
	reg.GaugeFunc("pitex_remote_total_theta",
		"Last-known Σθ_s across the fleet (the gather denominator).",
		func() float64 { return float64(c.TotalTheta()) })
	reg.GaugeFunc("pitex_remote_total_users",
		"Last-known Σ|V_s| across the fleet.",
		func() float64 { return float64(c.totalUsers()) })
}

// SetGeneration advances the generation stamped on every subsequent
// request. Call it after a successful Update fan-out.
func (c *Client) SetGeneration(gen uint64) { c.generation.Store(gen) }

// Generation returns the generation currently stamped on requests.
func (c *Client) Generation() uint64 { return c.generation.Load() }

// TotalShards returns the cluster layout's shard count S.
func (c *Client) TotalShards() int { return c.totalShards }

// Strategy returns the fleet's estimation strategy name.
func (c *Client) Strategy() string { return c.strategy }

// laggingCount is the number of endpoints behind the head generation.
func (c *Client) laggingCount() int {
	head := c.generation.Load()
	n := 0
	for _, g := range c.groups {
		for _, ep := range g.endpoints {
			if ep.gen.Load() < head {
				n++
			}
		}
	}
	return n
}

// EndpointStatus is one endpoint's health row in Status.
type EndpointStatus struct {
	URL                 string `json:"url"`
	Generation          uint64 `json:"generation"`
	Lagging             bool   `json:"lagging,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	CoolingMs           int64  `json:"cooling_ms,omitempty"`
}

// GroupStatus is one replica group's row in Status.
type GroupStatus struct {
	Shards       []int            `json:"shards"`
	HedgeDelayMs float64          `json:"hedge_delay_ms"`
	Endpoints    []EndpointStatus `json:"endpoints"`
}

// Status is the client's observability snapshot, exported by the
// coordinator's /statsz. FrontierSiblings counts the weight rows every
// scatter carried — a width-1 scatter (EstimateRemote) counts 1 — so
// FrontierSiblings / Scatters is the mean batch width.
type Status struct {
	Generation       uint64        `json:"generation"`
	TotalShards      int           `json:"total_shards"`
	TotalUsers       int           `json:"total_users"`
	TotalTheta       int64         `json:"total_theta"`
	Strategy         string        `json:"strategy"`
	Scatters         int64         `json:"scatters"`
	FrontierSiblings int64         `json:"frontier_siblings"`
	Hedges           int64         `json:"hedges"`
	Failovers        int64         `json:"failovers"`
	DegradedAnswers  int64         `json:"degraded_answers"`
	JournalReplays   int64         `json:"journal_replays"`
	Resyncs          int64         `json:"resyncs"`
	HealFailures     int64         `json:"heal_failures"`
	LaggingCount     int           `json:"lagging_endpoints"`
	JournalSize      int           `json:"journal_size"`
	Groups           []GroupStatus `json:"groups"`
}

// Status snapshots the fleet view.
func (c *Client) Status() Status {
	now := time.Now()
	st := Status{
		Generation:       c.generation.Load(),
		TotalShards:      c.totalShards,
		TotalUsers:       c.totalUsers(),
		TotalTheta:       c.TotalTheta(),
		Strategy:         c.strategy,
		Scatters:         c.scatters.Value(),
		FrontierSiblings: c.siblings.Value(),
		Hedges:           c.hedges.Value(),
		Failovers:        c.failovers.Value(),
		DegradedAnswers:  c.degraded.Value(),
		JournalReplays:   c.journalReplays.Value(),
		Resyncs:          c.resyncs.Value(),
		HealFailures:     c.healFailures.Value(),
		LaggingCount:     c.laggingCount(),
		JournalSize:      c.journal.size(),
	}
	for _, g := range c.groups {
		gs := GroupStatus{
			Shards:       append([]int(nil), g.shards...),
			HedgeDelayMs: float64(g.hedgeDelay(c.opts)) / float64(time.Millisecond),
		}
		for _, ep := range g.endpoints {
			es := EndpointStatus{URL: ep.url, Generation: ep.gen.Load()}
			es.Lagging = es.Generation < st.Generation
			ep.mu.Lock()
			es.ConsecutiveFailures = ep.consecFails
			cool := ep.coolUntil
			ep.mu.Unlock()
			if cool.After(now) {
				es.CoolingMs = int64(cool.Sub(now) / time.Millisecond)
			}
			gs.Endpoints = append(gs.Endpoints, es)
		}
		st.Groups = append(st.Groups, gs)
	}
	return st
}
