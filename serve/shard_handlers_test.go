package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/faultinject"
)

// startFig2Shards builds a shard server owning ALL shards of a 2-way
// layout under the given strategy.
func startFig2Shards(t *testing.T, s pitex.Strategy, track bool) (*ShardServer, *httptest.Server) {
	t.Helper()
	net, model := fig2NetModel(t)
	opts := fig2Options(s, 2)
	opts.TrackUpdates = track
	ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: 2})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ss.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	ts := httptest.NewServer(ss.Handler())
	t.Cleanup(ts.Close)
	return ss, ts
}

func TestShardServerStatszAndInfo(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)

	status, stats := getDoc(t, ts.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("/statsz = %d", status)
	}
	for _, key := range []string{"generation", "shards", "owned", "strategy", "latency", "inflight", "rejected", "timeouts"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/statsz missing %q: %v", key, stats)
		}
	}

	resp, err := http.Get(ts.URL + "/shard/info")
	if err != nil {
		t.Fatalf("GET /shard/info: %v", err)
	}
	defer resp.Body.Close()
	var info distrib.InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	if !info.Ready || info.TotalShards != 2 || len(info.Shards) != 2 || info.TotalUsers != 7 {
		t.Fatalf("info = %+v", info)
	}
	for _, si := range info.Shards {
		if si.Theta <= 0 || si.Graphs <= 0 {
			t.Fatalf("shard row %+v lacks θ/graphs", si)
		}
	}
}

// TestShardServerDelayStrategy: DELAYEST shard servers serve counters
// and generation-keyed repairs but refuse /shard/estimate (the delay
// estimator's RNG stream cannot be replayed across processes).
func TestShardServerDelayStrategy(t *testing.T) {
	for _, track := range []bool{true, false} {
		ss, ts := startFig2Shards(t, pitex.StrategyDelay, track)

		if status, _ := postEstimate(t, ts.URL, distrib.EstimateRequest{User: 0, Frontier: [][]float64{{1, 0, 0}}}); status != http.StatusNotImplemented {
			t.Fatalf("track=%v: DELAYEST estimate = %d, want 501", track, status)
		}

		resp, err := http.Get(ts.URL + "/shard/counters?user=0")
		if err != nil {
			t.Fatalf("track=%v: GET counters: %v", track, err)
		}
		var counters distrib.CountersResponse
		err = json.NewDecoder(resp.Body).Decode(&counters)
		resp.Body.Close()
		if err != nil || len(counters.Counts) != 2 {
			t.Fatalf("track=%v: counters = %+v, %v", track, counters, err)
		}
		for _, row := range counters.Counts {
			if row.Theta <= 0 || row.Users <= 0 {
				t.Fatalf("track=%v: counter row %+v", track, row)
			}
		}

		// Repair (track=true) or rebuild (track=false) to generation 1.
		upd, _ := json.Marshal(distrib.BatchToRequest(fig2Batch(), 1))
		resp, err = http.Post(ts.URL+"/shard/update", "application/json", bytes.NewReader(upd))
		if err != nil {
			t.Fatalf("track=%v: POST update: %v", track, err)
		}
		var ur distrib.UpdateResponse
		err = json.NewDecoder(resp.Body).Decode(&ur)
		resp.Body.Close()
		if err != nil || ur.Generation != 1 {
			t.Fatalf("track=%v: update response %+v, %v", track, ur, err)
		}
		if got := ss.Generation(); got != 1 {
			t.Fatalf("track=%v: generation = %d after update", track, got)
		}
		if status, _ := getDoc(t, ts.URL+"/shard/counters?user=0&generation=1"); status != http.StatusOK {
			t.Fatalf("track=%v: post-update counters = %d", track, status)
		}
	}
}

// resealed returns frame with patch applied and its trailing CRC-32C
// recomputed, so a test reaches the checks behind the checksum.
func resealed(frame []byte, patch func(b []byte)) []byte {
	b := bytes.Clone(frame)
	patch(b)
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// TestShardServerBadFrames: the frame decoder is the trust boundary of
// the frontier form. Against a real ShardServer serving 3 topics, every
// malformed frame is a 400 — what JSON rejected by construction (rows of
// the wrong or of unequal width, NaN, ±Inf) and what it could not express
// (foreign magic, declared counts that do not match the bytes, a failed
// checksum, a torn or oversized body, the wrong Content-Type) — a frame
// is held to the same user range and generation rules as JSON, and a
// well-formed one is answered in kind.
func TestShardServerBadFrames(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	post := func(ctype string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/shard/estimate", ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	encode := func(req distrib.EstimateRequest) []byte {
		t.Helper()
		b, err := distrib.EncodeFrontierRequest(req)
		if err != nil {
			t.Fatalf("EncodeFrontierRequest: %v", err)
		}
		return b
	}
	good := encode(distrib.EstimateRequest{User: 0, Frontier: [][]float64{{0.2, 0.3, 0.5}, {0.5, 0.25, 0.25}}})
	// Layout (distrib/frame.go): user at 4, generation at 12, rows at 20,
	// topics at 24, weights from 28, CRC-32C in the last 4 bytes.
	le := binary.LittleEndian
	flipped := bytes.Clone(good)
	flipped[40] ^= 1
	bad := map[string][]byte{
		"rows shorter than the topic count":   encode(distrib.EstimateRequest{Frontier: [][]float64{{0.5, 0.5}, {0.1, 0.9}}}),
		"row longer than the topic count":     encode(distrib.EstimateRequest{Frontier: [][]float64{{0.1, 0.2, 0.3, 0.4}}}),
		"ragged: 2x2 declared over 6 weights": resealed(good, func(b []byte) { le.PutUint32(b[24:], 2) }),
		"ragged: 3x3 declared over 6 weights": resealed(good, func(b []byte) { le.PutUint32(b[20:], 3) }),
		"no rows":                             resealed(good[:32], func(b []byte) { le.PutUint32(b[20:], 0) }),
		"oversized counts":                    resealed(good, func(b []byte) { le.PutUint64(b[20:], math.MaxUint64) }),
		"counts whose byte size overflows":    resealed(good, func(b []byte) { le.PutUint32(b[20:], 1<<31); le.PutUint32(b[24:], 1<<30) }),
		"NaN weight":                          resealed(good, func(b []byte) { le.PutUint64(b[28:], math.Float64bits(math.NaN())) }),
		"+Inf weight":                         resealed(good, func(b []byte) { le.PutUint64(b[36:], math.Float64bits(math.Inf(1))) }),
		"-Inf weight":                         resealed(good, func(b []byte) { le.PutUint64(b[68:], math.Float64bits(math.Inf(-1))) }),
		"foreign magic":                       resealed(good, func(b []byte) { b[2] = 'R' }),
		"future version":                      resealed(good, func(b []byte) { b[3] = 2 }),
		"flipped weight bit, stale checksum":  flipped,
		"corrupt-fault image":                 faultinject.CorruptBytes(good),
		"torn":                                good[:len(good)-9],
		"trailing byte":                       append(bytes.Clone(good), 0),
		"header only":                         good[:28],
		"empty":                               {},
		"out-of-range user":                   resealed(good, func(b []byte) { le.PutUint64(b[4:], 99) }),
		"negative user":                       resealed(good, func(b []byte) { le.PutUint64(b[4:], math.MaxUint64) }),
		"over the body cap":                   make([]byte, maxEstimateBody+1),
		"a JSON probe":                        []byte(`{"user":0,"probe":{"posterior":[1,0,0]}}`),
	}
	for name, frame := range bad {
		if got := post(distrib.FrontierContentType, frame); got != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, got)
		}
	}
	if got := post("application/json", good); got != http.StatusBadRequest {
		t.Errorf("frame sent as JSON = %d, want 400", got)
	}
	if got := post(distrib.FrontierContentType, resealed(good, func(b []byte) { le.PutUint64(b[12:], 5) })); got != http.StatusConflict {
		t.Errorf("frame at an unknown generation = %d, want 409", got)
	}
	if got := post(distrib.FrontierContentType, good); got != http.StatusOK {
		t.Errorf("well-formed frame = %d, want 200", got)
	}
	if status, resp := postEstimate(t, ts.URL, distrib.EstimateRequest{Frontier: [][]float64{{0.2, 0.3, 0.5}, {0, 0, 1}}}); status != http.StatusOK ||
		len(resp.Frontier) != 2 || len(resp.Frontier[0]) != 2 || len(resp.Frontier[1]) != 2 {
		t.Errorf("well-formed frame answered %d %+v, want 2 shard rows of 2 partials", status, resp)
	}
}

func TestShardServerBadRequests(t *testing.T) {
	_, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/shard/estimate", "{nope"); got != http.StatusBadRequest {
		t.Errorf("malformed estimate body = %d", got)
	}
	if got := post("/shard/estimate", `{"user":99,"probe":{"posterior":[1,0,0]}}`); got != http.StatusBadRequest {
		t.Errorf("out-of-range user = %d", got)
	}
	if got := post("/shard/estimate", `{"user":0,"probe":{}}`); got != http.StatusBadRequest {
		t.Errorf("empty probe = %d", got)
	}
	// An estimate has no JSON spelling any more: the old per-candidate
	// probe is refused however well-formed, and so is a body carrying
	// "frontier", alone or beside a probe.
	for _, body := range []string{
		`{"user":0,"probe":{"posterior":[0.2,0.3,0.5]}}`,
		`{"user":0,"generation":0,"probe":{"posterior":[1,0,0]}}`,
		`{"user":0,"frontier":[[0.2,0.3,0.5],[0.5,0.25,0.25]]}`,
		`{"user":0,"frontier":[[0.2,0.3,0.5],[0.5,0.5]]}`,
		`{"user":0,"probe":{"posterior":[1,0,0]},"frontier":[[0.2,0.3,0.5]]}`,
		`{"user":0,"probe":{"bound_weights":[1]},"frontier":[[0.2,0.3,0.5]]}`,
	} {
		if got := post("/shard/estimate", body); got != http.StatusBadRequest {
			t.Errorf("JSON estimate %s = %d", body, got)
		}
	}
	if got := post("/shard/update", "{nope"); got != http.StatusBadRequest {
		t.Errorf("malformed update body = %d", got)
	}
	if status, _ := getDoc(t, ts.URL+"/shard/counters"); status != http.StatusBadRequest {
		t.Errorf("counters without user = %d", status)
	}
	if status, _ := getDoc(t, ts.URL+"/shard/counters?user=0&generation=zap"); status != http.StatusBadRequest {
		t.Errorf("counters with bad generation = %d", status)
	}
	if status, _ := getDoc(t, ts.URL+"/shard/counters?user=99"); status != http.StatusBadRequest {
		t.Errorf("counters with out-of-range user = %d", status)
	}
}

// TestEstimateRemoteWrongWidthIsBadRequest: a posterior that is not one
// value per topic, sent through the client's EstimateRemote to a real
// ShardServer serving 3 topics, is refused by Validate with a 400 before
// any scan — never an index panic recovered into a 500, never an answer
// — and the client counts the group missing.
func TestEstimateRemoteWrongWidthIsBadRequest(t *testing.T) {
	ss, ts := startFig2Shards(t, pitex.StrategyIndexPruned, false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := distrib.Dial(ctx, [][]string{{ts.URL}}, distrib.Options{ReconcileInterval: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	for _, post := range [][]float64{{0.5, 0.5}, {0.25, 0.25, 0.25, 0.25}} {
		_, err := c.EstimateRemote(ctx, 0, pitex.RemoteProbe{Posterior: post})
		if err == nil || !strings.Contains(err.Error(), "no shard responded") ||
			!strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), "one per topic") {
			t.Errorf("%d-value posterior: err = %v, want its group missing on Validate's 400", len(post), err)
		}
	}
	if n := ss.panics.Value(); n != 0 {
		t.Fatalf("pitex_panics_total = %d, want 0", n)
	}
	if n := c.Status().Groups[0].Endpoints[0].ConsecutiveFailures; n != 2 {
		t.Fatalf("endpoint failures = %d, want one per refused estimate", n)
	}
}

// TestShardServerAcquire drives the shard's admission gate directly: a
// free slot, a queued wait that times out, shedding beyond QueueDepth,
// context cancellation while queued, and a context cancelled before it
// arrives, which must not take a free slot.
func TestShardServerAcquire(t *testing.T) {
	net, model := fig2NetModel(t)
	ss, err := NewShardServer(net, model, fig2Options(pitex.StrategyIndexPruned, 1), ShardConfig{
		Workers: 1, QueueDepth: 1, QueueTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	t.Cleanup(ss.Close)
	g := ss.gate
	ctx := context.Background()

	if err := g.enter(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Slot held: the queue admits one waiter, which times out.
	if err := g.enter(ctx); err != ErrQueueTimeout {
		t.Fatalf("queued acquire err = %v, want ErrQueueTimeout", err)
	}

	// Two concurrent waiters exceed QueueDepth: one of them must be shed
	// with ErrOverloaded (which one depends on arrival order), the other
	// times out in the queue.
	waiting := make(chan error, 1)
	go func() { waiting <- g.enter(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	shed, bgDone := false, false
	for time.Now().Before(deadline) && !shed {
		if err := g.enter(ctx); err == ErrOverloaded {
			shed = true
		}
		select {
		case bgErr := <-waiting:
			bgDone = true
			if bgErr == ErrOverloaded {
				shed = true
			} else if bgErr != ErrQueueTimeout {
				t.Fatalf("background waiter err = %v", bgErr)
			}
		default:
		}
	}
	if !shed {
		t.Fatal("never shed with a full queue")
	}
	if !bgDone {
		<-waiting
	}

	// Context cancellation while queued.
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	g.timeout = time.Minute
	if err := g.enter(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire err = %v, want context.Canceled", err)
	}

	g.leave()
	// A request already cancelled when it arrives — a hedge loser, a
	// disconnected coordinator — is refused even with the slot free.
	if err := g.enter(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled acquire err = %v, want context.Canceled", err)
	}
	if n := g.inUse.Load(); n != 0 {
		t.Fatalf("pre-cancelled acquire left %d slots in flight, want 0", n)
	}
	if err := g.enter(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.leave()
}
