package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is the closed-loop client count of every measured pass: the
// core count of the reference box. Each client sends its next request
// only after the previous one completed.
const numClients = 2

// sample is one completed operation of a pass.
type sample struct {
	idx  int32
	user int32
	// update is the update index of a write op, -1 for a read.
	update int32
	// genLo and genHi bracket the engine generations a read may have been
	// answered by: updates finished before it was sent, and updates
	// started before its response arrived.
	genLo, genHi int32
	lat          time.Duration
	// done is when the op completed, since the pass began.
	done time.Duration
	// answer hashes the response's (tag_ids, influence); influence is
	// kept for the DELAYMAT tolerance check.
	answer    uint64
	influence float64
	failed    bool
}

// httpClient is shared by every load generator in the process; loopback
// keep-alive connections, one per closed-loop client and then some.
var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns: 64, MaxIdleConnsPerHost: 64, IdleConnTimeout: 30 * time.Second,
}}

// caller issues operations against one frontend and parses the answers.
// Each client goroutine owns one (the buffers are reused across ops).
type caller struct {
	base string
	buf  bytes.Buffer
	url  []byte
}

func newCaller(base string) *caller { return &caller{base: base} }

// get runs one GET /selling-points and returns the answer hash, the
// influence, and whether the op failed (transport error, status != 200,
// unparseable body, or a degraded answer).
func (c *caller) get(ctx context.Context, user int) (answer uint64, influence float64, failed bool) {
	c.url = append(c.url[:0], c.base...)
	c.url = append(c.url, "/selling-points?k="...)
	c.url = strconv.AppendInt(c.url, queryK, 10)
	c.url = append(c.url, "&user="...)
	c.url = strconv.AppendInt(c.url, int64(user), 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, string(c.url), nil)
	if err != nil {
		return 0, 0, true
	}
	return c.do(req)
}

func (c *caller) do(req *http.Request) (uint64, float64, bool) {
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, 0, true
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, 0, true
	}
	return parseAnswer(c.buf.Bytes())
}

// post runs one POST /admin/update.
func (c *caller) post(ctx context.Context, body []byte) (failed bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/admin/update", bytes.NewReader(body))
	if err != nil {
		return true
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return true
	}
	_, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return err != nil || resp.StatusCode != http.StatusOK
}

// jsonField returns the raw value bytes of a top-level scalar or
// flat-array field of a /selling-points response. The handler encodes a
// map, so keys are sorted and values never nest a same-named key.
func jsonField(body []byte, key string) []byte {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil
	}
	v := body[i+len(key):]
	end := bytes.IndexAny(v, ",}")
	if len(v) > 0 && v[0] == '[' {
		end = bytes.IndexByte(v, ']') + 1
	}
	if end <= 0 {
		return nil
	}
	return v[:end]
}

// parseAnswer extracts (tag_ids, influence) from a /selling-points body
// without unmarshalling it — at 40k req/s the generator shares two cores
// with the server, and a map decode per op would dominate hot-cache.
func parseAnswer(body []byte) (uint64, float64, bool) {
	tags := jsonField(body, `"tag_ids":`)
	inf := jsonField(body, `"influence":`)
	if tags == nil || inf == nil || bytes.Contains(body, []byte(`"degraded":`)) {
		return 0, 0, true
	}
	influence, err := strconv.ParseFloat(string(inf), 64)
	if err != nil || influence < 1 || tags[0] != '[' {
		return 0, 0, true
	}
	return answerHash(tags, inf), influence, false
}

func answerHash(tags, influence []byte) uint64 {
	return fnv1a(fnv1a(fnv1a(fnvOffset, tags), []byte{'|'}), influence)
}

// mark is a progress reading taken when op index ops-1 completed: the
// pass's elapsed time and the process's cumulative heap allocation.
// Windows between marks give throughput and allocation per op that one
// slow second, or one 2-second hub query, cannot move.
type mark struct {
	ops   int
	at    time.Duration
	alloc uint64
}

// heapAllocBytes reads the cumulative bytes allocated on the heap; unlike
// runtime.ReadMemStats it does not stop the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// passResult is one closed-loop replay of a plan.
type passResult struct {
	samples []sample // sorted by idx
	marks   []mark   // sorted by ops; marks[0] is the start, the last one the end
	wall    time.Duration
}

// runPass replays ops [0, n) of the plan with the given number of
// closed-loop clients, where n is the first cycle boundary at or after
// minOps once budget has elapsed, capped by the plan's limit. Clients draw
// op indices from one shared counter, so exactly ops [0, n) run.
func runPass(ctx context.Context, front *frontend, p *plan, clients, minOps int, budget time.Duration) passResult {
	limit := int64(p.limit())
	cycle := int64(p.cycle())
	var (
		next        atomic.Int64
		stopAt      atomic.Int64 // first op index not to run; limit until the budget is spent
		gensStarted atomic.Int32
		gensDone    atomic.Int32
		// updateMu keeps update j+1 from being sent before update j is
		// acknowledged: the server applies batches in arrival order, and
		// generation g must mean the same batches in every pass.
		updateMu sync.Mutex
		wg       sync.WaitGroup
	)
	stopAt.Store(limit)
	perClient := make([][]sample, clients)
	clientMarks := make([][]mark, clients)
	markEvery := int64(p.markEvery())
	first := mark{alloc: heapAllocBytes()}
	start := time.Now()
	deadline := start.Add(budget)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newCaller(front.url)
			out := make([]sample, 0, 1<<12)
			for {
				i := next.Add(1) - 1
				if i >= stopAt.Load() {
					break
				}
				if i >= int64(minOps) && i%cycle == 0 && !time.Now().Before(deadline) {
					// Budget spent at a cycle boundary: nobody runs op i or later.
					for {
						cur := stopAt.Load()
						if i >= cur || stopAt.CompareAndSwap(cur, i) {
							break
						}
					}
					break
				}
				user, upd := p.op(int(i))
				s := sample{idx: int32(i), user: int32(user), update: int32(upd)}
				t0 := time.Now()
				if upd >= 0 {
					updateMu.Lock()
					t0 = time.Now()
					gensStarted.Add(1)
					s.failed = cl.post(ctx, p.updates[upd])
					s.lat = time.Since(t0)
					gensDone.Add(1)
					updateMu.Unlock()
				} else {
					s.genLo = gensDone.Load()
					s.answer, s.influence, s.failed = cl.get(ctx, user)
					s.lat = time.Since(t0)
					s.genHi = gensStarted.Load()
				}
				s.done = time.Since(start)
				out = append(out, s)
				if (i+1)%markEvery == 0 {
					clientMarks[c] = append(clientMarks[c], mark{int(i + 1), s.done, heapAllocBytes()})
				}
			}
			perClient[c] = out
		}(c)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start)}
	n := stopAt.Load()
	res.marks = []mark{first}
	for _, ms := range clientMarks {
		for _, m := range ms {
			if int64(m.ops) <= n {
				res.marks = append(res.marks, m)
			}
		}
	}
	sort.Slice(res.marks, func(i, j int) bool { return res.marks[i].ops < res.marks[j].ops })
	if last := res.marks[len(res.marks)-1]; int64(last.ops) < n {
		res.marks = append(res.marks, mark{int(n), res.wall, heapAllocBytes()})
	}
	res.samples = make([]sample, n)
	for _, out := range perClient {
		for _, s := range out {
			if int64(s.idx) < n {
				res.samples[s.idx] = s
			}
		}
	}
	return res
}

// warm fills the result cache with the plan's hot keys (no-op for cold
// plans), two clients like a measured pass.
func warm(ctx context.Context, front *frontend, p *plan) error {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newCaller(front.url)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.hot) {
					return
				}
				if _, _, bad := cl.get(ctx, p.hot[i]); bad {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", n, len(p.hot))
	}
	return nil
}
