package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pitex"
	"pitex/internal/rng"
)

// queryK is the tag-set size of every benchmark query (the paper's
// default interactive size).
const queryK = 3

// fleetShards is the shard-server count of the fleet-scatter deployment.
const fleetShards = 3

// workload is one traffic mix over one deployment. The rationale for each
// lives in README.md and in BENCHMARK.json's "why".
type workload struct {
	name     string
	strategy pitex.Strategy
	dataset  pitex.DatasetSpec
	// fleet deploys three shard servers behind a coordinator instead of
	// one serve.Server.
	fleet bool
	// clients is the closed-loop client count of a measured pass.
	clients int
	// hotKeys > 0 draws reads Zipf(1.1) over that many users, all warmed
	// before measurement; 0 draws distinct users (every op a cache miss).
	hotKeys int
	// updateEvery > 0 turns op i into a POST /admin/update whenever
	// i % updateEvery == updateEvery/2, so reads precede and follow every
	// update of a pass.
	updateEvery int
	// digestOps is the op prefix every pass completes and the digest
	// covers; traceOps is the prefix the traced phase replays over HTTP
	// and Server.SellingPoints, traceUsers the distinct users it replays
	// against the engine and explorer boundaries.
	digestOps, traceOps, traceUsers int
	// maxOps > 0 bounds a pass by count instead of time (tiny scale).
	maxOps int
	// cohort is the analytics sweep size (0 skips the sweep); openLoop the
	// request count of the open-loop probe (0 skips it).
	cohort, openLoop int
}

var (
	// datasetA is the paper's diggs shape, datasetB the lastfm-scale
	// "headline" spec of BenchmarkQuerySingle.
	datasetA = pitex.DatasetSpec{Name: "diggs", Users: 15000, Edges: 200000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.25}
	datasetB = pitex.DatasetSpec{Name: "headline", Users: 1500, Edges: 15000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3}
)

// workloads returns the five workloads at the given scale ("full" or
// "tiny"). Tiny runs every deployment on dataset B ÷ 4 with count-bounded
// passes; it exists for the smoke test, not for measurement.
func workloads(scale string) ([]workload, error) {
	ws := []workload{
		{name: "cold-query", strategy: pitex.StrategyIndexPruned, dataset: datasetA, clients: numClients,
			digestOps: 100, traceOps: 100, traceUsers: 100, cohort: 64, openLoop: 320},
		// One client: two DELAYMAT pool clones slow each other down 2.5x in
		// about half of all server instances (see README, "Anomalies"), which
		// would make every metric of the workload bimodal.
		{name: "cold-delaymat", strategy: pitex.StrategyDelay, dataset: datasetA, clients: 1,
			digestOps: 30, traceOps: 30, traceUsers: 30, cohort: 32},
		{name: "hot-cache", strategy: pitex.StrategyIndexPruned, dataset: datasetA, clients: numClients,
			hotKeys: 256, digestOps: 2000, traceOps: 20000, traceUsers: 48},
		{name: "fleet-scatter", strategy: pitex.StrategyIndexPruned, dataset: datasetB, fleet: true, clients: numClients,
			digestOps: 24, traceOps: 24, traceUsers: 24},
		{name: "update-mix", strategy: pitex.StrategyIndexPruned, dataset: datasetA, clients: numClients,
			hotKeys: 128, updateEvery: 1000, digestOps: 400, traceOps: 2000, traceUsers: 48},
	}
	switch scale {
	case "full":
	case "tiny":
		tiny := datasetB.Scaled(0.25)
		for i := range ws {
			w := &ws[i]
			w.dataset = tiny
			w.maxOps = 48
			w.digestOps, w.traceOps, w.traceUsers = 12, 24, 8
			if w.hotKeys > 0 {
				w.hotKeys = 8
			}
			if w.updateEvery > 0 {
				w.updateEvery = 16
				w.digestOps = 6
			}
			if w.cohort > 0 {
				w.cohort = 8
			}
			if w.openLoop > 0 {
				w.openLoop = 16
			}
			if w.fleet {
				// ~150 scatters per query even on the tiny graph.
				w.maxOps, w.digestOps, w.traceOps, w.traceUsers = 12, 6, 6, 4
			}
		}
	default:
		return nil, fmt.Errorf("unknown -scale %q (want full or tiny)", scale)
	}
	return ws, nil
}

// stackSeed seeds the dataset generator and the engine of every
// deployment. It is pinned, and -seed drives the request sequence only:
// across ten graph seeds fleet-scatter's p50 moved 78-112 ms with the graph
// alone, four times the machine's own noise, and a benchmark whose numbers
// move that much with its seed cannot hold a 10-25 % regression bound.
const stackSeed = 1

// engineOptions are cmd/pitexserve's flag defaults.
func (w *workload) engineOptions() pitex.Options {
	o := pitex.Options{
		Strategy: w.strategy, Epsilon: 0.7, Delta: 1000, MaxK: 10, Seed: stackSeed,
		MaxSamples: 5000, MaxIndexSamples: 200000, CheapBounds: true, TrackUpdates: true,
	}
	if w.fleet {
		o.IndexShards = fleetShards
	}
	return o
}

// plan is a workload's seeded request sequence: which user read op i
// asks for, and which update batch a write op posts. It is a pure function
// of (workload, seed, network), so every pass and every boundary replay
// sees the same inputs.
//
// Users are drawn stratified by out-degree (see stratifiedUsers): every
// window of the sequence has the population's mix of trivial (degree-0)
// and hub users, whichever seed shuffled it — query cost spans three orders of
// magnitude with the user's reach, and a plain permutation made ops/s of a
// 60-op pass depend on how many hubs the seed happened to deal.
type plan struct {
	w *workload
	// users is the read sequence; cold workloads never wrap it (a pass
	// ends when it is exhausted), hot ones index it modulo its length.
	users []int32
	// hot lists the warmed keys, most popular first.
	hot []int
	// updates are the pre-marshalled POST bodies, batches the same
	// mutations staged for Engine.ApplyUpdates.
	updates [][]byte
	batches []updateBody
}

// zipfSequenceLen is how many Zipf draws a hot plan precomputes before
// wrapping; large enough that a pass never replays a draw at today's
// ~40k req/s.
const zipfSequenceLen = 1 << 19

// maxUpdates bounds the update batches a plan stages (a pass applies one
// per updateEvery ops).
const maxUpdates = 48

// userStrata is the number of out-degree slices the user sequence deals
// from, one draw per slice per round.
const userStrata = 32

// stratifiedUsers returns every user once: users are sorted by out-degree
// and cut into userStrata slices, and the sequence deals from the slices
// round-robin, so every userStrata consecutive draws — a round — are one
// user from each slice, and rounds, and the throughput windows made of
// them, have the population's mix.
//
// Which users form round k is pinned like the dataset (the slices are
// shuffled from stackSeed); the seed r only shuffles the order within each
// round. DELAYMAT's cost is heavy-tailed even inside the top slice (30 ms
// to 2 s), so with seeded membership ops/s of a 150-op pass still moved
// 25 % with the seed; with pinned membership every seed asks the same
// questions in a different order.
func stratifiedUsers(r *rng.Source, net *pitex.Network) []int {
	n := net.NumUsers()
	byDegree := make([]int, n)
	for u := range byDegree {
		byDegree[u] = u
	}
	sort.SliceStable(byDegree, func(i, j int) bool {
		return net.OutDegree(byDegree[i]) < net.OutDegree(byDegree[j])
	})
	pinned := rng.New(rng.Mix(stackSeed, 0x57a7a))
	strata := make([][]int, userStrata)
	for s := range strata {
		sl := byDegree[s*n/userStrata : (s+1)*n/userStrata]
		pinned.Shuffle(len(sl), func(i, j int) { sl[i], sl[j] = sl[j], sl[i] })
		strata[s] = sl
	}
	out := make([]int, 0, n)
	for i := 0; len(out) < n; i++ {
		if sl := strata[i%userStrata]; i/userStrata < len(sl) {
			out = append(out, sl[i/userStrata])
		}
	}
	for lo := 0; lo < n; lo += userStrata {
		round := out[lo:min(lo+userStrata, n)]
		r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	}
	return out
}

func newPlan(w *workload, seed uint64, net *pitex.Network) *plan {
	p := &plan{w: w}
	r := rng.New(rng.Mix(seed, 0x9e12, uint64(len(w.name))))
	perm := stratifiedUsers(r, net)
	if w.hotKeys == 0 {
		p.users = make([]int32, len(perm))
		for i, u := range perm {
			p.users[i] = int32(u)
		}
		return p
	}
	p.hot = perm[:w.hotKeys]
	// Zipf(1.1) by inverse CDF over the hot keys: rank j has weight
	// 1/(j+1)^1.1.
	cdf := make([]float64, w.hotKeys)
	var sum float64
	for j := range cdf {
		sum += 1 / math.Pow(float64(j+1), 1.1)
		cdf[j] = sum
	}
	n := zipfSequenceLen
	if w.maxOps > 0 {
		n = w.maxOps
	}
	p.users = make([]int32, n)
	for i := range p.users {
		j := sort.SearchFloat64s(cdf, r.Float64()*sum)
		if j >= len(cdf) {
			j = len(cdf) - 1
		}
		p.users[i] = int32(p.hot[j])
	}
	if w.updateEvery > 0 {
		p.stageUpdates(r, net)
	}
	return p
}

// updateBody is the /admin/update JSON body.
type updateBody struct {
	InsertEdges []updateEdge `json:"insert_edges"`
	DeleteEdges []updateEdge `json:"delete_edges"`
}

type updateEdge struct {
	From  int          `json:"from"`
	To    int          `json:"to"`
	Probs []updateProb `json:"probs,omitempty"`
}

type updateProb struct {
	Topic int     `json:"topic"`
	Prob  float64 `json:"prob"`
}

// batch stages the body for Engine.ApplyUpdates in the order the HTTP
// handler stages it (deletes, then inserts).
func (b updateBody) batch() *pitex.UpdateBatch {
	var ub pitex.UpdateBatch
	for _, e := range b.DeleteEdges {
		ub.DeleteEdge(e.From, e.To)
	}
	for _, e := range b.InsertEdges {
		probs := make([]pitex.TopicProb, len(e.Probs))
		for i, p := range e.Probs {
			probs[i] = pitex.TopicProb{Topic: p.Topic, Prob: p.Prob}
		}
		ub.InsertEdge(e.From, e.To, probs...)
	}
	return &ub
}

// stageUpdates builds maxUpdates batches of 10 inserts + 10 deletes.
// Deletes draw disjoint (from, to) pairs of the original network, so every
// batch stays valid whatever was applied before it.
func (p *plan) stageUpdates(r *rng.Source, net *pitex.Network) {
	const perBatch = 10
	var pairs [][2]int
	seen := make(map[[2]int]bool)
	net.ForEachEdge(func(e pitex.Edge) bool {
		k := [2]int{e.From, e.To}
		if !seen[k] {
			seen[k] = true
			pairs = append(pairs, k)
		}
		return true
	})
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	n := maxUpdates
	if len(pairs) < n*perBatch {
		n = len(pairs) / perBatch
	}
	for j := 0; j < n; j++ {
		var body updateBody
		for _, pr := range pairs[j*perBatch : (j+1)*perBatch] {
			body.DeleteEdges = append(body.DeleteEdges, updateEdge{From: pr[0], To: pr[1]})
		}
		for len(body.InsertEdges) < perBatch {
			from, to := r.Intn(net.NumUsers()), r.Intn(net.NumUsers())
			if from == to {
				continue
			}
			body.InsertEdges = append(body.InsertEdges, updateEdge{From: from, To: to, Probs: []updateProb{
				{Topic: r.Intn(net.NumTopics()), Prob: 0.05 + 0.3*r.Float64()},
			}})
		}
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err) // plain ints and floats always marshal
		}
		p.updates = append(p.updates, raw)
		p.batches = append(p.batches, body)
	}
}

// op resolves op index i: the user a read asks for, or the update index
// (>= 0) a write posts.
func (p *plan) op(i int) (user int, update int) {
	if ue := p.w.updateEvery; ue > 0 && i%ue == ue/2 {
		return 0, i / ue
	}
	if p.w.hotKeys > 0 {
		return int(p.users[i%len(p.users)]), -1
	}
	return int(p.users[i]), -1
}

// limit is the op count past which a pass cannot continue: the tiny-scale
// cap, the distinct users of a cold plan, or the staged updates.
func (p *plan) limit() int {
	n := math.MaxInt32
	if p.w.maxOps > 0 {
		n = p.w.maxOps
	}
	if p.w.hotKeys == 0 && len(p.users) < n {
		n = len(p.users)
	}
	if ue := p.w.updateEvery; ue > 0 && len(p.updates)*ue < n {
		n = len(p.updates) * ue
	}
	return n
}

// cycle is the op granularity a time-bounded pass ends on, and the unit
// throughput windows are made of: one read/update cycle on update
// workloads, one round of the degree strata on cold ones — so every pass,
// and every window, measures the same mix of cheap and expensive ops.
func (p *plan) cycle() int {
	switch {
	case p.w.updateEvery > 0:
		return p.w.updateEvery
	case p.w.hotKeys == 0:
		return userStrata
	}
	return 1
}

// markEvery is how many ops apart a pass takes its progress marks: one
// cycle, or on hot-cache (whose cycle is a single ~30 µs op) a tenth of a
// second's worth.
func (p *plan) markEvery() int {
	if c := p.cycle(); c > 1 {
		return c
	}
	return 4096
}

// distinctUsers returns the first n distinct read users of the sequence
// and, for each, the op index of its first read.
func (p *plan) distinctUsers(n int) (users, firstOp []int) {
	seen := make(map[int]bool)
	for i := 0; len(users) < n && i < len(p.users) && i < p.limit(); i++ {
		u, upd := p.op(i)
		if upd >= 0 || seen[u] {
			continue
		}
		seen[u] = true
		users = append(users, u)
		firstOp = append(firstOp, i)
	}
	return users, firstOp
}
