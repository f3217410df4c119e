// Command pitexchaos is a deterministic chaos soak for the distributed
// serving plane: it stands up an in-process scatter-gather cluster
// (coordinator + replicated shard servers), then walks it through seeded
// fault episodes — estimate-path noise, replica kills, whole-group
// outages, past-horizon gaps, corrupted payloads — while continuously
// asserting the system's robustness invariants:
//
//   - Every query answer is either exact (byte-equal to a fault-free
//     reference engine) or explicitly degraded with a correctly computed
//     achieved ε = ε·sqrt(θ_total/θ_responding).
//   - After faults stop, every endpoint converges to the head generation
//     without a restart: small gaps heal by update-journal replay, gaps
//     past the journal horizon heal by /shard/resync full-state copy.
//   - Replicas of the same group serialize byte-identically afterwards.
//   - The whole stack tears down without leaking goroutines.
//
// All randomness (topology, update batches, query mix, fault schedules)
// derives from -seeds, so a failure reproduces by rerunning the seed.
//
// Usage:
//
//	pitexchaos -seeds 1,2,3
//	pitexchaos -seeds 7 -queries 20 -v
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/faultinject"
	"pitex/internal/rng"
	"pitex/serve"
)

func main() {
	var (
		seedList = flag.String("seeds", "1,2,3", "comma-separated soak seeds; each runs one full episode sequence")
		queries  = flag.Int("queries", 12, "queries per episode")
		groups   = flag.Int("groups", 3, "shard groups S")
		replicas = flag.Int("replicas", 2, "replicas per group")
		horizon  = flag.Int("horizon", 4, "coordinator journal horizon (generations)")
		verbose  = flag.Bool("v", false, "log per-episode progress")
	)
	flag.Parse()
	cfg := soakConfig{
		users: 24, topics: 3, tags: 5,
		groups: *groups, replicas: *replicas,
		horizon: *horizon, queries: *queries, verbose: *verbose,
	}
	failed := false
	for _, f := range strings.Split(*seedList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		seed, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pitexchaos: bad seed %q: %v\n", f, err)
			os.Exit(2)
		}
		rep, err := runSoak(cfg, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pitexchaos: seed %d FAILED: %v\n", seed, err)
			failed = true
			continue
		}
		fmt.Printf("seed %d ok: gen %d, %d exact, %d degraded, %d replays, %d resyncs, digest %s\n",
			seed, rep.finalGen, rep.exact, rep.degraded, rep.journalReplays, rep.resyncs, rep.digest[:12])
	}
	if failed {
		os.Exit(1)
	}
}

type soakConfig struct {
	users, topics, tags int
	groups, replicas    int
	horizon             int
	queries             int
	verbose             bool
}

type soakReport struct {
	finalGen       uint64
	exact          int
	degraded       int
	journalReplays int64
	resyncs        int64
	digest         string
}

// chaosProxy fronts one shard server; killed connections are torn down
// mid-flight (http.ErrAbortHandler aborts without a response), the shape
// of a crashed process rather than a clean 5xx.
type chaosProxy struct {
	inner http.Handler
	dead  atomic.Bool
}

func (p *chaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	p.inner.ServeHTTP(w, r)
}

// buildNet generates the seeded soak topology. Called twice per soak —
// once for the shard fleet, once for the fault-free reference engine —
// and fully deterministic in seed, so the two are identical.
func buildNet(cfg soakConfig, seed uint64) (*pitex.Network, *pitex.TagModel, [][2]int, error) {
	r := rng.New(rng.Mix(seed, 0xc11a05))
	nb := pitex.NewNetworkBuilder(cfg.users, cfg.topics)
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for from := 0; from < cfg.users; from++ {
		for e := 0; e < 2; e++ {
			to := r.Intn(cfg.users)
			if to == from || seen[[2]int{from, to}] {
				continue
			}
			seen[[2]int{from, to}] = true
			edges = append(edges, [2]int{from, to})
			nb.AddEdge(from, to,
				pitex.TopicProb{Topic: r.Intn(cfg.topics), Prob: 0.2 + 0.6*r.Float64()})
		}
	}
	net, err := nb.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := pitex.NewTagModel(cfg.tags, cfg.topics)
	if err != nil {
		return nil, nil, nil, err
	}
	for w := 0; w < cfg.tags; w++ {
		row := make([]float64, cfg.topics)
		var sum float64
		for z := range row {
			row[z] = 0.1 + r.Float64()
			sum += row[z]
		}
		for z, p := range row {
			if err := model.SetTagTopic(w, z, p/sum); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return net, model, edges, nil
}

func soakOptions(cfg soakConfig, seed uint64) pitex.Options {
	return pitex.Options{
		Strategy:        pitex.StrategyIndexPruned,
		Epsilon:         0.15,
		Delta:           200,
		MaxK:            4,
		Seed:            rng.Mix(seed, 0xe716), // engine seed, decorrelated from topology
		MaxSamples:      20000,
		MaxIndexSamples: 20000,
		IndexShards:     cfg.groups,
	}
}

// soak bundles the running cluster plus the lockstep reference engine.
type soak struct {
	cfg     soakConfig
	seed    uint64
	coord   *serve.Server
	client  *distrib.Client
	servers []*serve.ShardServer
	proxies [][]*chaosProxy  // [group][replica]
	urls    [][]string       // [group][replica]
	ref     *pitex.Engine    // fault-free reference, updated in lockstep
	edges   map[[2]int][]int // live edge set -> topic ids (mutation targets)
	mut     *rng.Source      // drives update batches
	qmix    *rng.Source      // drives the query mix
	exact   int
	degr    int
	digest  *bytes.Buffer // final-phase evidence, hashed into the report
}

func runSoak(cfg soakConfig, seed uint64) (soakReport, error) {
	goroutinesBefore := runtime.NumGoroutine()
	s, closers, err := setupSoak(cfg, seed)
	if err != nil {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		return soakReport{}, err
	}
	rep, soakErr := s.episodes()
	faultinject.Disable()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
	if soakErr != nil {
		return soakReport{}, soakErr
	}
	// Leak check: everything we started must be gone. Allow small slack
	// for runtime-internal goroutines settling.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			return soakReport{}, fmt.Errorf("goroutine leak: %d before, %d after teardown",
				goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return rep, nil
}

func setupSoak(cfg soakConfig, seed uint64) (*soak, []func(), error) {
	var closers []func()
	net, model, edges, err := buildNet(cfg, seed)
	if err != nil {
		return nil, closers, err
	}
	opts := soakOptions(cfg, seed)

	s := &soak{
		cfg: cfg, seed: seed,
		proxies: make([][]*chaosProxy, cfg.groups),
		urls:    make([][]string, cfg.groups),
		edges:   make(map[[2]int][]int, len(edges)),
		mut:     rng.New(rng.Mix(seed, 0xba7c4)),
		qmix:    rng.New(rng.Mix(seed, 0x9e12)),
		digest:  &bytes.Buffer{},
	}
	for _, e := range edges {
		s.edges[e] = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for g := 0; g < cfg.groups; g++ {
		for r := 0; r < cfg.replicas; r++ {
			ss, err := serve.NewShardServer(net, model, opts, serve.ShardConfig{
				TotalShards: cfg.groups, Owned: []int{g},
			})
			if err != nil {
				return nil, closers, fmt.Errorf("shard server %d/%d: %w", g, r, err)
			}
			closers = append(closers, ss.Close)
			if err := ss.WaitReady(ctx); err != nil {
				return nil, closers, fmt.Errorf("shard %d/%d build: %w", g, r, err)
			}
			px := &chaosProxy{inner: ss.Handler()}
			ts := httptest.NewServer(px)
			closers = append(closers, ts.Close)
			s.servers = append(s.servers, ss)
			s.proxies[g] = append(s.proxies[g], px)
			s.urls[g] = append(s.urls[g], ts.URL)
		}
	}
	client, err := distrib.Dial(ctx, s.urls, distrib.Options{
		ShardDeadline:     2 * time.Second,
		ReconcileInterval: 25 * time.Millisecond,
		JournalHorizon:    cfg.horizon,
		JitterSeed:        seed,
	})
	if err != nil {
		return nil, closers, fmt.Errorf("dial: %w", err)
	}
	ren, err := pitex.NewRemoteEngine(net, model, opts, client)
	if err != nil {
		client.Close()
		return nil, closers, err
	}
	coord, err := serve.NewCoordinator(ren, client, pitex.ServeOptions{
		PoolSize: 2, CacheCapacity: -1, // no cache: every answer is a live scatter
	})
	if err != nil {
		client.Close()
		return nil, closers, err
	}
	closers = append(closers, coord.Close) // closes the client too
	s.coord, s.client = coord, client

	refNet, refModel, _, err := buildNet(cfg, seed)
	if err != nil {
		return nil, closers, err
	}
	s.ref, err = pitex.NewEngine(refNet, refModel, opts)
	if err != nil {
		return nil, closers, err
	}
	return s, closers, nil
}

// mutation builds one random valid update batch; invoked twice (remote
// and reference consume separate but equal batches).
func (s *soak) mutation() func() *pitex.UpdateBatch {
	// Mostly re-weight an existing edge; occasionally insert a new one.
	if s.mut.Float64() < 0.25 {
		for tries := 0; tries < 64; tries++ {
			from, to := s.mut.Intn(s.cfg.users), s.mut.Intn(s.cfg.users)
			if from == to {
				continue
			}
			if _, ok := s.edges[[2]int{from, to}]; ok {
				continue
			}
			topic, prob := s.mut.Intn(s.cfg.topics), 0.2+0.6*s.mut.Float64()
			s.edges[[2]int{from, to}] = nil
			return func() *pitex.UpdateBatch {
				var b pitex.UpdateBatch
				b.InsertEdge(from, to, pitex.TopicProb{Topic: topic, Prob: prob})
				return &b
			}
		}
	}
	// Deterministic pick of an existing edge: order the map walk by index.
	keys := make([][2]int, 0, len(s.edges))
	for k := range s.edges {
		keys = append(keys, k)
	}
	// Map iteration order is random; sort for determinism.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	e := keys[s.mut.Intn(len(keys))]
	topic, prob := s.mut.Intn(s.cfg.topics), 0.2+0.6*s.mut.Float64()
	return func() *pitex.UpdateBatch {
		var b pitex.UpdateBatch
		b.SetEdge(e[0], e[1], pitex.TopicProb{Topic: topic, Prob: prob})
		return &b
	}
}

func less(a, b [2]int) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }

// applyUpdate commits one mutation to the cluster and the reference in
// lockstep.
func (s *soak) applyUpdate() error {
	mk := s.mutation()
	if _, err := s.coord.ApplyUpdates(mk()); err != nil {
		return fmt.Errorf("cluster update: %w", err)
	}
	next, _, err := s.ref.ApplyUpdates(mk())
	if err != nil {
		return fmt.Errorf("reference update: %w", err)
	}
	s.ref = next
	return nil
}

// checkQuery runs one query through the coordinator and enforces the
// exact-or-degraded invariant. final-phase answers also feed the digest.
func (s *soak) checkQuery(final bool) error {
	user, k := s.qmix.Intn(s.cfg.users), 1+s.qmix.Intn(2)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, _, err := s.coord.SellingPoints(ctx, user, k, 1, nil)
	if err != nil {
		return fmt.Errorf("query user=%d k=%d: %w", user, k, err)
	}
	if res.Degraded != nil {
		s.degr++
		d := res.Degraded
		want := d.TargetEpsilon
		if d.RespondingTheta > 0 && d.TotalTheta > d.RespondingTheta {
			want = d.TargetEpsilon * math.Sqrt(float64(d.TotalTheta)/float64(d.RespondingTheta))
		}
		if math.Abs(d.AchievedEpsilon-want) > 1e-12 {
			return fmt.Errorf("user=%d k=%d: achieved ε %v, want %v (θ %d/%d)",
				user, k, d.AchievedEpsilon, want, d.RespondingTheta, d.TotalTheta)
		}
		if final {
			return fmt.Errorf("user=%d k=%d: degraded answer after the fleet converged", user, k)
		}
		return nil
	}
	// Undegraded answers must be exactly the fault-free reference's.
	refRes, err := s.ref.Clone().Query(ctx, pitex.Request{User: user, K: k})
	if err != nil {
		return fmt.Errorf("reference query user=%d k=%d: %w", user, k, err)
	}
	if fmt.Sprint(res.Tags) != fmt.Sprint(refRes.Tags) || res.Influence != refRes.Influence {
		return fmt.Errorf("user=%d k=%d: cluster answered %v/%v, reference %v/%v",
			user, k, res.Tags, res.Influence, refRes.Tags, refRes.Influence)
	}
	s.exact++
	if final {
		fmt.Fprintf(s.digest, "q u=%d k=%d tags=%v inf=%s\n",
			user, k, res.Tags, strconv.FormatFloat(res.Influence, 'g', -1, 64))
	}
	return nil
}

func (s *soak) logf(format string, args ...any) {
	if s.cfg.verbose {
		fmt.Printf("  seed %d: "+format+"\n", append([]any{s.seed}, args...)...)
	}
}

// waitConverged polls until every endpoint reports the head generation.
func (s *soak) waitConverged() error {
	head := s.client.Generation()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.client.Status()
		all := true
		for _, g := range st.Groups {
			for _, ep := range g.Endpoints {
				if ep.Generation != head {
					all = false
				}
			}
		}
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet never converged to generation %d: %+v", head, st.Groups)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (s *soak) queriesPhase(final bool) error {
	for i := 0; i < s.cfg.queries; i++ {
		if err := s.checkQuery(final); err != nil {
			return err
		}
	}
	return nil
}

func (s *soak) episodes() (soakReport, error) {
	// Episode 0 — warmup: healthy fleet, every answer exact.
	s.logf("episode 0: warmup")
	if err := s.queriesPhase(false); err != nil {
		return soakReport{}, fmt.Errorf("warmup: %w", err)
	}
	if s.degr != 0 {
		return soakReport{}, fmt.Errorf("warmup produced %d degraded answers on a healthy fleet", s.degr)
	}
	if err := s.applyUpdate(); err != nil {
		return soakReport{}, err
	}

	// Episode 1 — estimate noise: seeded error + latency faults on the
	// shard estimate path. Failover and hedging absorb single-replica
	// faults; a fully-failed group degrades the answer, never corrupts it.
	s.logf("episode 1: estimate noise")
	if err := faultinject.Enable(s.seed, []faultinject.Rule{
		{Point: faultinject.PointShardEstimate, Mode: faultinject.ModeError, Prob: 0.25, Count: 200},
		{Point: faultinject.PointShardEstimate, Mode: faultinject.ModeLatency, Latency: 2 * time.Millisecond, Prob: 0.25, Count: 200},
	}); err != nil {
		return soakReport{}, err
	}
	if err := s.queriesPhase(false); err != nil {
		return soakReport{}, fmt.Errorf("noise episode: %w", err)
	}
	faultinject.Disable()

	// Episode 2 — single-replica crash, small gap: the dead replica
	// misses two generations and heals by journal replay after revival.
	s.logf("episode 2: replica crash + journal replay")
	replaysBefore := s.client.Status().JournalReplays
	s.proxies[0][1].dead.Store(true)
	for i := 0; i < 2; i++ {
		if err := s.applyUpdate(); err != nil {
			return soakReport{}, err
		}
	}
	if err := s.queriesPhase(false); err != nil {
		return soakReport{}, fmt.Errorf("replica-down episode: %w", err)
	}
	s.proxies[0][1].dead.Store(false)
	if err := s.waitConverged(); err != nil {
		return soakReport{}, fmt.Errorf("after replica crash: %w", err)
	}
	st := s.client.Status()
	if st.JournalReplays <= replaysBefore {
		return soakReport{}, fmt.Errorf("small gap healed without journal replay (replays %d -> %d, resyncs %d)",
			replaysBefore, st.JournalReplays, st.Resyncs)
	}

	// Episode 3 — whole-group outage: answers degrade (with the weakened
	// ε computed over the missing group's θ) and both replicas heal by
	// replay once revived.
	s.logf("episode 3: whole-group outage")
	for _, px := range s.proxies[1] {
		px.dead.Store(true)
	}
	if err := s.applyUpdate(); err != nil {
		return soakReport{}, err
	}
	degrBefore := s.degr
	if err := s.queriesPhase(false); err != nil {
		return soakReport{}, fmt.Errorf("group-down episode: %w", err)
	}
	if s.degr == degrBefore {
		return soakReport{}, fmt.Errorf("whole-group outage produced no degraded answers")
	}
	for _, px := range s.proxies[1] {
		px.dead.Store(false)
	}
	if err := s.waitConverged(); err != nil {
		return soakReport{}, fmt.Errorf("after group outage: %w", err)
	}

	// Episode 4 — past-horizon gap: the dead replica misses more
	// generations than the journal retains; healing must go through a
	// full /shard/resync copy from its in-group sibling.
	s.logf("episode 4: past-horizon gap + resync")
	resyncsBefore := s.client.Status().Resyncs
	s.proxies[2][1].dead.Store(true)
	for i := 0; i < s.cfg.horizon+2; i++ {
		if err := s.applyUpdate(); err != nil {
			return soakReport{}, err
		}
	}
	s.proxies[2][1].dead.Store(false)
	if err := s.waitConverged(); err != nil {
		return soakReport{}, fmt.Errorf("after past-horizon gap: %w", err)
	}
	st = s.client.Status()
	if st.Resyncs <= resyncsBefore {
		return soakReport{}, fmt.Errorf("past-horizon gap healed without resync (resyncs %d -> %d)",
			resyncsBefore, st.Resyncs)
	}

	// Episode 5 — corrupted payloads: shard responses arrive mangled;
	// decode hardening turns them into failovers or degradation, never
	// silently wrong answers.
	s.logf("episode 5: corrupt payloads")
	if err := faultinject.Enable(s.seed+1, []faultinject.Rule{
		{Point: faultinject.PointShardEstimate, Mode: faultinject.ModeCorrupt, Prob: 0.25, Count: 100},
	}); err != nil {
		return soakReport{}, err
	}
	if err := s.queriesPhase(false); err != nil {
		return soakReport{}, fmt.Errorf("corrupt episode: %w", err)
	}
	faultinject.Disable()

	// Episode 6 — convergence: faults off, fleet at head, every answer
	// exact again, and in-group replicas byte-identical.
	s.logf("episode 6: final convergence")
	if err := s.waitConverged(); err != nil {
		return soakReport{}, fmt.Errorf("final: %w", err)
	}
	if err := s.queriesPhase(true); err != nil {
		return soakReport{}, fmt.Errorf("final queries: %w", err)
	}
	for g := range s.urls {
		var first []byte
		for r, url := range s.urls[g] {
			snap, err := fetchSnapshot(url)
			if err != nil {
				return soakReport{}, fmt.Errorf("snapshot group %d replica %d: %w", g, r, err)
			}
			if r == 0 {
				first = snap
				fmt.Fprintf(s.digest, "snap g=%d sha=%x\n", g, sha256.Sum256(snap))
			} else if !bytes.Equal(first, snap) {
				return soakReport{}, fmt.Errorf("group %d replicas not byte-identical after healing", g)
			}
		}
	}

	sum := sha256.Sum256(s.digest.Bytes())
	return soakReport{
		finalGen:       s.client.Generation(),
		exact:          s.exact,
		degraded:       s.degr,
		journalReplays: s.client.Status().JournalReplays,
		resyncs:        s.client.Status().Resyncs,
		digest:         hex.EncodeToString(sum[:]),
	}, nil
}

func fetchSnapshot(url string) ([]byte, error) {
	resp, err := http.Get(url + "/shard/resync")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /shard/resync: status %d", resp.StatusCode)
	}
	return data, nil
}
