package rrindex

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pitex/internal/exact"
	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/topics"
)

// This file tests DelayMat recovery's law, not its bytes: the firing
// schedule (lazy propagation driving Algo 4, empty cascades jumped in
// bulk) must recover graphs from the same distribution as Algo 4 run with
// a coin per out-edge per attempt. referenceRecover is that algorithm
// restated from the paper; it shares no code with the estimator.

// refRecovered is one RR-Graph recovered by referenceRecover.
type refRecovered struct {
	target graph.VertexID
	verts  int
	edges  []graph.EdgeID
}

// referenceRecover is Algo 4 with the acceptance step, as this package ran
// it before the firing schedule: per attempt one forward cascade from u
// tossing one Float64 per out-edge of every activated vertex, one
// Bernoulli(|V'∩V_s|/|V_s|), a uniform target in V'∩V_s, and the part of
// the cascade that reaches the target. It stops at n graphs or after
// 8·theta+1024 attempts and returns the attempts made.
func referenceRecover(g *graph.Graph, u graph.VertexID, n, theta int64, r *rng.Source, shard, numShards, pool int) (out []refRecovered, attempts int64) {
	for ; int64(len(out)) < n && attempts < 8*theta+1024; attempts++ {
		active := map[graph.VertexID]bool{u: true}
		order := []graph.VertexID{u}
		var live []graph.EdgeID
		for i := 0; i < len(order); i++ {
			for _, e := range g.OutEdges(order[i]) {
				if r.Float64() >= g.EdgeMaxProb(e) {
					continue
				}
				live = append(live, e)
				if t := g.EdgeTo(e); !active[t] {
					active[t] = true
					order = append(order, t)
				}
			}
		}
		var cands []graph.VertexID
		for _, v := range order {
			if ShardOf(v, numShards) == shard {
				cands = append(cands, v)
			}
		}
		if !r.Bernoulli(float64(len(cands)) / float64(pool)) {
			continue
		}
		target := cands[r.Intn(len(cands))]
		reach := map[graph.VertexID]bool{target: true}
		for grew := true; grew; {
			grew = false
			for _, e := range live {
				if reach[g.EdgeTo(e)] && !reach[g.EdgeFrom(e)] {
					reach[g.EdgeFrom(e)] = true
					grew = true
				}
			}
		}
		rg := refRecovered{target: target, verts: len(reach)}
		for _, e := range live {
			if reach[g.EdgeFrom(e)] && reach[g.EdgeTo(e)] {
				rg.edges = append(rg.edges, e)
			}
		}
		out = append(out, rg)
	}
	return out, attempts
}

// recoveryStats pools what the distribution test compares over the graphs
// recovered for one user.
type recoveryStats struct {
	graphs, rootTarget, lone int // lone: one-vertex graphs, i.e. accepted empty cascades
	sumV, sumVV, sumE, sumEE float64
	rootEdge                 map[graph.EdgeID]int // inclusion counts of u's out-edges
}

func (s *recoveryStats) add(g *graph.Graph, u, target graph.VertexID, verts int, edges []graph.EdgeID) {
	if s.rootEdge == nil {
		s.rootEdge = map[graph.EdgeID]int{}
	}
	s.graphs++
	if target == u {
		s.rootTarget++
	}
	if verts == 1 {
		s.lone++
	}
	v, e := float64(verts), float64(len(edges))
	s.sumV, s.sumVV = s.sumV+v, s.sumVV+v*v
	s.sumE, s.sumEE = s.sumE+e, s.sumEE+e*e
	for _, id := range edges {
		if g.EdgeFrom(id) == u {
			s.rootEdge[id]++
		}
	}
}

// zBound is the width, in standard errors, of every two-sample bound
// below: a two-sided normal tail of 7e-6 per comparison, so the ~150
// comparisons a run makes fail by chance about once in a thousand seed
// choices (the seeds are fixed, so a pass is reproducible).
const zBound = 4.5

// shareClose checks two binomial shares k1/n1 and k2/n2 against the
// pooled two-proportion bound |p̂1 − p̂2| ≤ z·sqrt(p(1−p)(1/n1 + 1/n2)).
func shareClose(t *testing.T, what string, k1, n1, k2, n2 int) {
	t.Helper()
	p1, p2 := float64(k1)/float64(n1), float64(k2)/float64(n2)
	p := float64(k1+k2) / float64(n1+n2)
	bound := zBound * math.Sqrt(p*(1-p)*(1/float64(n1)+1/float64(n2)))
	if math.Abs(p1-p2) > bound {
		t.Errorf("%s: schedule %.5f (%d/%d) vs reference %.5f (%d/%d), bound %.5f", what, p1, k1, n1, p2, k2, n2, bound)
	}
}

// meanClose checks two sample means against the normal bound
// |m1 − m2| ≤ z·sqrt(s1²/n1 + s2²/n2).
func meanClose(t *testing.T, what string, sum1, sq1 float64, n1 int, sum2, sq2 float64, n2 int) {
	t.Helper()
	m1, m2 := sum1/float64(n1), sum2/float64(n2)
	v1, v2 := sq1/float64(n1)-m1*m1, sq2/float64(n2)-m2*m2
	bound := zBound * math.Sqrt(v1/float64(n1)+v2/float64(n2))
	if math.Abs(m1-m2) > bound {
		t.Errorf("%s: schedule mean %.5f vs reference %.5f, bound %.5f", what, m1, m2, bound)
	}
}

// recoverCase is one (graph, query user, tag set) of the recovery tests.
type recoverCase struct {
	name  string
	g     *graph.Graph
	model *topics.Model
	u     graph.VertexID
	tags  []topics.TagID
}

// cornersGraph puts every rounding corner of the firing schedule on the
// query user 0: an edge with p(e) = 0 first, in the middle and last, an
// edge with p(e) = 1 in the middle (so the prefix product is spent for the
// p = 0.5 edge after it), a cycle back to the root, and a vertex without
// out-edges that most cascades visit.
func cornersGraph() *graph.Graph {
	b := graph.NewBuilder(7, 2)
	tp := func(z int32, p float64) []graph.TopicProb { return []graph.TopicProb{{Topic: z, Prob: p}} }
	b.AddEdge(0, 2, nil)
	b.AddEdge(0, 1, tp(0, 0.3))
	b.AddEdge(0, 2, nil)
	b.AddEdge(0, 3, tp(1, 1))
	b.AddEdge(0, 4, tp(0, 0.5))
	b.AddEdge(0, 5, nil)
	b.AddEdge(1, 0, tp(1, 0.2))
	b.AddEdge(3, 6, tp(0, 0.4))
	b.AddEdge(4, 6, tp(1, 0.6))
	return b.MustBuild()
}

func recoverCases(t *testing.T) []recoverCase {
	t.Helper()
	er, err := graph.ErdosRenyi(rng.New(3), 9, 14, graph.TopicAssignment{NumTopics: 2, TopicsPerEdge: 1, MaxProb: 0.6})
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	// Low probabilities: most attempts are empty cascades, as on the
	// benchmark's datasets, so most recovered graphs come from the jump.
	quiet, err := graph.ErdosRenyi(rng.New(7), 9, 12, graph.TopicAssignment{NumTopics: 2, TopicsPerEdge: 1, MaxProb: 0.15})
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	pa, err := graph.PreferentialAttachment(rng.New(5), 12, 20, 0.5, graph.TopicAssignment{NumTopics: 2, TopicsPerEdge: 1, MaxProb: 0.5})
	if err != nil {
		t.Fatalf("PreferentialAttachment: %v", err)
	}
	// Two topics, four tags, every tag with mass on both topics: any tag
	// set has a posterior, and no edge is dead under it.
	m := topics.MustNewModel(4, 2)
	for w, z0 := range []float64{0.7, 0.2, 0.5, 0.9} {
		m.SetTagTopic(topics.TagID(w), 0, z0)
		m.SetTagTopic(topics.TagID(w), 1, 1-z0)
	}
	return []recoverCase{
		{"fixture", fixture.Graph(), fixture.Model(), fixture.U1, []topics.TagID{fixture.W3, fixture.W4}},
		{"erdos-renyi", er, m, graph.MaxOutDegreeVertex(er), []topics.TagID{0}},
		{"erdos-renyi-quiet", quiet, m, graph.MaxOutDegreeVertex(quiet), []topics.TagID{2}},
		{"pref-attach-hub", pa, m, graph.MaxOutDegreeVertex(pa), []topics.TagID{1, 2}},
		{"corners", cornersGraph(), m, 0, []topics.TagID{3}},
	}
}

// recoverOpts keeps θ small enough for hundreds of recoveries per case.
func recoverOpts(seed uint64) BuildOptions {
	o := buildOpts()
	o.Seed = seed
	o.MaxIndexSamples = 1000
	return o
}

const recoverSeeds = 200

// minBlocks is how many recovery blocks each recovery of the law tests
// must span, so that no change of the block length can make them
// single-block unnoticed: the law they check is then the law of blocks
// concatenated, restarts included.
const minBlocks = 3

// blocksSpanned is how many blocks a recovery under θ charged attempts in.
func blocksSpanned(attempts, theta int64) int64 {
	l := blockAttempts(theta)
	return (attempts + l - 1) / l
}

// TestRecoveryMatchesReferenceDistribution compares, per (graph, S, shard)
// and pooled over recoverSeeds recoveries on either side, the graphs the
// firing schedule recovers with referenceRecover's: the share with target
// u, the share of one-vertex graphs (the jumped empty cascades) and the
// inclusion frequency of each out-edge of u under the two-proportion bound
// of shareClose, mean |V| and |E| and the attempts charged per recovery
// (jumped ones included — the overall acceptance rate) under the normal
// bound of meanClose. On the way it checks what must hold exactly.
func TestRecoveryMatchesReferenceDistribution(t *testing.T) {
	for _, tc := range recoverCases(t) {
		for _, S := range []int{1, 3} {
			// Build seed 44 is one whose every recovery below spans ≥ minBlocks.
			sdm, err := BuildShardedDelayMat(tc.g, recoverOpts(44), S)
			if err != nil {
				t.Fatalf("%s S=%d: BuildShardedDelayMat: %v", tc.name, S, err)
			}
			for s, dm := range sdm.shards {
				n, pool := dm.counts[tc.u], sdm.users[s]
				if n == 0 {
					continue
				}
				budget := 8*dm.theta + 1024
				var got, want recoveryStats
				var gotA, gotAA, wantA, wantAA float64 // attempts per recovery
				for seed := uint64(1); seed <= recoverSeeds; seed++ {
					de := newDelayEstimatorShard(dm, seed, &sdm.gen, s, S, pool)
					de.recover(tc.u)
					ws := de.WorkStats()
					if ws.RecoveryAttempts < budget && int64(de.recovered.size()) != n {
						t.Fatalf("%s S=%d shard %d seed %d: recovered %d graphs in %d of %d attempts, want θ(u) = %d",
							tc.name, S, s, seed, de.recovered.size(), ws.RecoveryAttempts, budget, n)
					}
					if ws.RecoveryCascades > ws.RecoveryAttempts {
						t.Fatalf("%s S=%d shard %d: %d cascades out of %d attempts", tc.name, S, s, ws.RecoveryCascades, ws.RecoveryAttempts)
					}
					if k := blocksSpanned(ws.RecoveryAttempts, dm.theta); k < minBlocks {
						t.Fatalf("%s S=%d shard %d seed %d: the recovery spans %d blocks, want ≥ %d", tc.name, S, s, seed, k, minBlocks)
					}
					for i := 0; i < de.recovered.size(); i++ {
						view := de.recovered.view(i)
						rr := &view
						if !rr.Contains(tc.u) || ShardOf(rr.target, S) != s {
							t.Fatalf("%s S=%d shard %d: graph with target %d (shard %d) contains u: %v",
								tc.name, S, s, rr.target, ShardOf(rr.target, S), rr.Contains(tc.u))
						}
						// A user outside the shard is never its own target
						// there, so the one-vertex graph cannot be accepted.
						if ShardOf(tc.u, S) != s && rr.NumVertices() < 2 {
							t.Fatalf("%s S=%d shard %d: one-vertex graph for a user of shard %d", tc.name, S, s, ShardOf(tc.u, S))
						}
						got.add(tc.g, tc.u, rr.target, rr.NumVertices(), rr.edgeID)
					}
					ref, attempts := referenceRecover(tc.g, tc.u, n, dm.theta, rng.New(rng.Mix(seed, 0x5eed)), s, S, pool)
					a, b := float64(ws.RecoveryAttempts), float64(attempts)
					gotA, gotAA, wantA, wantAA = gotA+a, gotAA+a*a, wantA+b, wantAA+b*b
					for _, rg := range ref {
						want.add(tc.g, tc.u, rg.target, rg.verts, rg.edges)
					}
				}
				where := func(what string) string {
					return fmt.Sprintf("%s S=%d shard %d: %s", tc.name, S, s, what)
				}
				meanClose(t, where("attempts charged per recovery"), gotA, gotAA, recoverSeeds, wantA, wantAA, recoverSeeds)
				shareClose(t, where("share of graphs with target u"), got.rootTarget, got.graphs, want.rootTarget, want.graphs)
				shareClose(t, where("share of one-vertex graphs"), got.lone, got.graphs, want.lone, want.graphs)
				meanClose(t, where("mean |V|"), got.sumV, got.sumVV, got.graphs, want.sumV, want.sumVV, want.graphs)
				meanClose(t, where("mean |E|"), got.sumE, got.sumEE, got.graphs, want.sumE, want.sumEE, want.graphs)
				for _, e := range tc.g.OutEdges(tc.u) {
					if tc.g.EdgeMaxProb(e) <= 0 {
						if got.rootEdge[e] != 0 {
							t.Errorf("%s", where("an edge with p(e) = 0 was recovered"))
						}
						continue
					}
					shareClose(t, where("inclusion of a root out-edge"), got.rootEdge[e], got.graphs, want.rootEdge[e], want.graphs)
				}
			}
		}
	}
}

// TestRecoveryEstimateMatchesExact checks the end of the pipe: over
// recoverSeeds independent (build, recovery) pairs the mean DelayMat
// estimate must sit within zBound standard errors of the oracle. The
// estimator is unbiased up to gather's clamp at 1, which the cases'
// influences (all above 1.4) keep out of play.
func TestRecoveryEstimateMatchesExact(t *testing.T) {
	for _, tc := range recoverCases(t) {
		want, err := exact.InfluenceTagSet(tc.g, tc.model, tc.u, tc.tags)
		if err != nil {
			t.Fatalf("%s: exact: %v", tc.name, err)
		}
		post, ok := tc.model.Posterior(tc.tags)
		if !ok {
			t.Fatalf("%s: tag set %v has no posterior", tc.name, tc.tags)
		}
		for _, S := range []int{1, 3} {
			var sum, sq float64
			var spans, recoveries int64
			for seed := uint64(1); seed <= recoverSeeds; seed++ {
				sdm, err := BuildShardedDelayMat(tc.g, recoverOpts(seed), S)
				if err != nil {
					t.Fatalf("%s S=%d: BuildShardedDelayMat: %v", tc.name, S, err)
				}
				est := NewShardedDelayEstimator(sdm, rng.New(rng.Mix(seed, 0xe57)))
				inf := est.Estimate(tc.u, post).Influence
				sum, sq = sum+inf, sq+inf*inf
				for _, p := range est.shards {
					if de := p.(*DelayEstimator); de.dm.counts[tc.u] > 0 {
						spans += blocksSpanned(de.WorkStats().RecoveryAttempts, de.dm.theta)
						recoveries++
					}
				}
			}
			// A user with a handful of graphs in a shard can finish early by
			// luck, so the bound is on the mean.
			if spans < minBlocks*recoveries {
				t.Fatalf("%s S=%d: the recoveries span %.1f blocks on average, want ≥ %d", tc.name, S, float64(spans)/float64(recoveries), minBlocks)
			}
			mean := sum / recoverSeeds
			se := math.Sqrt((sq/recoverSeeds - mean*mean) / recoverSeeds)
			if math.Abs(mean-want) > zBound*se {
				t.Errorf("%s S=%d: mean estimate %.4f vs exact %.4f, bound %.4f", tc.name, S, mean, want, zBound*se)
			}
		}
	}
}

// TestRecoveryWithoutOutEdges: a user with no out-edges can only ever be
// its own target, so recovery is θ(u) one-vertex graphs found by jumping
// alone — no cascade is simulated, whatever the attempt count.
func TestRecoveryWithoutOutEdges(t *testing.T) {
	g := fixture.Graph()
	for _, S := range []int{1, 3} {
		sdm, err := BuildShardedDelayMat(g, recoverOpts(42), S)
		if err != nil {
			t.Fatalf("BuildShardedDelayMat: %v", err)
		}
		for _, u := range []graph.VertexID{fixture.U5, fixture.U7} {
			for s, dm := range sdm.shards {
				de := newDelayEstimatorShard(dm, 7, &sdm.gen, s, S, sdm.users[s])
				de.recover(u)
				if ShardOf(u, S) != s && dm.counts[u] != 0 {
					t.Fatalf("S=%d: θ_%d(%d) = %d for a user that reaches nobody", S, s, u, dm.counts[u])
				}
				if int64(de.recovered.size()) != dm.counts[u] {
					t.Fatalf("S=%d shard %d user %d: %d graphs, want %d", S, s, u, de.recovered.size(), dm.counts[u])
				}
				for i := 0; i < de.recovered.size(); i++ {
					if rr := de.recovered.view(i); rr.target != u || rr.NumVertices() != 1 || rr.NumEdges() != 0 {
						t.Fatalf("S=%d user %d: recovered a graph other than {u}", S, u)
					}
				}
				if ws := de.WorkStats(); ws.RecoveryCascades != 0 || len(de.touched) != 0 {
					t.Fatalf("S=%d user %d: %d cascades simulated, %d vertices left touched", S, u, ws.RecoveryCascades, len(de.touched))
				}
			}
		}
	}
}

// TestRecoveryChargesSkippedAttempts forges a θ(u) no graph supports: the
// safety valve must trip at exactly 8θ+1024 attempts, jumped ones
// included — in one jump for a user that never fires, attempt by attempt
// and jump by jump for one that does.
func TestRecoveryChargesSkippedAttempts(t *testing.T) {
	g := fixture.Graph()
	dm, err := BuildDelayMat(g, recoverOpts(42))
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	budget := 8*dm.theta + 1024
	for _, u := range []graph.VertexID{fixture.U5, fixture.U1} {
		forged := *dm
		forged.counts = append([]int64(nil), dm.counts...)
		forged.counts[u] = 100 * dm.theta
		de := newDelayEstimatorShard(&forged, 7, &delayGen{}, 0, 1, g.NumVertices())
		de.recover(u)
		ws := de.WorkStats()
		if ws.RecoveryAttempts != budget {
			t.Fatalf("user %d: %d attempts charged, want the budget %d", u, ws.RecoveryAttempts, budget)
		}
		if k := blocksSpanned(ws.RecoveryAttempts, dm.theta); k < minBlocks {
			t.Fatalf("user %d: the recovery spans %d blocks, want ≥ %d", u, k, minBlocks)
		}
		if n := int64(de.recovered.size()); n == 0 || n >= forged.counts[u] {
			t.Fatalf("user %d: %d graphs recovered under a forged θ(u) = %d", u, n, forged.counts[u])
		}
		ref, attempts := referenceRecover(g, u, forged.counts[u], dm.theta, rng.New(9), 0, 1, g.NumVertices())
		if attempts != budget {
			t.Fatalf("reference stopped after %d attempts, want %d", attempts, budget)
		}
		// Both sides accepted Binomial(budget, E|V'|/|V|) graphs.
		p := float64(len(ref)+de.recovered.size()) / float64(2*budget)
		if d := math.Abs(float64(len(ref) - de.recovered.size())); d > zBound*math.Sqrt(2*float64(budget)*p*(1-p)) {
			t.Fatalf("user %d: %d graphs accepted within the budget, reference %d", u, de.recovered.size(), len(ref))
		}
	}
}

// TestRecoveryIsPureFunctionOfSeedShardUser: estimators built from equal
// seeds recover identical graphs for a user whatever they recovered
// before, and a re-recovery after eviction repeats the first.
func TestRecoveryIsPureFunctionOfSeedShardUser(t *testing.T) {
	g := randomGraph(60, 4, 0.05, 0.4, 13)
	for _, S := range []int{1, 3} {
		sdm, err := BuildShardedDelayMat(g, recoverOpts(42), S)
		if err != nil {
			t.Fatalf("BuildShardedDelayMat: %v", err)
		}
		for s, dm := range sdm.shards {
			a := newDelayEstimatorShard(dm, 99, &sdm.gen, s, S, sdm.users[s])
			b := newDelayEstimatorShard(dm, 99, &sdm.gen, s, S, sdm.users[s])
			snapshot := func(de *DelayEstimator, u graph.VertexID) []RRGraph {
				de.recover(u)
				out := make([]RRGraph, de.recovered.size())
				for i := range out {
					rr := de.recovered.view(i)
					out[i] = RRGraph{
						target: rr.target, verts: append([]graph.VertexID(nil), rr.verts...),
						outStart: append([]int32(nil), rr.outStart...), outTo: append([]int32(nil), rr.outTo...),
						edgeID: append([]graph.EdgeID(nil), rr.edgeID...), c: append([]float64(nil), rr.c...),
					}
				}
				return out
			}
			// a meets the users ascending, b descending and twice.
			first := map[graph.VertexID][]RRGraph{}
			for u := 0; u < 20; u++ {
				first[graph.VertexID(u)] = snapshot(a, graph.VertexID(u))
			}
			for pass := 0; pass < 2; pass++ {
				for u := 19; u >= 0; u-- {
					if got := snapshot(b, graph.VertexID(u)); !sameGraphs(got, first[graph.VertexID(u)]) {
						t.Fatalf("S=%d shard %d user %d pass %d: recovery depends on the estimator's history", S, s, u, pass)
					}
				}
			}
		}
	}
}

// workersGraph gives vertex v (v mod 6) out-edges, so every sixth vertex
// has none and vertex 1 one, and vertex 5 forty: a hub, a leaf and a
// silent user side by side.
func workersGraph() *graph.Graph {
	const n = 240
	r := rng.New(23)
	b := graph.NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		deg := v % 6
		if v == 5 {
			deg = 40
		}
		for d := 0; d < deg; d++ {
			to := (v + 1 + r.Intn(n-1)) % n
			b.AddEdge(graph.VertexID(v), graph.VertexID(to), []graph.TopicProb{{Topic: int32(r.Intn(2)), Prob: 0.05 + 0.35*r.Float64()}})
		}
	}
	return b.MustBuild()
}

// recoveryBytes renders what one recovery leaves for the scans — every
// array of the recovered store and the split postings — as one string.
func recoveryBytes(de *DelayEstimator) string {
	s := &de.recovered
	return fmt.Sprint(s.recs, s.verts, s.outStart, s.outTo, s.edgeID, s.c, s.kinds, s.singles,
		s.starEnd, s.starEdge, s.starC, de.posts, de.stars, de.direct, de.cachedMaxSize)
}

// TestRecoveryIndependentOfWorkers: a recovery is the same bytes, and
// charges the same attempts and cascades, whether the process runs on one
// processor or on four — for a hub, a leaf and a user with no out-edges,
// at one shard and at three.
func TestRecoveryIndependentOfWorkers(t *testing.T) {
	g := workersGraph()
	users := []graph.VertexID{5, 1, 6}
	if g.OutDegree(5) != 40 || g.OutDegree(1) != 1 || g.OutDegree(6) != 0 {
		t.Fatal("test premise: vertices 5, 1 and 6 are a hub, a leaf and a silent user")
	}
	opts := recoverOpts(42)
	opts.MaxIndexSamples = 6000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, S := range []int{1, 3} {
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildShardedDelayMat: %v", S, err)
		}
		type result struct {
			bytes              string
			attempts, cascades int64
		}
		var runs [2][]result
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for s, dm := range sdm.shards {
				de := newDelayEstimatorShard(dm, 99, &sdm.gen, s, S, sdm.users[s])
				for _, u := range users {
					before := de.WorkStats()
					de.recover(u)
					after := de.WorkStats()
					if k := blocksSpanned(after.RecoveryAttempts-before.RecoveryAttempts, dm.theta); dm.counts[u] > 0 && k < minBlocks {
						t.Fatalf("S=%d shard %d user %d: the recovery spans %d blocks, want ≥ %d", S, s, u, k, minBlocks)
					}
					runs[i] = append(runs[i], result{recoveryBytes(de),
						after.RecoveryAttempts - before.RecoveryAttempts, after.RecoveryCascades - before.RecoveryCascades})
				}
			}
		}
		if len(sdm.gen.helpers.idle) == 0 {
			t.Fatalf("S=%d: no recovery took a helper at GOMAXPROCS 4", S)
		}
		for j, one := range runs[0] {
			four, s, u := runs[1][j], j/len(users), users[j%len(users)]
			if one.bytes != four.bytes {
				t.Errorf("S=%d shard %d user %d: recovered stores differ between GOMAXPROCS 1 and 4", S, s, u)
			}
			if one.attempts != four.attempts || one.cascades != four.cascades {
				t.Errorf("S=%d shard %d user %d: charged %d attempts, %d cascades at GOMAXPROCS 1, %d and %d at 4",
					S, s, u, one.attempts, one.cascades, four.attempts, four.cascades)
			}
		}
	}
}

// TestRecoveryPanicReachesCaller: a panic in a block — here any vertex
// past the hub reads beyond a truncated firing table — surfaces on the
// goroutine that asked for the recovery, where a server turns it into an
// error, and leaves no helper at work and no recovery cached; with the
// table mended the estimator recovers what a fresh one does. A helper
// hands its own panic to that goroutine with its exit.
func TestRecoveryPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := workersGraph()
	opts := recoverOpts(42)
	opts.MaxIndexSamples = 6000
	sdm, err := BuildShardedDelayMat(g, opts, 1)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	const hub = 5
	good := newFireTable(g)
	gen := &delayGen{}
	gen.fire.once.Do(func() { gen.fire.t = &fireTable{surv: good.surv, invLogQ: good.invLogQ[:hub+1]} })
	de := newDelayEstimatorShard(sdm.shards[0], 99, gen, 0, 1, sdm.users[0])
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a recovery over a broken table did not panic")
			}
		}()
		de.recover(hub)
	}()
	if h := &gen.helpers; h.busy != 0 || len(h.idle) == 0 {
		t.Fatalf("after the panic the pool holds %d idle and %d busy helpers", len(h.idle), h.busy)
	}
	if de.cachedValid {
		t.Fatal("a recovery that panicked is cached")
	}
	de.job.table = good
	de.recover(hub)
	fresh := newDelayEstimatorShard(sdm.shards[0], 99, &delayGen{}, 0, 1, sdm.users[0])
	fresh.recover(hub)
	if recoveryBytes(de) != recoveryBytes(fresh) {
		t.Fatal("the recovery after a panic differs from a fresh estimator's")
	}

	h := newBlockHelper(g)
	j := &recoveryJob{blocks: 1, ready: make(chan struct{}, 1)}
	j.appended.Store(1) // block 0's slot is free, but there are no slots
	h.job = j
	go h.run()
	<-h.exit
	if h.panicked == nil || !j.stop.Load() {
		t.Fatalf("a helper's panic came back as %v, stop %v", h.panicked, j.stop.Load())
	}
}

func sameGraphs(a, b []RRGraph) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.target != y.target || !equalSlice(x.verts, y.verts) || !equalSlice(x.outStart, y.outStart) ||
			!equalSlice(x.outTo, y.outTo) || !equalSlice(x.edgeID, y.edgeID) || !equalSlice(x.c, y.c) {
			return false
		}
	}
	return true
}

func equalSlice[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFireTableCorners pins the table's rounding corners directly.
func TestFireTableCorners(t *testing.T) {
	g := cornersGraph()
	tbl := newFireTable(g)
	lo, hi := g.OutRange(0)
	want := []float64{1, 0.7, 0.7, 0, 0, 0}
	for i, s := range tbl.surv[lo:hi] {
		if math.Abs(s-want[i]) > 1e-15 {
			t.Fatalf("surv of vertex 0 = %v, want %v", tbl.surv[lo:hi], want)
		}
	}
	// p(e) = 1: fires at every visit, through −0 and not Log(0).
	if q := tbl.invLogQ[0]; q != 0 || !math.Signbit(q) {
		t.Fatalf("invLogQ of a vertex with a sure edge = %v, want -0", q)
	}
	// No out-edges, or none with p(e) > 0: never fires.
	for _, v := range []graph.VertexID{6, 2, 5} {
		if !math.IsInf(tbl.invLogQ[v], -1) {
			t.Fatalf("invLogQ[%d] = %v, want -Inf", v, tbl.invLogQ[v])
		}
	}
	if got, want := tbl.invLogQ[3], 1/math.Log(0.6); got != want {
		t.Fatalf("invLogQ[3] = %v, want %v", got, want)
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if r.GeometricInvLog(tbl.invLogQ[0]) != 1 || r.GeometricInvLog(tbl.invLogQ[6]) != rng.Never {
			t.Fatal("gap of a sure vertex must be 1, of a silent vertex Never")
		}
	}
	// A silent vertex stays silent however often it is visited: next is
	// Never and visits + gap is never formed.
	de := newDelayEstimatorShard(&DelayMat{g: g, theta: 50, counts: []int64{20, 0, 0, 0, 0, 0, 0}}, 3, &delayGen{}, 0, 1, 7)
	de.recover(0)
	if de.recovered.size() != 20 {
		t.Fatalf("recovered %d graphs, want 20", de.recovered.size())
	}
	if f := de.firingOf(6); f.next != rng.Never {
		t.Fatalf("silent vertex scheduled to fire at visit %d", f.next)
	}

	// firstFired: an edge with p(e) ≤ 0 is never the first fired edge, at
	// either end of x's range; and when 1 − x·(1 − q) rounds down to q
	// itself the search takes the last edge with p(e) > 0 instead of
	// falling off the end.
	surv := []float64{1, 0.7, 0.7, 0.35, 0.35}
	if i := firstFired(surv, 0); i != 1 {
		t.Fatalf("firstFired(x=0) = %d, want 1", i)
	}
	if i := firstFired(surv, math.Nextafter(1, 0)); i != 3 {
		t.Fatalf("firstFired(x→1) = %d, want 3", i)
	}
	q := math.Nextafter(1, 0)
	tight := []float64{1, q, q}
	if x := math.Nextafter(1, 0); 1-x*(1-q) != q {
		t.Fatalf("test premise: 1 − x(1 − q) = %v does not round to q", 1-x*(1-q))
	}
	if i := firstFired(tight, math.Nextafter(1, 0)); i != 1 {
		t.Fatalf("firstFired on a rounded-off threshold = %d, want the last edge with p > 0 (1)", i)
	}
	// firstBelow never returns an index whose value equals its
	// predecessor's (a p ≤ 0 edge) and respects from.
	if j := firstBelow(surv, 2, 0.7); j != 3 {
		t.Fatalf("firstBelow(from=2, 0.7) = %d, want 3", j)
	}
	if j := firstBelow(surv, 4, 0.35); j != 5 {
		t.Fatalf("firstBelow past the last drop = %d, want len", j)
	}
}

// TestFireTableSharedAcrossEstimators: one table per ShardedDelayMat,
// built once, whoever recovers first, and one helper pool that never
// makes more than GOMAXPROCS − 1 helpers — run under -race with two
// estimator sets recovering concurrently.
func TestFireTableSharedAcrossEstimators(t *testing.T) {
	g := randomGraph(80, 4, 0.05, 0.4, 17)
	sdm, err := BuildShardedDelayMat(g, recoverOpts(42), 3)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	if sdm.gen.fire.t != nil {
		t.Fatal("fire table built before any recovery")
	}
	post := []float64{0.5, 0.5}
	ests := []*ShardedEstimator{NewShardedDelayEstimator(sdm, rng.New(5)), NewShardedDelayEstimator(sdm, rng.New(5))}
	results := make([][]float64, len(ests))
	done := make(chan int)
	for i := range ests {
		go func(i int) {
			for u := 0; u < 30; u++ {
				results[i] = append(results[i], ests[i].Estimate(graph.VertexID(u), post).Influence)
			}
			done <- i
		}(i)
	}
	<-done
	<-done
	if !equalSlice(results[0], results[1]) {
		t.Fatal("equal-seed estimators over one DelayMat disagree")
	}
	tbl := sdm.gen.fire.t
	if tbl == nil {
		t.Fatal("fire table not built by the first recovery")
	}
	for _, est := range ests {
		for _, p := range est.shards {
			if p.(*DelayEstimator).table != tbl {
				t.Fatal("estimators of one generation hold different tables")
			}
		}
	}
	if got := int64(len(tbl.surv)+len(tbl.invLogQ)) * 8; got != 8*int64(g.NumEdges())+8*int64(g.NumVertices()) {
		t.Fatalf("table holds %d bytes", got)
	}
	if h := &sdm.gen.helpers; h.busy != 0 || len(h.idle) > runtime.GOMAXPROCS(0)-1 {
		t.Fatalf("helper pool holds %d idle and %d busy helpers at GOMAXPROCS %d", len(h.idle), h.busy, runtime.GOMAXPROCS(0))
	}
}
