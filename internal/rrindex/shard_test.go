package rrindex

import (
	"bytes"
	"math"
	"testing"

	"pitex/internal/exact"
	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// fracProber is a deterministic pure prober: p(e|W) = f·p(e).
type fracProber struct {
	g *graph.Graph
	f float64
}

func (p fracProber) Prob(e graph.EdgeID) float64 { return p.f * p.g.EdgeMaxProb(e) }

func shardOpts(seed uint64, cap int64) BuildOptions {
	return BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:            seed,
		MaxIndexSamples: cap,
	}
}

// TestShardedS1ByteIdenticalToMonolithic is the equivalence contract: a
// single-shard sharded index draws the same targets under the same
// streams as the monolithic Build, and a one-row gather is the paper's
// max(1, hits/θ·|V|) (the mono reference), so every estimate — IndexEst,
// IndexEst+, DelayMat — and every serialized byte must be identical.
func TestShardedS1ByteIdenticalToMonolithic(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)

	monoIdx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	si, err := BuildSharded(g, opts, 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	if si.NumShards() != 1 || len(si.shards) != 1 {
		t.Fatalf("S=1 index has %d shards", si.NumShards())
	}
	if si.Theta() != monoIdx.Theta() {
		t.Fatalf("θ mismatch: sharded %d, monolithic %d", si.Theta(), monoIdx.Theta())
	}
	if si.MemoryFootprint() != monoIdx.MemoryFootprint() {
		t.Fatalf("footprint mismatch: %d vs %d", si.MemoryFootprint(), monoIdx.MemoryFootprint())
	}

	prober := fracProber{g: g, f: 0.8}
	est := mono{NewEstimator(monoIdx), g}
	sest := NewShardedEstimator(si)
	pe := mono{NewPrunedEstimator(monoIdx), g}
	spe := NewShardedPrunedEstimator(si)
	for u := 0; u < g.NumVertices(); u++ {
		want := est.EstimateProber(graph.VertexID(u), prober)
		got := sest.EstimateProber(graph.VertexID(u), prober)
		if got != want {
			t.Fatalf("user %d: sharded estimate %+v != monolithic %+v", u, got, want)
		}
		pwant := pe.EstimateProber(graph.VertexID(u), prober)
		pgot := spe.EstimateProber(graph.VertexID(u), prober)
		if pgot != pwant {
			t.Fatalf("user %d: sharded pruned estimate %+v != monolithic %+v", u, pgot, pwant)
		}
	}

	var monoBuf, shardBuf bytes.Buffer
	if err := WriteIndex(&monoBuf, monoIdx); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	if err := WriteSharded(&shardBuf, si); err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	if !bytes.Equal(monoBuf.Bytes(), shardBuf.Bytes()) {
		t.Fatal("S=1 sharded serialization is not byte-identical to WriteIndex")
	}

	// DelayMat: counters and recovered-graph estimates under equal streams.
	dm, err := BuildDelayMat(g, opts)
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	sdm, err := BuildShardedDelayMat(g, opts, 1)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		if dm.Count(graph.VertexID(u)) != sdm.shards[0].Count(graph.VertexID(u)) {
			t.Fatalf("θ(%d) differs: %d vs %d", u, dm.Count(graph.VertexID(u)), sdm.shards[0].Count(graph.VertexID(u)))
		}
	}
	de := mono{newDelayEstimatorShard(dm, rng.New(9).Uint64(), &delayGen{}, 0, 1, g.NumVertices()), g}
	sde := NewShardedDelayEstimator(sdm, rng.New(9))
	for u := 0; u < 40; u++ {
		want := de.EstimateProber(graph.VertexID(u), prober)
		got := sde.EstimateProber(graph.VertexID(u), prober)
		if got != want {
			t.Fatalf("user %d: sharded delay estimate %+v != monolithic %+v", u, got, want)
		}
	}
}

// TestShardedBuildInvariants checks the structural contract at awkward
// shard counts: S not dividing |V|, and S larger than the population.
func TestShardedBuildInvariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		numV   int
		shards int
	}{
		{"even", 240, 4},
		{"non-dividing", 250, 7},
		{"more-shards-than-users", 10, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(tc.numV, 3, 0.05, 0.4, 11)
			si, err := BuildSharded(g, shardOpts(7, 1500), tc.shards)
			if err != nil {
				t.Fatalf("BuildSharded: %v", err)
			}
			if si.NumShards() != tc.shards {
				t.Fatalf("NumShards = %d, want %d", si.NumShards(), tc.shards)
			}
			users := 0
			var theta int64
			for s, sh := range si.shards {
				users += si.users[s]
				theta += sh.theta
				for gi := 0; gi < sh.graphs.size(); gi++ {
					target := sh.graphs.target(gi)
					if ShardOf(target, tc.shards) != s {
						t.Fatalf("shard %d graph %d target %d belongs to shard %d",
							s, gi, target, ShardOf(target, tc.shards))
					}
				}
				if si.users[s] == 0 && sh.graphs.size() != 0 {
					t.Fatalf("empty shard %d has %d graphs", s, sh.graphs.size())
				}
			}
			if users != tc.numV {
				t.Fatalf("pools cover %d users, want %d", users, tc.numV)
			}
			if theta != si.Theta() {
				t.Fatalf("Σθ_s = %d but Theta() = %d", theta, si.Theta())
			}
			st := si.ShardStats()
			if len(st) != tc.shards {
				t.Fatalf("ShardStats rows = %d, want %d", len(st), tc.shards)
			}
			// Estimation must work for every user at every layout.
			est := NewShardedEstimator(si)
			prober := fracProber{g: g, f: 0.7}
			for u := 0; u < tc.numV; u++ {
				if r := est.EstimateProber(graph.VertexID(u), prober); r.Influence < 1 {
					t.Fatalf("user %d influence %v < 1", u, r.Influence)
				}
			}
		})
	}
}

// TestShardThetasApportionment pins the deterministic θ split.
func TestShardThetasApportionment(t *testing.T) {
	got := shardThetas(10, []int{5, 3, 2})
	if got[0]+got[1]+got[2] != 10 {
		t.Fatalf("apportionment %v does not sum to 10", got)
	}
	if got[0] != 5 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("apportionment %v, want [5 3 2]", got)
	}
	if got := shardThetas(100, []int{0, 10}); got[0] != 0 || got[1] != 100 {
		t.Fatalf("empty shard apportionment %v, want [0 100]", got)
	}
	// Populated shards never starve, even when total < shard count.
	got = shardThetas(1, []int{4, 3, 3})
	for s, th := range got {
		if th < 1 {
			t.Fatalf("shard %d starved: %v", s, got)
		}
	}
}

// TestShardedEstimateMatchesExactS4 validates the scatter-gather estimate
// against the exact oracle on the Fig. 2 fixture at S=4 — the statistical
// (not bitwise) side of the equivalence contract.
func TestShardedEstimateMatchesExactS4(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	si, err := BuildSharded(g, buildOpts(), 4)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	est := NewShardedEstimator(si)
	pe := NewShardedPrunedEstimator(si)
	pairs := [][]topics.TagID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for _, w := range pairs {
		want, err := exact.InfluenceTagSet(g, m, fixture.U1, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		post, _ := m.Posterior(w)
		got := est.Estimate(fixture.U1, post).Influence
		if math.Abs(got-want) > 0.05*want+0.05 {
			t.Errorf("sharded IndexEst E[I(u1|%v)] = %v, want %v", w, got, want)
		}
		// IndexEst+ must remain lossless relative to IndexEst per shard.
		if pruned := pe.Estimate(fixture.U1, post).Influence; pruned != got {
			t.Errorf("sharded IndexEst+ = %v, IndexEst = %v for %v", pruned, got, w)
		}
	}
}

// TestShardedDelayMatMatchesIndexCounts: per shard, the counting build
// must agree with the materialized build graph for graph (same streams).
func TestShardedDelayMatMatchesIndexCounts(t *testing.T) {
	g := randomGraph(150, 3, 0.1, 0.4, 5)
	opts := shardOpts(13, 900)
	si, err := BuildSharded(g, opts, 3)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	sdm, err := BuildShardedDelayMat(g, opts, 3)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	for s := range si.shards {
		for u := 0; u < g.NumVertices(); u++ {
			if got, want := sdm.shards[s].Count(graph.VertexID(u)), int64(si.shards[s].NumContaining(graph.VertexID(u))); got != want {
				t.Fatalf("shard %d θ(%d) = %d, index postings %d", s, u, got, want)
			}
		}
	}
}

// TestShardedRepairRoutesToTouchedShards is the routing contract: after
// an edge-only batch, shards whose postings do not contain a touched head
// must share their graph arenas with the previous generation unchanged,
// and only owning shards re-sample.
func TestShardedRepairRoutesToTouchedShards(t *testing.T) {
	// Very low probabilities keep RR-Graphs tiny, so a head's postings
	// concentrate in few shards and the routing has something to skip.
	g := randomGraph(400, 3, 0.01, 0.04, 17)
	opts := shardOpts(23, 2000)
	const S = 4
	si, err := BuildSharded(g, opts, S)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}

	ng, info := applyDelta(t, g, graph.Delta{
		RetopicEdges: []graph.EdgeRetopic{{Edge: 0, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}},
	})
	owns := make([]bool, S)
	skipped := 0
	for s, sh := range si.shards {
		for _, h := range info.TouchedHeads {
			if sh.NumContaining(h) > 0 {
				owns[s] = true
			}
		}
		if !owns[s] {
			skipped++
		}
	}
	if skipped == 0 {
		t.Skip("every shard owns the touched head; pick a different seed")
	}

	opts.Seed = 29
	next, stats, err := si.Repair(ng, opts, info.TouchedHeads, 0)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	var repairedDelta int64
	for s := 0; s < S; s++ {
		repairedDelta += next.repaired[s] - si.repaired[s]
		if owns[s] {
			continue
		}
		if next.repaired[s] != si.repaired[s] {
			t.Fatalf("non-owning shard %d has repair count %d (was %d)", s, next.repaired[s], si.repaired[s])
		}
		// The skipped shard's store must be shared, not copied.
		if next.shards[s].graphs != si.shards[s].graphs {
			t.Fatalf("non-owning shard %d was rebuilt instead of shared", s)
		}
		if next.shards[s].g != ng {
			t.Fatalf("shared shard %d not re-bound to the updated graph", s)
		}
	}
	if repairedDelta != int64(stats.Repaired()) {
		t.Fatalf("per-shard repaired delta %d != stats.Repaired() %d", repairedDelta, stats.Repaired())
	}
	if stats.Total != si.shards[0].graphs.size()+si.shards[1].graphs.size()+si.shards[2].graphs.size()+si.shards[3].graphs.size() {
		t.Fatalf("stats.Total = %d", stats.Total)
	}
	// The repaired index must stay structurally sound.
	est := NewShardedEstimator(next)
	prober := fracProber{g: ng, f: 0.8}
	for u := 0; u < ng.NumVertices(); u += 17 {
		if r := est.EstimateProber(graph.VertexID(u), prober); r.Influence < 1 {
			t.Fatalf("user %d influence %v < 1 after repair", u, r.Influence)
		}
	}
}

// TestShardedRepairVertexGrowth: added users join their hash shard's
// pool, targets stay inside shards, θ grows, and new users are queryable.
func TestShardedRepairVertexGrowth(t *testing.T) {
	g := randomGraph(120, 3, 0.05, 0.3, 31)
	opts := shardOpts(37, 600)
	const S = 3
	si, err := BuildSharded(g, opts, S)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	const added = 30
	ng, info := applyDelta(t, g, graph.Delta{
		AddVertices: added,
		InsertEdges: []graph.EdgeInsert{
			{From: 0, To: 125, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.5}}},
			{From: 130, To: 1, Topics: []graph.TopicProb{{Topic: 1, Prob: 0.4}}},
		},
	})
	opts.Seed = 41
	next, stats, err := si.Repair(ng, opts, info.TouchedHeads, info.AddedVertices)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if next.Theta() < si.Theta() {
		t.Fatalf("θ shrank: %d -> %d", si.Theta(), next.Theta())
	}
	if stats.Appended == 0 {
		t.Fatal("no graphs appended despite 25% user growth")
	}
	users := 0
	for s, sh := range next.shards {
		users += next.users[s]
		for gi := 0; gi < sh.graphs.size(); gi++ {
			if t0 := sh.graphs.target(gi); ShardOf(t0, S) != s {
				t.Fatalf("shard %d graph %d target %d misplaced", s, gi, t0)
			}
		}
	}
	if users != ng.NumVertices() {
		t.Fatalf("pools cover %d users, want %d", users, ng.NumVertices())
	}
	est := NewShardedEstimator(next)
	prober := fracProber{g: ng, f: 0.8}
	for u := 115; u < ng.NumVertices(); u++ {
		if r := est.EstimateProber(graph.VertexID(u), prober); r.Influence < 1 {
			t.Fatalf("new user %d influence %v < 1", u, r.Influence)
		}
	}
}

// TestShardedSerializationRoundTripV3: an S>1 index round-trips through
// the v3 format with bit-identical estimates, and rejects a graph
// mismatch.
func TestShardedSerializationRoundTripV3(t *testing.T) {
	g := randomGraph(200, 4, 0.05, 0.4, 43)
	si, err := BuildSharded(g, shardOpts(47, 1500), 5)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteSharded(&buf, si); err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	loaded, err := ReadSharded(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadSharded: %v", err)
	}
	if loaded.NumShards() != si.NumShards() || loaded.Theta() != si.Theta() {
		t.Fatalf("layout mismatch: S=%d θ=%d, want S=%d θ=%d",
			loaded.NumShards(), loaded.Theta(), si.NumShards(), si.Theta())
	}
	a, b := NewShardedEstimator(si), NewShardedEstimator(loaded)
	prober := fracProber{g: g, f: 0.8}
	for u := 0; u < g.NumVertices(); u += 7 {
		if x, y := a.EstimateProber(graph.VertexID(u), prober), b.EstimateProber(graph.VertexID(u), prober); x != y {
			t.Fatalf("user %d: loaded estimate %+v != original %+v", u, y, x)
		}
	}
	// A monolithic reader must refuse the sharded format cleanly.
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()), g); err == nil {
		t.Fatal("ReadIndex accepted a v3 sharded file")
	}
	// Wrong graph size must be rejected.
	if _, err := ReadSharded(bytes.NewReader(buf.Bytes()), randomGraph(100, 3, 0.1, 0.3, 1)); err == nil {
		t.Fatal("ReadSharded accepted a mismatched graph")
	}

	// DelayMat v3 round trip.
	sdm, err := BuildShardedDelayMat(g, shardOpts(47, 1500), 5)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	buf.Reset()
	if err := WriteShardedDelayMat(&buf, sdm); err != nil {
		t.Fatalf("WriteShardedDelayMat: %v", err)
	}
	dl, err := ReadShardedDelayMat(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadShardedDelayMat: %v", err)
	}
	if dl.NumShards() != 5 || dl.Theta() != sdm.Theta() {
		t.Fatalf("DelayMat layout mismatch after round trip")
	}
	for s := range sdm.shards {
		for u := 0; u < g.NumVertices(); u++ {
			if dl.shards[s].Count(graph.VertexID(u)) != sdm.shards[s].Count(graph.VertexID(u)) {
				t.Fatalf("shard %d θ(%d) changed across round trip", s, u)
			}
		}
	}
}

// TestShardedScatterParallelDeterministic drives the parallel scatter
// path (work above scatterParallelMinWork at S=4) and checks that two
// independent estimators agree bit-for-bit — the gather order is fixed
// regardless of shard completion order. Run under -race this is also the
// scatter-gather data-race probe.
func TestShardedScatterParallelDeterministic(t *testing.T) {
	g := randomGraph(300, 6, 0.2, 0.5, 67)
	si, err := BuildSharded(g, shardOpts(71, 3000), 4)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	u := graph.MaxOutDegreeVertex(g)
	work := 0
	for _, sh := range si.shards {
		work += sh.NumContaining(graph.VertexID(u))
	}
	if work < scatterParallelMinWork {
		t.Fatalf("hub user work %d below parallel threshold %d; grow the graph", work, scatterParallelMinWork)
	}
	prober := fracProber{g: g, f: 0.9}
	a, b := NewShardedEstimator(si), NewShardedEstimator(si)
	for i := 0; i < 5; i++ {
		x := a.EstimateProber(u, prober)
		y := b.EstimateProber(u, prober)
		if x != y {
			t.Fatalf("parallel scatter nondeterministic: %+v vs %+v", x, y)
		}
	}
	// A mutable prober (shared ProbeCache) must force sequential scatter
	// and still produce the same influence.
	pc := sampling.NewProbeCache(g.NumEdges())
	cached := pc.Begin(prober)
	if x, y := a.EstimateProber(u, prober), b.EstimateProber(u, cached); x.Influence != y.Influence {
		t.Fatalf("cached prober estimate %v != raw %v", y.Influence, x.Influence)
	}
}
