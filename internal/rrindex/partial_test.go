package rrindex

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// TestBuildShardMatchesSharded is the fleet byte-identity contract: each
// shard built standalone by BuildShard must be the same index, bit for
// bit, as the slot BuildSharded holds in process.
func TestBuildShardMatchesSharded(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	const S = 3

	si, err := BuildSharded(g, opts, S)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	for s := 0; s < S; s++ {
		idx, users, err := BuildShard(g, opts, S, s)
		if err != nil {
			t.Fatalf("BuildShard(%d): %v", s, err)
		}
		want := si.shards[s]
		if idx.Theta() != want.Theta() {
			t.Fatalf("shard %d θ = %d, sharded holds %d", s, idx.Theta(), want.Theta())
		}
		if users != poolSizeOf(si.pools[s], g.NumVertices()) {
			t.Fatalf("shard %d users = %d, pool has %d", s, users, poolSizeOf(si.pools[s], g.NumVertices()))
		}
		var a, b bytes.Buffer
		if err := WriteIndex(&a, idx); err != nil {
			t.Fatalf("WriteIndex standalone: %v", err)
		}
		if err := WriteIndex(&b, want); err != nil {
			t.Fatalf("WriteIndex sharded: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("shard %d serialization differs (standalone %d bytes, in-process %d bytes)",
				s, a.Len(), b.Len())
		}
	}

	for s := 0; s < S; s++ {
		dm, _, err := BuildDelayMatShard(g, opts, S, s)
		if err != nil {
			t.Fatalf("BuildDelayMatShard(%d): %v", s, err)
		}
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("BuildShardedDelayMat: %v", err)
		}
		if dm.Theta() != sdm.shards[s].Theta() {
			t.Fatalf("delay shard %d θ = %d, sharded holds %d", s, dm.Theta(), sdm.shards[s].Theta())
		}
		for u := 0; u < g.NumVertices(); u++ {
			if dm.Count(graph.VertexID(u)) != sdm.shards[s].Count(graph.VertexID(u)) {
				t.Fatalf("delay shard %d counter for user %d differs", s, u)
			}
		}
	}
}

// TestGatherPartialsMatchesShardedEstimator checks that scanning every
// shard on its own policy — what a fleet of shard servers does — and
// gathering with GatherPartials / GatherFrontierPartials reproduces the
// in-process ShardedEstimator result exactly: the distributed
// all-shards-healthy guarantee, for all three families, at one shard and
// several, on the per-prober path and on the frontier path at width 1,
// across the 64-sibling chunk boundary, and with sequential stopping on.
func TestGatherPartialsMatchesShardedEstimator(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	prober := fracProber{g: g, f: 0.8}
	m := topics.GenerateRandom(rng.New(77), 12, 2, 2)
	wide := siblingPosteriors(m, []topics.TagID{2}, 65)
	if len(wide) != 65 {
		t.Fatalf("fixture model yielded %d/65 defined posteriors", len(wide))
	}
	frontiers := []struct {
		name       string
		posteriors [][]float64
		stopping   bool
	}{
		{"width-1", wide[:1], false},
		{"width-65", wide, false},
		{"stopping", wide[:12], true},
	}

	for _, S := range []int{1, 3, 4} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildShardedDelayMat: %v", S, err)
		}
		users := make([]int, S)
		plain, pruned, delay := make([]scanPolicy, S), make([]scanPolicy, S), make([]scanPolicy, S)
		// The fleet's DelayMat base seeds, derived as NewShardedDelayEstimator
		// derives them: one draw per shard, in shard order.
		r := rng.New(9)
		for s := 0; s < S; s++ {
			users[s] = poolSizeOf(si.pools[s], g.NumVertices())
			plain[s] = NewEstimator(si.shards[s])
			pruned[s] = NewPrunedEstimator(si.shards[s])
			delay[s] = newDelayEstimatorShard(sdm.shards[s], r.Uint64(), &sdm.fire, s, S, sdm.poolSizes[s])
		}
		for _, fam := range []struct {
			name   string
			inproc *ShardedEstimator
			fleet  []scanPolicy
		}{
			{"INDEXEST", NewShardedEstimator(si), plain},
			{"INDEXEST+", NewShardedPrunedEstimator(si), pruned},
			{"DELAYMAT", NewShardedDelayEstimator(sdm, rng.New(9)), delay},
		} {
			var stops int64
			// Both sides hold equal base seeds, so the DelayMat recoveries
			// draw the same samples for a user (in any order).
			for u := 0; u < g.NumVertices(); u += 7 {
				v := graph.VertexID(u)
				want := fam.inproc.EstimateProber(v, prober)
				parts := make([]Partial, 0, S)
				// Feed the gathers in reverse order to prove the fold
				// restores the canonical summation order.
				for s := S - 1; s >= 0; s-- {
					parts = append(parts, fam.fleet[s].scanProber(s, users[s], v, prober))
				}
				if got := GatherPartials(parts); got != want {
					t.Fatalf("S=%d %s user %d: gathered %+v, sharded estimator %+v", S, fam.name, u, got, want)
				}

				for _, fr := range frontiers {
					stop := noStop
					if fr.stopping {
						best := 0.0
						for _, res := range fam.inproc.EstimateFrontier(v, fr.posteriors, noStop) {
							best = max(best, res.Influence)
						}
						stop = sampling.StopRule{Threshold: 0.95 * best, LogInvDelta: math.Log(200) + 3 + math.Ln2}
					}
					before := fam.inproc.WorkStats()
					wantRows := fam.inproc.EstimateFrontier(v, fr.posteriors, stop)
					stops += fam.inproc.WorkStats().Sub(before).EarlyStops
					rows := make([][]Partial, 0, S)
					for s := S - 1; s >= 0; s-- {
						row := make([]Partial, len(fr.posteriors))
						scanFrontierChunks(fam.fleet[s], s, users[s], g.NumVertices(), v, fr.posteriors, stop, row, 1)
						rows = append(rows, row)
					}
					for i, got := range GatherFrontierPartials(rows) {
						if got != wantRows[i] {
							t.Fatalf("S=%d %s %s user %d sibling %d: gathered %+v, sharded estimator %+v",
								S, fam.name, fr.name, u, i, got, wantRows[i])
						}
					}
				}
			}
			if stops == 0 {
				t.Fatalf("S=%d %s: the stopping frontier never stopped a scan; the fixture proves nothing", S, fam.name)
			}
		}
	}
}

// TestGatherPartialsSurvivesJSON round-trips partials through the wire
// encoding and checks the gather is unchanged: encoding/json emits the
// shortest float representation that parses back to the same float64, and
// every Partial field is integral anyway.
func TestGatherPartialsSurvivesJSON(t *testing.T) {
	parts := []Partial{
		{Shard: 1, Hits: 17, Samples: 40, Contained: 40, Theta: 997, Users: 101},
		{Shard: 0, Hits: 3, Samples: 12, Contained: 15, Theta: 1003, Users: 99},
		{Shard: 2, Hits: 0, Samples: 0, Contained: 0, Theta: 1000, Users: 100},
	}
	want := GatherPartials(append([]Partial(nil), parts...))
	data, err := json.Marshal(parts)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Partial
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if got := GatherPartials(decoded); got != want {
		t.Fatalf("wire round-trip changed the gather: %+v vs %+v", got, want)
	}
}

// TestGatherPartialsDegraded checks the missing-shard math: the unbiased
// sum over responding shards extrapolated by |V|/|V_resp|, with Theta
// reporting the responding θ only (the achieved-ε input).
func TestGatherPartialsDegraded(t *testing.T) {
	parts := []Partial{
		{Shard: 0, Hits: 10, Samples: 20, Contained: 25, Theta: 1000, Users: 100},
		{Shard: 2, Hits: 30, Samples: 35, Contained: 40, Theta: 2000, Users: 150},
	}
	// Shard 1 (50 users, θ 500) is down; the cluster has 300 users total.
	got := GatherPartialsDegraded(append([]Partial(nil), parts...), 300)
	sum := 10.0/1000.0*100.0 + 30.0/2000.0*150.0
	want := sum * 300.0 / 250.0
	if got.Influence != want {
		t.Fatalf("degraded influence = %v, want %v", got.Influence, want)
	}
	if got.Theta != 3000 {
		t.Fatalf("degraded Theta = %d, want responding-only 3000", got.Theta)
	}
	if got.Samples != 55 || got.Reachable != 65 {
		t.Fatalf("degraded counts: %+v", got)
	}

	// A complete set must gather identically on both paths (the
	// extrapolation factor is exactly 1 and is skipped).
	full := []Partial{
		{Shard: 0, Hits: 10, Samples: 20, Contained: 25, Theta: 1000, Users: 100},
		{Shard: 1, Hits: 5, Samples: 9, Contained: 12, Theta: 500, Users: 50},
		{Shard: 2, Hits: 30, Samples: 35, Contained: 40, Theta: 2000, Users: 150},
	}
	healthy := GatherPartials(append([]Partial(nil), full...))
	alsoDegraded := GatherPartialsDegraded(append([]Partial(nil), full...), 300)
	if healthy != alsoDegraded {
		t.Fatalf("complete-set gathers differ: %+v vs %+v", healthy, alsoDegraded)
	}

	// All shards silent clamps to the floor.
	if r := GatherPartialsDegraded(nil, 300); r.Influence != 1 {
		t.Fatalf("empty gather influence = %v, want clamp 1", r.Influence)
	}
}

// TestRepairShardMatchesShardedRepair runs one update through both the
// standalone RepairShard path (what a shard server executes) and the
// in-process ShardedIndex.Repair, and checks every shard lands identical.
func TestRepairShardMatchesShardedRepair(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	const S = 3

	si, err := BuildSharded(g, opts, S)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	standalone := make([]*Index, S)
	for s := 0; s < S; s++ {
		standalone[s], _, err = BuildShard(g, opts, S, s)
		if err != nil {
			t.Fatalf("BuildShard(%d): %v", s, err)
		}
	}

	ng, info := applyDelta(t, g, graph.Delta{
		RetopicEdges: []graph.EdgeRetopic{{Edge: 0, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}},
		AddVertices:  5,
	})
	ropts := opts
	ropts.Seed = 99 // the cluster repair seed for the new generation
	wantSi, _, err := si.Repair(ng, ropts, info.TouchedHeads, info.AddedVertices)
	if err != nil {
		t.Fatalf("ShardedIndex.Repair: %v", err)
	}
	prober := fracProber{g: ng, f: 0.8}
	for s := 0; s < S; s++ {
		next, _, users, err := standalone[s].RepairShard(ng, ropts, S, s, info.TouchedHeads, info.AddedVertices)
		if err != nil {
			t.Fatalf("RepairShard(%d): %v", s, err)
		}
		want := wantSi.shards[s]
		if next.Theta() != want.Theta() || next.NumGraphs() != want.NumGraphs() {
			t.Fatalf("shard %d after repair: θ %d graphs %d, want θ %d graphs %d",
				s, next.Theta(), next.NumGraphs(), want.Theta(), want.NumGraphs())
		}
		if users != poolSizeOf(wantSi.pools[s], ng.NumVertices()) {
			t.Fatalf("shard %d users after repair = %d", s, users)
		}
		a, b := NewEstimator(next), NewEstimator(want)
		for u := 0; u < ng.NumVertices(); u += 7 {
			ra := a.Partial(s, users, graph.VertexID(u), prober)
			rb := b.Partial(s, users, graph.VertexID(u), prober)
			if ra != rb {
				t.Fatalf("shard %d user %d: repaired partials differ: %+v vs %+v", s, u, ra, rb)
			}
		}
	}
}

// TestBuildShardRejectsBadShard covers the layout validation.
func TestBuildShardRejectsBadShard(t *testing.T) {
	g := randomGraph(50, 3, 0.05, 0.4, 3)
	opts := shardOpts(1, 500)
	if _, _, err := BuildShard(g, opts, 3, 3); err == nil {
		t.Fatal("shard id == S accepted")
	}
	if _, _, err := BuildShard(g, opts, 3, -1); err == nil {
		t.Fatal("negative shard id accepted")
	}
	if _, _, err := BuildShard(g, BuildOptions{Accuracy: sampling.Options{}}, 3, 0); err == nil {
		t.Fatal("invalid accuracy accepted")
	}
}

// TestDelayMatRepairShardMatchesShardedRepair: repairing a standalone
// DelayMat shard slice under the cluster repair seed reproduces the
// corresponding member of a full ShardedDelayMat repair, counter for
// counter.
func TestDelayMatRepairShardMatchesShardedRepair(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	opts.TrackMembers = true
	const S = 3

	sdm, err := BuildShardedDelayMat(g, opts, S)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	standalone := make([]*DelayMat, S)
	for s := 0; s < S; s++ {
		standalone[s], _, err = BuildDelayMatShard(g, opts, S, s)
		if err != nil {
			t.Fatalf("BuildDelayMatShard(%d): %v", s, err)
		}
	}

	ng, info := applyDelta(t, g, graph.Delta{
		RetopicEdges: []graph.EdgeRetopic{{Edge: 0, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}},
		AddVertices:  5,
	})
	ropts := opts
	ropts.Seed = 99
	wantSdm, _, err := sdm.Repair(ng, ropts, info.TouchedHeads, info.AddedVertices)
	if err != nil {
		t.Fatalf("ShardedDelayMat.Repair: %v", err)
	}
	for s := 0; s < S; s++ {
		next, _, users, err := standalone[s].RepairShard(ng, ropts, S, s, info.TouchedHeads, info.AddedVertices)
		if err != nil {
			t.Fatalf("RepairShard(%d): %v", s, err)
		}
		want := wantSdm.shards[s]
		if next.Theta() != want.Theta() {
			t.Fatalf("shard %d: θ %d != sharded θ %d", s, next.Theta(), want.Theta())
		}
		if users != wantSdm.poolSizes[s] {
			t.Fatalf("shard %d: pool %d != sharded pool %d", s, users, wantSdm.poolSizes[s])
		}
		for v := 0; v < ng.NumVertices(); v++ {
			if next.Count(graph.VertexID(v)) != want.Count(graph.VertexID(v)) {
				t.Fatalf("shard %d: count[%d] = %d, sharded %d",
					s, v, next.Count(graph.VertexID(v)), want.Count(graph.VertexID(v)))
			}
		}
	}

	// Without member tracking the per-slice repair must refuse.
	plain, _, err := BuildDelayMatShard(g, shardOpts(42, 3000), S, 0)
	if err != nil {
		t.Fatalf("BuildDelayMatShard: %v", err)
	}
	if _, _, _, err := plain.RepairShard(ng, ropts, S, 0, info.TouchedHeads, info.AddedVertices); err != ErrNotRepairable {
		t.Fatalf("untracked RepairShard err = %v, want ErrNotRepairable", err)
	}
}
