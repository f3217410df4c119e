package rrindex

import (
	"bytes"
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
}

// TestGatherPartialsMatchesShardedEstimator checks that scanning every
// shard on its own policy — what a fleet of shard servers does — and
// gathering with GatherPartials / GatherFrontierPartials reproduces the
// in-process ShardedEstimator result exactly: the distributed
// all-shards-healthy guarantee, for all three families, at one shard and
// several, on the per-prober path and on the frontier path at width 1,
// and across the 64-sibling chunk boundary.
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
	}{
		{"width-1", wide[:1]},
		{"width-65", wide},
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
					wantRows := fam.inproc.EstimateFrontier(v, fr.posteriors, sampling.StopRule{})
					rows := make([][]Partial, 0, S)
					for s := S - 1; s >= 0; s-- {
						row := make([]Partial, len(fr.posteriors))
						scanFrontierChunks(fam.fleet[s], s, users[s], v, fr.posteriors, row, 1)
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
		}
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

// TestCheckShard: a slice fits only the shard it was built as, with that
// shard's |V_s|.
func TestCheckShard(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	const S = 3
	idx, users, err := BuildShard(g, opts, S, 1)
	if err != nil {
		t.Fatalf("BuildShard: %v", err)
	}
	if err := idx.CheckShard(opts, S, 1, users); err != nil {
		t.Fatalf("index as built: %v", err)
	}
	if err := idx.CheckShard(opts, S, 0, users); err == nil {
		t.Fatal("shard 1's graphs accepted as shard 0")
	}
	if err := idx.CheckShard(opts, S, 1, users+1); err == nil {
		t.Fatal("wrong |V_s| accepted for an index")
	}
	if err := idx.CheckShard(opts, S, S, users); err == nil {
		t.Fatal("shard id outside the layout accepted")
	}
}
