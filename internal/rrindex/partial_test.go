package rrindex

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// TestBuildShardMatchesSharded is the fleet byte-identity contract: each
// shard built standalone by BuildShard, and each shard of a container
// holding shards {0, 2} alone, must be the same index, bit for bit, as
// the slot BuildSharded holds in process, with the same ShardStats row,
// so the partial container's Theta and MemoryFootprint are those rows'.
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
		if users != si.users[s] {
			t.Fatalf("shard %d users = %d, the sharded index has %d", s, users, si.users[s])
		}
		assertSameIndex(t, fmt.Sprintf("standalone shard %d", s), idx, si.shards[s])
	}

	held, err := BuildOwned(g, opts, S, []int{0, 2})
	if err != nil {
		t.Fatalf("BuildOwned: %v", err)
	}
	all := si.ShardStats()
	if got, want := held.ShardStats(), []ShardStat{all[0], all[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("held {0, 2} stats %+v, want rows 0 and 2: %+v", got, want)
	}
	if held.NumShards() != S || held.Theta() != all[0].Theta+all[2].Theta ||
		held.MemoryFootprint() != all[0].Bytes+all[2].Bytes {
		t.Fatalf("held {0, 2}: S=%d θ=%d bytes=%d, want %d, %d and %d", held.NumShards(), held.Theta(),
			held.MemoryFootprint(), S, all[0].Theta+all[2].Theta, all[0].Bytes+all[2].Bytes)
	}
	for i, s := range held.ids {
		assertSameIndex(t, fmt.Sprintf("held shard %d", s), held.shards[i], si.shards[s])
	}
	if err := WriteSharded(io.Discard, held); err == nil {
		t.Fatal("a container holding 2 of 3 shards wrote a whole-layout file")
	}
}

// assertSameIndex fails unless a and b serialize to the same bytes.
func assertSameIndex(t *testing.T, name string, a, b *Index) {
	t.Helper()
	var ab, bb bytes.Buffer
	if err := WriteIndex(&ab, a); err != nil {
		t.Fatalf("%s: WriteIndex: %v", name, err)
	}
	if err := WriteIndex(&bb, b); err != nil {
		t.Fatalf("%s: WriteIndex of the reference: %v", name, err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatalf("%s: serialization differs (%d bytes, reference %d bytes)", name, ab.Len(), bb.Len())
	}
}

// frontierRows is one policy's rows for a frontier on one shard, the
// scan a held shard of a ShardedEstimator runs.
func frontierRows(p scanPolicy, shard, users int, u graph.VertexID, posteriors [][]float64) []Partial {
	out := make([]Partial, len(posteriors))
	scanFrontierChunks(p, shard, users, u, nil, posteriors, out, 1)
	return out
}

// TestGatherPartialsMatchesShardedEstimator checks that scanning every
// shard on its own policy — what a fleet of shard servers does — and
// gathering with GatherPartials / GatherFrontierPartials reproduces the
// in-process ShardedEstimator result exactly: the distributed
// all-shards-healthy guarantee, for all three families, at one shard and
// several, under an arbitrary prober and on the frontier path at width 1,
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
			users[s] = si.users[s]
			plain[s] = NewEstimator(si.shards[s])
			pruned[s] = NewPrunedEstimator(si.shards[s])
			delay[s] = newDelayEstimatorShard(sdm.shards[s], r.Uint64(), &sdm.gen, s, S, sdm.users[s])
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
					row := make([]Partial, 1)
					scanFrontierChunks(fam.fleet[s], s, users[s], v, prober, oneRow, row, 1)
					parts = append(parts, row[0])
				}
				if got := GatherPartials(parts); got != want {
					t.Fatalf("S=%d %s user %d: gathered %+v, sharded estimator %+v", S, fam.name, u, got, want)
				}

				for _, fr := range frontiers {
					wantRows := fam.inproc.EstimateFrontier(v, fr.posteriors, sampling.StopRule{})
					rows := make([][]Partial, 0, S)
					for s := S - 1; s >= 0; s-- {
						row := make([]Partial, len(fr.posteriors))
						scanFrontierChunks(fam.fleet[s], s, users[s], v, nil, fr.posteriors, row, 1)
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

// TestRepairShardMatchesShardedRepair runs one update that adds users
// through a container holding shards {0, 2} of the layout (what a shard
// server repairs) and through the in-process ShardedIndex.Repair, and
// checks both held shards land identical: the same bytes, ShardStats
// rows and Partials rows.
func TestRepairShardMatchesShardedRepair(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	const S = 3

	si, err := BuildSharded(g, opts, S)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	held, err := BuildOwned(g, opts, S, []int{0, 2})
	if err != nil {
		t.Fatalf("BuildOwned: %v", err)
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
	next, _, err := held.Repair(ng, ropts, info.TouchedHeads, info.AddedVertices)
	if err != nil {
		t.Fatalf("held {0, 2} Repair: %v", err)
	}
	all := wantSi.ShardStats()
	if got, want := next.ShardStats(), []ShardStat{all[0], all[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("repaired {0, 2} stats %+v, want rows 0 and 2: %+v", got, want)
	}
	for i, s := range next.ids {
		assertSameIndex(t, fmt.Sprintf("repaired shard %d", s), next.shards[i], wantSi.shards[s])
	}
	posteriors := siblingPosteriors(topics.GenerateRandom(rng.New(77), 12, 2, 2), []topics.TagID{2}, 6)
	a, b := NewShardedEstimator(next), NewShardedEstimator(wantSi)
	for u := 0; u < ng.NumVertices(); u += 7 {
		got, want := a.Partials(graph.VertexID(u), posteriors), b.Partials(graph.VertexID(u), posteriors)
		if !reflect.DeepEqual(got, [][]Partial{want[0], want[2]}) {
			t.Fatalf("user %d: repaired {0, 2} rows %+v, in-process rows %+v", u, got, want)
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

// TestCheckShard: ReadOwned installs a slice only as the shard it was
// built as, with that shard's |V_s|, and only into a held set of the
// layout's shard ids.
func TestCheckShard(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	const S = 3
	held, err := BuildOwned(g, opts, S, []int{0, 2})
	if err != nil {
		t.Fatalf("BuildOwned: %v", err)
	}
	files := make([][]byte, 2)
	for i := range files {
		var b bytes.Buffer
		if err := WriteShard(&b, held, i); err != nil {
			t.Fatalf("WriteShard(%d): %v", i, err)
		}
		files[i] = b.Bytes()
	}
	install := func(owned, users []int, order ...int) (*ShardedIndex, error) {
		readers := make([]io.Reader, len(order))
		for i, f := range order {
			readers[i] = bytes.NewReader(files[f])
		}
		return ReadOwned(g, opts, S, owned, users, readers)
	}
	users, sizes := held.users, poolSizes(shardPools(g.NumVertices(), S), g.NumVertices())
	got, err := install([]int{0, 2}, users, 0, 1)
	if err != nil {
		t.Fatalf("slices as built: %v", err)
	}
	if !reflect.DeepEqual(got.ShardStats(), held.ShardStats()) {
		t.Fatalf("installed stats %+v, built %+v", got.ShardStats(), held.ShardStats())
	}
	for i := range got.ids {
		assertSameIndex(t, fmt.Sprintf("installed slice %d", i), got.shards[i], held.shards[i])
	}
	for _, bad := range []struct {
		name         string
		owned, users []int
		order        []int
	}{
		{"shard 2's graphs as shard 0", []int{0, 2}, users, []int{1, 0}},
		{"shard 2's graphs as shard 1", []int{0, 1}, sizes[:2], []int{0, 1}},
		{"a wrong |V_s|", []int{0, 2}, []int{users[0], users[1] + 1}, []int{0, 1}},
		{"a shard id outside the layout", []int{0, S}, users, []int{0, 1}},
		{"descending ids", []int{2, 0}, []int{users[1], users[0]}, []int{1, 0}},
		{"a missing file", []int{0, 2}, users, []int{0}},
	} {
		if _, err := install(bad.owned, bad.users, bad.order...); err == nil {
			t.Fatalf("%s accepted", bad.name)
		}
	}
}
