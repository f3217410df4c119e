package rrindex

import (
	"fmt"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// Steady-state allocations per call: the frontier call reuses its result
// slice, and the prober call — handed an already-boxed prober — allocates
// nothing either.
const (
	allocsPerEstimateFrontier = 0
	allocsPerEstimateProber   = 0
)

// TestEstimatorAllocationGuard pins the hot path's allocation count for
// all three families: at S=1 for a light user and for a hub whose work
// is above scatterParallelMinWork (one shard has nobody to fan out to,
// so even the parallel branch must stay allocation-free), and at S=4 for
// a light user, where the sequential scatter may cost no more than S=1.
// A closure or scratch slice allocated per call fails here long before
// the benchmark's 10 % alloc bound would notice.
func TestEstimatorAllocationGuard(t *testing.T) {
	g := randomGraph(300, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	m := topics.GenerateRandom(rng.New(101), 10, 2, 2)
	posteriors := siblingPosteriors(m, []topics.TagID{1}, 9)
	if len(posteriors) != 9 {
		t.Fatalf("fixture model yielded %d/9 defined posteriors", len(posteriors))
	}
	var prober sampling.EdgeProber = fracProber{g: g, f: 0.8}

	for _, S := range []int{1, 4} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildShardedDelayMat: %v", S, err)
		}
		// The lightest and heaviest users by total postings.
		light, hub, lightWork, hubWork := graph.VertexID(0), graph.VertexID(0), 0, 0
		for u := 0; u < g.NumVertices(); u++ {
			work := 0
			for _, sh := range si.shards {
				work += sh.NumContaining(graph.VertexID(u))
			}
			if work > hubWork {
				hub, hubWork = graph.VertexID(u), work
			}
			if work > 0 && (lightWork == 0 || work < lightWork) {
				light, lightWork = graph.VertexID(u), work
			}
		}
		if lightWork == 0 || lightWork >= scatterParallelMinWork || hubWork < scatterParallelMinWork {
			t.Fatalf("S=%d fixture does not straddle the fan-out threshold %d: light %d, hub %d",
				S, scatterParallelMinWork, lightWork, hubWork)
		}
		users := []graph.VertexID{light}
		if S == 1 {
			users = append(users, hub)
		}
		for name, est := range map[string]*ShardedEstimator{
			"INDEXEST":  NewShardedEstimator(si),
			"INDEXEST+": NewShardedPrunedEstimator(si),
			"DELAYMAT":  NewShardedDelayEstimator(sdm, rng.New(9)),
		} {
			for _, u := range users {
				label := fmt.Sprintf("S=%d %s u=%d", S, name, u)
				// Warm every scratch buffer (and DelayMat's recovery) first.
				est.EstimateFrontier(u, posteriors, sampling.StopRule{})
				est.EstimateProber(u, prober)
				if got := testing.AllocsPerRun(50, func() { est.EstimateFrontier(u, posteriors, sampling.StopRule{}) }); got > allocsPerEstimateFrontier {
					t.Errorf("%s: EstimateFrontier allocates %v times a call, want ≤ %d", label, got, allocsPerEstimateFrontier)
				}
				if got := testing.AllocsPerRun(50, func() { est.EstimateProber(u, prober) }); got > allocsPerEstimateProber {
					t.Errorf("%s: EstimateProber allocates %v times a call, want ≤ %d", label, got, allocsPerEstimateProber)
				}
			}
		}
	}
}
