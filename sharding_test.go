package pitex

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"pitex/internal/bestfirst"
	"pitex/internal/graph"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// shardedTestOptions is testEngineOptions with the sharded index layout.
func shardedTestOptions(s Strategy, shards int) Options {
	opts := testEngineOptions(s)
	opts.IndexShards = shards
	return opts
}

// TestShardedEngineFindsFig2Optimum: all index strategies must still find
// the known Fig. 2 optimum when the offline structure is split into more
// shards than the statistics comfortably like — the gathered estimate
// stays unbiased at any S.
func TestShardedEngineFindsFig2Optimum(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyIndex, StrategyIndexPruned, StrategyDelay} {
		en, err := NewEngine(net, model, shardedTestOptions(s, 4))
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		res, err := en.Query(0, 2)
		if err != nil {
			t.Fatalf("%v: Query: %v", s, err)
		}
		if len(res.Tags) != 2 || res.Tags[0] != 2 || res.Tags[1] != 3 {
			t.Errorf("%v: sharded query found %v, want [2 3]", s, res.Tags)
		}
		stats := en.IndexShardStats()
		if len(stats) != 4 {
			t.Fatalf("%v: IndexShardStats rows = %d, want 4", s, len(stats))
		}
		var bytesSum int64
		users := 0
		for _, st := range stats {
			bytesSum += st.IndexBytes
			users += st.Users
		}
		if bytesSum != en.IndexMemoryBytes() {
			t.Errorf("%v: per-shard bytes %d != IndexMemoryBytes %d", s, bytesSum, en.IndexMemoryBytes())
		}
		if users != net.NumUsers() {
			t.Errorf("%v: shard user partitions cover %d users, want %d", s, users, net.NumUsers())
		}
	}
}

// TestShardedEngineSaveLoadRoundTrip: the v3 format round-trips the shard
// layout through SaveIndex / NewEngineWithIndex with identical answers.
func TestShardedEngineSaveLoadRoundTrip(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyIndexPruned, StrategyDelay} {
		en, err := NewEngine(net, model, shardedTestOptions(s, 3))
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		var buf bytes.Buffer
		if err := en.SaveIndex(&buf); err != nil {
			t.Fatalf("%v: SaveIndex: %v", s, err)
		}
		loaded, err := NewEngineWithIndex(net, model, shardedTestOptions(s, 3), &buf)
		if err != nil {
			t.Fatalf("%v: NewEngineWithIndex: %v", s, err)
		}
		if got := len(loaded.IndexShardStats()); got != 3 {
			t.Fatalf("%v: loaded engine has %d shards, want 3", s, got)
		}
		want, err := en.Query(0, 2)
		if err != nil {
			t.Fatalf("%v: Query: %v", s, err)
		}
		got, err := loaded.Query(0, 2)
		if err != nil {
			t.Fatalf("%v: loaded Query: %v", s, err)
		}
		if got.Influence != want.Influence && s != StrategyDelay {
			// DelayMat recovery draws fresh RNG per estimator, so only the
			// materialized index pins bit-equal influences across a reload.
			t.Errorf("%v: loaded influence %v != original %v", s, got.Influence, want.Influence)
		}
		if len(got.Tags) != 2 || got.Tags[0] != want.Tags[0] || got.Tags[1] != want.Tags[1] {
			t.Errorf("%v: loaded tags %v != original %v", s, got.Tags, want.Tags)
		}
	}
}

// TestLoadedEngineReportsFileShards: a loaded index keeps its file's
// shard count, and Options must say so — the analytics checkpoint
// fingerprint reads it. A 0 that means one shard stays 0.
func TestLoadedEngineReportsFileShards(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyIndexPruned, StrategyDelay} {
		for _, tc := range []struct{ saved, asked, want int }{
			{3, 0, 3},
			{1, 0, 0},
			{1, 4, 1},
		} {
			en, err := NewEngine(net, model, shardedTestOptions(s, tc.saved))
			if err != nil {
				t.Fatalf("%v: NewEngine: %v", s, err)
			}
			var buf bytes.Buffer
			if err := en.SaveIndex(&buf); err != nil {
				t.Fatalf("%v: SaveIndex: %v", s, err)
			}
			loaded, err := NewEngineWithIndex(net, model, shardedTestOptions(s, tc.asked), &buf)
			if err != nil {
				t.Fatalf("%v: NewEngineWithIndex: %v", s, err)
			}
			if got := loaded.Options().IndexShards; got != tc.want || max(1, got) != len(loaded.IndexShardStats()) {
				t.Errorf("%v: saved at S=%d, loaded asking %d: Options().IndexShards = %d over %d shards, want %d",
					s, tc.saved, tc.asked, got, len(loaded.IndexShardStats()), tc.want)
			}
		}
	}
}

// TestShardedEngineApplyUpdates: incremental repair under the sharded
// layout stays incremental, advances the generation, and accumulates
// per-shard repair counters that agree with the reported stats.
func TestShardedEngineApplyUpdates(t *testing.T) {
	net, model, err := GenerateDatasetSpec(DatasetSpec{
		Name: "shardtest", Users: 400, Edges: 2400,
		Topics: 8, Tags: 20, TopicsPerEdge: 2, MaxProb: 0.3, Reciprocity: 0.2,
	}, 1)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	opts := Options{
		Strategy: StrategyIndexPruned, Epsilon: 0.5, Delta: 100, MaxK: 4,
		Seed: 3, MaxSamples: 500, MaxIndexSamples: 4000, IndexShards: 4,
	}
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before := en.IndexShardStats()

	var b UpdateBatch
	b.SetEdge(0, firstOutNeighbor(t, net, 0), TopicProb{Topic: 0, Prob: 0.9})
	next, stats, err := en.ApplyUpdates(&b)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if next.Generation() != 1 || stats.FullRebuild {
		t.Fatalf("unexpected stats %+v", stats)
	}
	if stats.GraphsRepaired == 0 || stats.GraphsRepaired >= stats.GraphsTotal {
		t.Fatalf("repair not incremental: %d of %d", stats.GraphsRepaired, stats.GraphsTotal)
	}
	after := next.IndexShardStats()
	var delta int64
	for s := range after {
		delta += after[s].GraphsRepaired - before[s].GraphsRepaired
	}
	if delta != int64(stats.GraphsRepaired+stats.GraphsAppended) {
		t.Fatalf("per-shard repaired delta %d != stats %d", delta, stats.GraphsRepaired+stats.GraphsAppended)
	}
	if _, err := next.Query(0, 2); err != nil {
		t.Fatalf("Query after sharded repair: %v", err)
	}
}

// firstOutNeighbor returns a user that user `from` has a live edge to.
func firstOutNeighbor(t *testing.T, net *Network, from int) int {
	t.Helper()
	to := -1
	net.ForEachEdge(func(e Edge) bool {
		if e.From == from {
			to = e.To
			return false
		}
		return true
	})
	if to < 0 {
		t.Fatalf("user %d has no out-edges", from)
	}
	return to
}

// TestShardedConcurrentQueryAndUpdate is the -race scatter-gather stress
// test: engine clones answer queries (each estimation fanning out across
// shard workers) while update batches repair the sharded index in
// parallel on other goroutines. Old-generation clones must keep
// answering; nothing may race.
func TestShardedConcurrentQueryAndUpdate(t *testing.T) {
	net, model, err := GenerateDatasetSpec(DatasetSpec{
		Name: "shardrace", Users: 400, Edges: 3200,
		Topics: 10, Tags: 24, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3,
	}, 2)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	opts := Options{
		Strategy: StrategyIndex, Epsilon: 0.5, Delta: 100, MaxK: 4,
		Seed: 5, MaxSamples: 300, MaxIndexSamples: 6000, IndexShards: 4,
	}
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		clone := en.Clone()
		user := (w * 37) % net.NumUsers()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := clone.Query(user, 2); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	type edge struct{ from, to int }
	batches := make([]edge, 3)
	for gen := range batches {
		from := (gen * 53) % net.NumUsers()
		batches[gen] = edge{from: from, to: firstOutNeighbor(t, net, from)}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := en
		for _, e := range batches {
			var b UpdateBatch
			b.SetEdge(e.from, e.to, TopicProb{Topic: 0, Prob: 0.8})
			next, _, err := cur.ApplyUpdates(&b)
			if err != nil {
				errc <- err
				return
			}
			if _, err := next.Query(e.from, 2); err != nil {
				errc <- err
				return
			}
			cur = next
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent sharded workload failed: %v", err)
	}
}

// hiddenFrontier strips an index estimator down to bestfirst.Estimator,
// so an explorer over it bounds the way every explorer did before bounds
// rode the frontier batch: masked reach counts.
type hiddenFrontier struct{ est bestfirst.Estimator }

func (h hiddenFrontier) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	return h.est.EstimateProber(u, prober)
}

// TestEngineRowBoundsKeepInfluences is the old-path-vs-new-path identity
// at the engine: every influence an index engine
// returns — the optimum, every alternative, a prefix completion — equals
// what a reference explorer over the same kind of estimator with its
// frontier capability hidden returns, for every index strategy and shard
// count. Only influences are pinned: the two
// searches pop in different orders, so they may pick different sets among
// exact ties.
func TestEngineRowBoundsKeepInfluences(t *testing.T) {
	net, model, err := GenerateDatasetSpec(DatasetSpec{
		Name: "rowbounds", Users: 300, Edges: 2400,
		Topics: 8, Tags: 14, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.2,
	}, 7)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	for _, strat := range []Strategy{StrategyIndex, StrategyIndexPruned, StrategyDelay} {
		for _, shards := range []int{1, 3} {
			opts := Options{
				Strategy: strat, Epsilon: 0.5, Delta: 100, MaxK: 4, Seed: 11,
				MaxSamples: 500, MaxIndexSamples: 3000, IndexShards: shards,
			}
			en, err := NewEngine(net, model, opts)
			if err != nil {
				t.Fatalf("%v S%d: NewEngine: %v", strat, shards, err)
			}
			// A second engine, not a clone: DELAYMAT recovery consumes
			// its estimator's RNG stream, and two engines built alike
			// and queried alike recover the same RR-Graphs.
			refEn, err := NewEngine(net, model, opts)
			if err != nil {
				t.Fatalf("%v S%d: NewEngine: %v", strat, shards, err)
			}
			ref := bestfirst.NewExplorer(net.g, model.m, hiddenFrontier{refEn.est})
			var rowBounds int64
			for u := 0; u < net.NumUsers(); u += 23 {
				for _, k := range []int{2, 3} {
					got, err := en.QueryTop(u, k, 3)
					if err != nil {
						t.Fatalf("%v S%d: QueryTop(%d,%d): %v", strat, shards, u, k, err)
					}
					want, err := ref.QueryTop(graph.VertexID(u), k, 3)
					if err != nil {
						t.Fatalf("%v S%d: reference QueryTop(%d,%d): %v", strat, shards, u, k, err)
					}
					if len(got.Alternatives) != len(want.All) {
						t.Fatalf("%v S%d u=%d k=%d: %d alternatives, reference %d",
							strat, shards, u, k, len(got.Alternatives), len(want.All))
					}
					for i, alt := range got.Alternatives {
						if alt.Influence != want.All[i].Influence {
							t.Fatalf("%v S%d u=%d k=%d rank %d: influence %v, reference %v",
								strat, shards, u, k, i, alt.Influence, want.All[i].Influence)
						}
					}
					if got.Explain.BoundCacheHits != 0 {
						t.Fatalf("%v S%d u=%d k=%d: %d mask-memo hits on an index engine",
							strat, shards, u, k, got.Explain.BoundCacheHits)
					}
					rowBounds += got.PartialBoundsEstimated
					pg, err := en.QueryWithPrefix(u, []int{3}, k)
					if err != nil {
						t.Fatalf("%v S%d: QueryWithPrefix(%d,%d): %v", strat, shards, u, k, err)
					}
					pw, err := ref.Complete(graph.VertexID(u), []topics.TagID{3}, k)
					if err != nil {
						t.Fatalf("%v S%d: reference Complete(%d,%d): %v", strat, shards, u, k, err)
					}
					if pg.Influence != pw.Influence {
						t.Fatalf("%v S%d u=%d k=%d prefix: influence %v, reference %v",
							strat, shards, u, k, pg.Influence, pw.Influence)
					}
				}
			}
			if rowBounds == 0 {
				t.Fatalf("%v S%d: no partial set was ever bounded as a row", strat, shards)
			}
		}
	}
}

// TestIndexAnswersIgnoreDisableEarlyStop: an index estimate is the full
// count over θ, never stopped early, so DisableEarlyStop — an online
// sampler knob — leaves every index engine's result unchanged, Explain
// counters included. BenchmarkQuerySingle's headline spec and options, at
// one shard and four, over its mid user and the 256 round-robin users of
// its cold rows.
func TestIndexAnswersIgnoreDisableEarlyStop(t *testing.T) {
	net, model, err := GenerateDatasetSpec(DatasetSpec{
		Name: "headline", Users: 1500, Edges: 15000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3,
	}, 1)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	users := []int{net.UsersByGroup()["mid"][0]}
	for u := 0; u < 256; u++ {
		users = append(users, u)
	}
	for _, strat := range []Strategy{StrategyIndex, StrategyIndexPruned, StrategyDelay} {
		for _, shards := range []int{1, 4} {
			opts := Options{
				Strategy: strat, Epsilon: 0.7, Delta: 1000, MaxK: 5, Seed: 1,
				MaxSamples: 500, MaxIndexSamples: 20000, IndexShards: shards,
			}
			en, err := NewEngine(net, model, opts)
			if err != nil {
				t.Fatalf("%v S%d: NewEngine: %v", strat, shards, err)
			}
			opts.DisableEarlyStop = true
			exhaustive, err := NewEngine(net, model, opts)
			if err != nil {
				t.Fatalf("%v S%d: NewEngine (DisableEarlyStop): %v", strat, shards, err)
			}
			for _, u := range users {
				got, err := en.Query(u, 3)
				if err != nil {
					t.Fatalf("%v S%d: Query(%d): %v", strat, shards, u, err)
				}
				want, err := exhaustive.Query(u, 3)
				if err != nil {
					t.Fatalf("%v S%d: Query(%d) (DisableEarlyStop): %v", strat, shards, u, err)
				}
				got.Elapsed, want.Elapsed = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v S%d user %d: DisableEarlyStop changed the result:\n got  %+v\n want %+v",
						strat, shards, u, got, want)
				}
			}
		}
	}
}
