package pitex_test

import (
	"fmt"
	"math"
	"testing"

	"pitex"
	"pitex/internal/rng"
)

// randomNetwork builds a sparse random network for the equivalence test
// and benchmarks.
func randomNetwork(tb testing.TB, users, avgDeg, topics int, lo, hi float64, seed uint64) (*pitex.Network, *pitex.TagModel) {
	tb.Helper()
	r := rng.New(seed)
	nb := pitex.NewNetworkBuilder(users, topics)
	for v := 0; v < users; v++ {
		for d := 0; d < avgDeg; d++ {
			to := r.Intn(users)
			if to == v {
				continue
			}
			nb.AddEdge(v, to, pitex.TopicProb{Topic: r.Intn(topics), Prob: lo + (hi-lo)*r.Float64()})
		}
	}
	net, err := nb.Build()
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	model, err := pitex.NewTagModel(2*topics, topics)
	if err != nil {
		tb.Fatalf("NewTagModel: %v", err)
	}
	for w := 0; w < 2*topics; w++ {
		if err := model.SetTagTopic(w, w%topics, 0.7); err != nil {
			tb.Fatalf("SetTagTopic: %v", err)
		}
		if err := model.SetTagTopic(w, (w+1)%topics, 0.3); err != nil {
			tb.Fatalf("SetTagTopic: %v", err)
		}
	}
	return net, model
}

// TestRepairedEngineMatchesRebuild is the repair equivalence check at the
// public-API level: after a mixed batch, the incrementally repaired
// engine's estimates match a from-scratch NewEngine over the updated
// network within the estimators' (1±ε) tolerance.
func TestRepairedEngineMatchesRebuild(t *testing.T) {
	net, model := randomNetwork(t, 250, 4, 2, 0.05, 0.3, 17)
	opts := pitex.Options{
		Strategy: pitex.StrategyIndex, Epsilon: 0.2, Delta: 200,
		MaxK: 2, Seed: 5, // θ uncapped: the guarantee must actually hold
	}
	en, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	edges := liveEdges(net)
	var b pitex.UpdateBatch
	b.DeleteEdge(edges[0].From, edges[0].To)
	b.DeleteEdge(edges[40].From, edges[40].To)
	b.SetEdge(edges[80].From, edges[80].To, pitex.TopicProb{Topic: 0, Prob: 0.25})
	b.InsertEdge(1, 200, pitex.TopicProb{Topic: 0, Prob: 0.4})
	b.InsertEdge(200, 2, pitex.TopicProb{Topic: 1, Prob: 0.4})
	repaired, stats, err := en.ApplyUpdates(&b)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if stats.RepairedFraction() >= 0.9 {
		t.Fatalf("repair fraction %.2f — not incremental", stats.RepairedFraction())
	}
	rebuilt, err := pitex.NewEngine(repaired.Network(), model, opts)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	tol := (1 + opts.Epsilon) / (1 - opts.Epsilon) * 1.05
	for u := 0; u < 250; u += 13 {
		a, err := repaired.EstimateInfluence(u, []int{0, 1})
		if err != nil {
			t.Fatalf("repaired estimate: %v", err)
		}
		c, err := rebuilt.EstimateInfluence(u, []int{0, 1})
		if err != nil {
			t.Fatalf("rebuilt estimate: %v", err)
		}
		lo, hi := math.Min(a, c), math.Max(a, c)
		if hi/lo > tol {
			t.Errorf("u=%d: repaired %.4f vs rebuilt %.4f exceeds tolerance %.3f", u, a, c, tol)
		}
	}
}

// liveEdges collects the network's live edges in ID order, deduplicated
// by (from, to) so batch operations that resolve every parallel edge pick
// distinct pairs.
func liveEdges(net *pitex.Network) []pitex.Edge {
	var out []pitex.Edge
	seen := map[[2]int]bool{}
	net.ForEachEdge(func(e pitex.Edge) bool {
		if e.Live() && !seen[[2]int{e.From, e.To}] {
			seen[[2]int{e.From, e.To}] = true
			out = append(out, e)
		}
		return true
	})
	return out
}

// benchUniverse is the repair benchmarks' universe, built once by
// setupBench: a 2000-user network with ~10k edges, an IndexEst+ engine over it, and update batches touching
// ~0.5% of the edges (50 probability drifts + 5 deletes + 5 inserts ≈ 60
// of ~10k), the "social graph absorbing daily churn" shape incremental
// repair targets (batches ≤ 1% of edges).
type benchUniverse struct {
	net   *pitex.Network
	model *pitex.TagModel
	opts  pitex.Options
	en    *pitex.Engine
	edges []pitex.Edge
}

var benchU *benchUniverse

func setupBench(b *testing.B) *benchUniverse {
	b.Helper()
	if benchU != nil {
		return benchU
	}
	net, model := randomNetwork(b, 2000, 5, 2, 0.02, 0.12, 99)
	// θ is left at its theoretical Eq. 7 value (~150k RR-Graphs for this
	// network): capping it would shrink exactly the rebuild cost that
	// incremental repair amortizes, flattering neither side.
	opts := pitex.Options{
		Strategy: pitex.StrategyIndexPruned, Epsilon: 0.5, Delta: 100,
		MaxK: 2, Seed: 3,
	}
	en, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	benchU = &benchUniverse{net: net, model: model, opts: opts, en: en, edges: liveEdges(net)}
	return benchU
}

// batches returns a stream of update batches drawn from its own RNG, so a
// benchmark replays the same stream on every run.
func (u *benchUniverse) batches() func() *pitex.UpdateBatch {
	r := rng.New(7)
	return func() *pitex.UpdateBatch {
		var ub pitex.UpdateBatch
		for i := 0; i < 50; i++ {
			e := u.edges[r.Intn(len(u.edges)-20)+10]
			ub.SetEdge(e.From, e.To, pitex.TopicProb{Topic: 0, Prob: 0.02 + 0.1*r.Float64()})
		}
		for i := 0; i < 5; i++ {
			e := u.edges[i] // deleted once below; later batches re-insert first
			ub.DeleteEdge(e.From, e.To)
			ub.InsertEdge(e.From, e.To, pitex.TopicProb{Topic: 1, Prob: 0.05})
		}
		return &ub
	}
}

// BenchmarkIncrementalRepair measures Engine.ApplyUpdates: patch the live
// index for a ≤1%-of-edges batch. Compare with BenchmarkFullRebuild — the
// acceptance bar is a ≥10x advantage. S1 repairs the single-shard index;
// S3 the 3-shard one, whose repair routes each batch to the shards owning
// a touched head and repairs them concurrently. Both replay one batch
// stream, so their allocations per op repeat run to run (the bench gate
// holds those; their wall-clock tracks the runner's cores).
func BenchmarkIncrementalRepair(b *testing.B) {
	u := setupBench(b)
	for _, shards := range []int{1, 3} {
		b.Run(fmt.Sprintf("S%d", shards), func(b *testing.B) {
			opts := u.opts
			opts.IndexShards = shards
			cur, err := pitex.NewEngine(u.net, u.model, opts)
			if err != nil {
				b.Fatalf("NewEngine: %v", err)
			}
			batch := u.batches()
			var frac float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, stats, err := cur.ApplyUpdates(batch())
				if err != nil {
					b.Fatalf("ApplyUpdates: %v", err)
				}
				cur = next
				frac = stats.RepairedFraction()
			}
			b.ReportMetric(frac, "repaired-fraction")
		})
	}
}

// BenchmarkFullRebuild measures the status quo ante: NewEngine from
// scratch over the updated network (the offline phase the paper's Table 3
// prices), which is what a frozen-index deployment pays per change.
func BenchmarkFullRebuild(b *testing.B) {
	u := setupBench(b)
	// Apply one batch so the rebuilt network is the post-update one.
	next, _, err := u.en.ApplyUpdates(u.batches()())
	if err != nil {
		b.Fatalf("ApplyUpdates: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pitex.NewEngine(next.Network(), u.model, u.opts); err != nil {
			b.Fatalf("NewEngine: %v", err)
		}
	}
}
