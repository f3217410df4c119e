package dynamic

import (
	"fmt"
	"testing"

	"pitex"
	"pitex/internal/rng"
)

// benchSetup builds the benchmark universe once: a 2000-user network with
// ~10k edges, an IndexEst+ engine over it, and update batches touching
// ~0.5% of the edges (50 probability drifts + 5 deletes + 5 inserts ≈ 60
// of ~10k), the "social graph absorbing daily churn" shape the ISSUE's
// acceptance criterion targets (batches ≤ 1% of edges).
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

// BenchmarkUpdaterSwapUnderLoad measures Apply latency while clones
// query concurrently, the serving-path picture of a hot-swap.
func BenchmarkUpdaterSwapUnderLoad(b *testing.B) {
	u := setupBench(b)
	up, err := NewUpdater(u.en)
	if err != nil {
		b.Fatalf("NewUpdater: %v", err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			clone := up.Engine().Clone()
			_, _ = clone.Query(1, 2)
		}
	}()
	batch := u.batches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Apply(batch()); err != nil {
			b.Fatalf("Apply: %v", err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}
