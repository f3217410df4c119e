package pitex_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pitex"
	"pitex/internal/rng"
)

// randomBatch stages one random batch against net: of a few edge
// deletions, insertions and topic changes, or a single one of them.
func randomBatch(net *pitex.Network, r *rng.Source) *pitex.UpdateBatch {
	edges := liveEdges(net)
	n := 1
	if r.Bernoulli(0.5) {
		n = 1 + r.Intn(10)
	}
	var b pitex.UpdateBatch
	picked := map[int]bool{}
	for i := 0; i < n; i++ {
		j := r.Intn(len(edges))
		for picked[j] {
			j = r.Intn(len(edges))
		}
		picked[j] = true
		e := edges[j]
		switch r.Intn(3) {
		case 0:
			b.DeleteEdge(e.From, e.To)
		case 1:
			b.SetEdge(e.From, e.To, pitex.TopicProb{Topic: r.Intn(net.NumTopics()), Prob: 0.05 + 0.3*r.Float64()})
		default:
			from, to := r.Intn(net.NumUsers()), r.Intn(net.NumUsers())
			if from != to {
				b.InsertEdge(from, to, pitex.TopicProb{Topic: r.Intn(net.NumTopics()), Prob: 0.05 + 0.3*r.Float64()})
			}
		}
	}
	if b.Empty() {
		b.DeleteEdge(edges[0].From, edges[0].To)
	}
	return &b
}

// TestCleanUsersAnswerAsBefore is the invariant behind the users an
// update names (UpdateStats.Dirty): after random update sequences on an
// index strategy, every user outside the dirty set answers a k = 3,
// m = 3 query as before, byte for byte — tags, influence, alternatives
// and Explain, each query on a fresh clone — and the set's size is
// DirtyUsers. Dataset B is checked at every user, dataset A (skipped in
// -short mode) at every 15th.
func TestCleanUsersAnswerAsBefore(t *testing.T) {
	for _, ds := range []struct {
		name  string
		spec  pitex.DatasetSpec
		every int
	}{
		{"B", pitex.DatasetSpec{Name: "headline", Users: 1500, Edges: 15000,
			Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3}, 1},
		{"A", pitex.DatasetSpec{Name: "diggs", Users: 15000, Edges: 200000,
			Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.25}, 15},
	} {
		t.Run(ds.name, func(t *testing.T) {
			if ds.name == "A" && testing.Short() {
				t.Skip("full-scale datasets skipped in -short mode")
			}
			net, model, err := pitex.GenerateDatasetSpec(ds.spec, 1)
			if err != nil {
				t.Fatalf("GenerateDatasetSpec: %v", err)
			}
			for _, s := range []pitex.Strategy{pitex.StrategyIndex, pitex.StrategyIndexPruned} {
				for _, shards := range []int{1, 3} {
					t.Run(fmt.Sprintf("%v/S%d", s, shards), func(t *testing.T) {
						t.Parallel()
						en, err := pitex.NewEngine(net, model, pitex.Options{
							Strategy: s, Epsilon: 0.7, Delta: 1000, MaxK: 10, Seed: 1,
							MaxSamples: 5000, MaxIndexSamples: 200000, IndexShards: shards,
						})
						if err != nil {
							t.Fatalf("NewEngine: %v", err)
						}
						checkCleanUsers(t, en, ds.every, rng.New(uint64(7+shards)))
					})
				}
			}
		})
	}
}

// checkCleanUsers applies three random batches to en and checks every
// every-th user the batch leaves clean.
func checkCleanUsers(t *testing.T, en *pitex.Engine, every int, r *rng.Source) {
	t.Helper()
	answer := func(en *pitex.Engine, u int) pitex.Result {
		res, err := en.Clone().Query(context.Background(), pitex.Request{User: u, K: 3, M: 3})
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		res.Elapsed = 0
		return res
	}
	n := en.Network().NumUsers()
	// before[u] is u's answer on en, when already computed.
	before := make(map[int]pitex.Result)
	for step := 0; step < 3; step++ {
		next, stats, err := en.ApplyUpdates(randomBatch(en.Network(), r))
		if err != nil {
			t.Fatalf("step %d: ApplyUpdates: %v", step, err)
		}
		dirty, checked := 0, 0
		for u := 0; u < n; u++ {
			if stats.Dirty(u) {
				dirty++
			}
		}
		if dirty != stats.DirtyUsers || dirty == n {
			t.Fatalf("step %d: DirtyUsers = %d, the set holds %d of %d users", step, stats.DirtyUsers, dirty, n)
		}
		after := make(map[int]pitex.Result)
		for u := 0; u < n; u += every {
			if stats.Dirty(u) {
				continue
			}
			old, ok := before[u]
			if !ok {
				old = answer(en, u)
			}
			after[u] = answer(next, u)
			if !reflect.DeepEqual(old, after[u]) {
				t.Fatalf("step %d: clean user %d answered %+v, now %+v", step, u, old, after[u])
			}
			checked++
		}
		t.Logf("step %d: %d of %d users dirty (%d graphs re-sampled); %d clean users checked",
			step, dirty, n, stats.GraphsRepaired, checked)
		en, before = next, after
	}
}
