package pitex

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

func TestApplyUpdatesQueriesReflectChange(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyLazy, StrategyIndexPruned, StrategyDelay} {
		opts := testEngineOptions(s)
		en, err := NewEngine(net, model, opts)
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		before, err := en.EstimateInfluence(0, []int{2, 3})
		if err != nil {
			t.Fatalf("%v: EstimateInfluence: %v", s, err)
		}

		// Cut u1 off entirely: delete both out-edges of user 0.
		var b UpdateBatch
		b.DeleteEdge(0, 1)
		b.DeleteEdge(0, 2)
		next, stats, err := en.ApplyUpdates(&b)
		if err != nil {
			t.Fatalf("%v: ApplyUpdates: %v", s, err)
		}
		if stats.Generation != 1 || next.Generation() != 1 || en.Generation() != 0 {
			t.Fatalf("%v: generations wrong: %+v", s, stats)
		}
		if stats.EdgesDeleted != 2 {
			t.Fatalf("%v: deleted %d edges", s, stats.EdgesDeleted)
		}
		after, err := next.EstimateInfluence(0, []int{2, 3})
		if err != nil {
			t.Fatalf("%v: EstimateInfluence after: %v", s, err)
		}
		// An isolated user influences nobody: the estimate collapses to ~1
		// (exactly 1 in expectation; index strategies see binomial noise
		// from graphs that target the user itself).
		if after >= before || after > 1.1 {
			t.Errorf("%v: influence of isolated user = %v (before %v), want ~1", s, after, before)
		}
		// The old engine still answers over the pre-update network, where
		// user 0 is connected (sampling estimators re-draw per call, so
		// only the magnitude is comparable).
		still, err := en.EstimateInfluence(0, []int{2, 3})
		if err != nil || still < 1.2 {
			t.Errorf("%v: old engine lost the pre-update network: %v (err %v)", s, still, err)
		}

		// Reconnect with a strong edge and confirm influence recovers.
		var b2 UpdateBatch
		b2.InsertEdge(0, 3, TopicProb{Topic: 2, Prob: 0.95})
		third, stats2, err := next.ApplyUpdates(&b2)
		if err != nil {
			t.Fatalf("%v: ApplyUpdates insert: %v", s, err)
		}
		if stats2.Generation != 2 {
			t.Fatalf("%v: generation %d, want 2", s, stats2.Generation)
		}
		recovered, err := third.EstimateInfluence(0, []int{2, 3})
		if err != nil {
			t.Fatalf("%v: EstimateInfluence reconnect: %v", s, err)
		}
		if recovered <= after {
			t.Errorf("%v: influence did not recover after insert: %v <= %v", s, recovered, after)
		}
		if q, err := third.Query(context.Background(), Request{User: 0, K: 2}); err != nil || len(q.Tags) != 2 {
			t.Errorf("%v: query on updated engine failed: %v %v", s, q.Tags, err)
		}
	}
}

func TestApplyUpdatesIncrementalNotRebuild(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var b UpdateBatch
	b.SetEdge(5, 6, TopicProb{Topic: 2, Prob: 0.7})
	next, stats, err := en.ApplyUpdates(&b)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if stats.FullRebuild {
		t.Fatal("index strategy reported a full rebuild")
	}
	if stats.GraphsRepaired == 0 {
		t.Fatal("nothing repaired for a probability change")
	}
	if stats.GraphsRepaired >= stats.GraphsTotal {
		t.Fatalf("repair touched all %d graphs — not incremental", stats.GraphsTotal)
	}
	if next.IndexMemoryBytes() == 0 {
		t.Fatal("repaired engine lost its index")
	}
}

func TestApplyUpdatesAddUsers(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var b UpdateBatch
	b.AddUsers(2)
	b.InsertEdge(0, 7, TopicProb{Topic: 0, Prob: 0.9})
	b.InsertEdge(7, 8, TopicProb{Topic: 0, Prob: 0.9})
	next, stats, err := en.ApplyUpdates(&b)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if stats.UsersAdded != 2 || next.net.NumUsers() != 9 {
		t.Fatalf("users: %+v, NumUsers %d", stats, next.net.NumUsers())
	}
	// The new users are queryable and reachable.
	inf, err := next.EstimateInfluence(7, []int{0})
	if err != nil {
		t.Fatalf("EstimateInfluence(new user): %v", err)
	}
	if inf < 1 {
		t.Fatalf("influence %v < 1", inf)
	}
	if _, err := next.Query(context.Background(), Request{User: 8, K: 2}); err != nil {
		t.Fatalf("Query(new user): %v", err)
	}
	// Old engine must reject the new user IDs.
	if _, err := en.Query(context.Background(), Request{User: 7, K: 2}); err == nil {
		t.Fatal("old engine accepted a user from the next generation")
	}
}

// TestDelayMatUpdateIsFreshBuild: a DELAYMAT update recounts with the
// engine's own build options, so along a chain of batches (a deletion,
// an insertion, a retopic, new users) at S ∈ {1, 3} the updated engine
// saves NewEngine's bytes over the updated network and answers its
// queries, whether the chain starts from a built DelayMat or a loaded
// one. Every update reports all θ graphs re-sampled, in its stats and in
// the per-shard rows.
func TestDelayMatUpdateIsFreshBuild(t *testing.T) {
	net, model := fig2Network(t)
	chain := []func(*UpdateBatch){
		func(b *UpdateBatch) { b.DeleteEdge(5, 6) },
		func(b *UpdateBatch) { b.InsertEdge(1, 4, TopicProb{Topic: 0, Prob: 0.7}) },
		func(b *UpdateBatch) { b.SetEdge(2, 3, TopicProb{Topic: 1, Prob: 0.6}) },
		func(b *UpdateBatch) {
			b.AddUsers(2)
			b.InsertEdge(6, 7, TopicProb{Topic: 2, Prob: 0.9})
		},
	}
	saved := func(en *Engine) []byte {
		var buf bytes.Buffer
		if err := en.SaveIndex(&buf); err != nil {
			t.Fatalf("SaveIndex: %v", err)
		}
		return buf.Bytes()
	}
	repairedRows := func(en *Engine) (n int64) {
		for _, st := range en.IndexShardStats() {
			n += st.GraphsRepaired
		}
		return n
	}
	answer := func(en *Engine, user int) Result {
		res, err := en.Query(context.Background(), Request{User: user, K: 2})
		if err != nil {
			t.Fatalf("Query(%d): %v", user, err)
		}
		res.Elapsed = 0
		return res
	}
	for _, S := range []int{1, 3} {
		opts := testEngineOptions(StrategyDelay)
		opts.IndexShards = S
		built, err := NewEngine(net, model, opts)
		if err != nil {
			t.Fatalf("S=%d NewEngine: %v", S, err)
		}
		loaded, err := NewEngineWithIndex(net, model, opts, bytes.NewReader(saved(built)))
		if err != nil {
			t.Fatalf("S=%d NewEngineWithIndex: %v", S, err)
		}
		for step, stage := range chain {
			var b UpdateBatch
			stage(&b)
			next, stats, err := built.ApplyUpdates(&b)
			if err != nil {
				t.Fatalf("S=%d step %d ApplyUpdates: %v", S, step, err)
			}
			fresh, err := NewEngine(next.net, model, opts)
			if err != nil {
				t.Fatalf("S=%d step %d NewEngine: %v", S, step, err)
			}
			want := saved(fresh)
			if !bytes.Equal(saved(next), want) {
				t.Errorf("S=%d step %d: the updated DelayMat saves other bytes than a fresh build", S, step)
			}
			theta := int(fresh.delay.Theta())
			if !stats.FullRebuild || stats.GraphsRepaired != theta || stats.GraphsTotal != theta || stats.RepairedFraction() != 1 {
				t.Errorf("S=%d step %d: stats %+v, want a recount of all %d graphs", S, step, stats, theta)
			}
			if got, want := repairedRows(next)-repairedRows(built), int64(theta); got != want {
				t.Errorf("S=%d step %d: per-shard graphs_repaired grew by %d, want %d", S, step, got, want)
			}
			for _, u := range []int{0, 2, 3} {
				if got, want := answer(next, u), answer(fresh, u); !reflect.DeepEqual(got, want) {
					t.Errorf("S=%d step %d user %d: updated engine answers %+v, a fresh build %+v", S, step, u, got, want)
				}
			}
			nextLoaded, _, err := loaded.ApplyUpdates(&b)
			if err != nil {
				t.Fatalf("S=%d step %d loaded ApplyUpdates: %v", S, step, err)
			}
			if !bytes.Equal(saved(nextLoaded), want) {
				t.Errorf("S=%d step %d: the updated loaded DelayMat saves other bytes than a fresh build", S, step)
			}
			built, loaded = next, nextLoaded
		}
	}
}

func TestApplyUpdatesValidation(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, _, err := en.ApplyUpdates(nil); err == nil {
		t.Error("nil batch accepted")
	}
	if _, _, err := en.ApplyUpdates(&UpdateBatch{}); err == nil {
		t.Error("empty batch accepted")
	}
	bad := map[string]func(*UpdateBatch){
		"delete missing edge":   func(b *UpdateBatch) { b.DeleteEdge(1, 0) },
		"delete out of range":   func(b *UpdateBatch) { b.DeleteEdge(0, 99) },
		"set missing edge":      func(b *UpdateBatch) { b.SetEdge(6, 0, TopicProb{Topic: 0, Prob: 0.1}) },
		"insert self loop":      func(b *UpdateBatch) { b.InsertEdge(3, 3, TopicProb{Topic: 0, Prob: 0.1}) },
		"insert out of range":   func(b *UpdateBatch) { b.InsertEdge(0, 42, TopicProb{Topic: 0, Prob: 0.1}) },
		"insert bad topic":      func(b *UpdateBatch) { b.InsertEdge(0, 3, TopicProb{Topic: 9, Prob: 0.1}) },
		"insert bad probabilty": func(b *UpdateBatch) { b.InsertEdge(0, 3, TopicProb{Topic: 0, Prob: 1.5}) },
	}
	for name, stage := range bad {
		var b UpdateBatch
		stage(&b)
		if _, _, err := en.ApplyUpdates(&b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A failed apply must not bump the generation.
	if en.Generation() != 0 {
		t.Fatal("failed updates advanced the generation")
	}
}

func TestCloneInheritsGeneration(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var b UpdateBatch
	b.SetEdge(0, 1, TopicProb{Topic: 0, Prob: 0.5})
	next, _, err := en.ApplyUpdates(&b)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if c := next.Clone(); c.Generation() != 1 {
		t.Fatalf("clone generation %d, want 1", c.Generation())
	}
}
