package pitex

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentClonesMatchSingleThreaded hammers one shared offline index
// from many goroutines and checks every answer against the single-threaded
// engine. IndexEst+ with cheap bounds is fully deterministic (no per-query
// randomness), so the comparison is exact. Run under -race this doubles as
// the shared-index safety proof for the serving pool.
func TestConcurrentClonesMatchSingleThreaded(t *testing.T) {
	spec, err := BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := GenerateDatasetSpec(spec.Scaled(0.02), 1)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(net, model, Options{
		Strategy:        StrategyIndexPruned,
		Seed:            3,
		MaxSamples:      5000,
		MaxIndexSamples: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}

	users := make([]int, 12)
	for i := range users {
		users[i] = (i * 7) % net.NumUsers()
	}
	const k = 2

	type answer struct {
		tags      []int
		influence float64
	}
	want := make(map[int]answer, len(users))
	for _, u := range users {
		res, err := en.Query(u, k)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", u, err)
		}
		want[u] = answer{tags: res.Tags, influence: res.Influence}
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := en.Clone()
			// Each worker visits every user, starting at a different
			// offset so distinct users are in flight simultaneously.
			for i := range users {
				u := users[(i+w)%len(users)]
				res, err := clone.Query(u, k)
				if err != nil {
					errs <- fmt.Errorf("worker %d Query(%d): %w", w, u, err)
					return
				}
				exp := want[u]
				if res.Influence != exp.influence || len(res.Tags) != len(exp.tags) {
					errs <- fmt.Errorf("worker %d user %d: got (%v, %v), want (%v, %v)",
						w, u, res.Tags, res.Influence, exp.tags, exp.influence)
					return
				}
				for j := range res.Tags {
					if res.Tags[j] != exp.tags[j] {
						errs <- fmt.Errorf("worker %d user %d: tags %v, want %v",
							w, u, res.Tags, exp.tags)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDelayMatAnswersIndependentOfCloneHistory is the contract that lets a
// serving pool hand any DELAYMAT query to any clone: a recovery runs on a
// stream derived from (seed, shard, user), so an answer cannot depend on
// which clone serves it, on the users that clone recovered before, or on
// the user's recovery having been evicted and redone in between.
func TestDelayMatAnswersIndependentOfCloneHistory(t *testing.T) {
	spec, err := BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := GenerateDatasetSpec(spec.Scaled(0.05), 1)
	if err != nil {
		t.Fatal(err)
	}
	const k, u = 2, 3
	for _, shards := range []int{1, 3} {
		en, err := NewEngine(net, model, Options{
			Strategy: StrategyDelay, Seed: 3, MaxIndexSamples: 20000, IndexShards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		query := func(en *Engine, user int) Result {
			t.Helper()
			res, err := en.Query(user, k)
			if err != nil {
				t.Fatalf("S=%d Query(%d): %v", shards, user, err)
			}
			return res
		}
		want := query(en.Clone(), u)
		if want.Explain.RecoveryAttempts == 0 || want.Explain.RecoveryCascades >= want.Explain.RecoveryAttempts {
			t.Fatalf("S=%d: first touch reports %d cascades of %d attempts",
				shards, want.Explain.RecoveryCascades, want.Explain.RecoveryAttempts)
		}
		same := func(when string, got Result) {
			t.Helper()
			if !reflect.DeepEqual(got.Tags, want.Tags) || got.Influence != want.Influence {
				t.Fatalf("S=%d %s: got (%v, %v), a fresh clone answers (%v, %v)",
					shards, when, got.Tags, got.Influence, want.Tags, want.Influence)
			}
		}
		busy := en.Clone()
		for other := 10; other < 60; other++ {
			query(busy, other)
		}
		same("after serving 50 other users", query(busy, u))
		if again := query(busy, u); again.Explain.RecoveryAttempts != 0 {
			t.Fatalf("S=%d: a repeated query recovered again (%d attempts)", shards, again.Explain.RecoveryAttempts)
		}
		query(busy, 7) // evicts u's recovery
		same("after eviction", query(busy, u))
	}
}
