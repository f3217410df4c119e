package pitex

// Regression tests for the correctness fixes to Audience cascade seeding,
// constrained-query validation and batch-query cancellation.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestAudienceStreamsDecorrelated pins the fix for the fixed-seed Audience
// cascade bug: every call used to draw from rng.New(Seed+104729), so two
// different tag sets with the same posterior produced byte-identical
// cascades (and repeated calls could never average error down). Tags w3
// and w4 of the Fig. 2 model share one topic row, so their posteriors are
// equal — the cascade stream is the only thing that can differ.
func TestAudienceStreamsDecorrelated(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	a, err := en.Audience(0, []int{2}, 10, 2000)
	if err != nil {
		t.Fatalf("Audience({w3}): %v", err)
	}
	b, err := en.Audience(0, []int{3}, 10, 2000)
	if err != nil {
		t.Fatalf("Audience({w4}): %v", err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatalf("tag sets {w3} and {w4} share cascade randomness: both = %+v", a)
	}
	// Different sample budgets must also draw distinct streams (the old
	// seeding made a 2000-sample call a prefix-extension of a 1000-sample
	// one, correlating their errors).
	c, err := en.Audience(0, []int{2}, 10, 2001)
	if err != nil {
		t.Fatalf("Audience(2001 samples): %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("sample budgets 2000 and 2001 share cascade randomness")
	}
}

// TestAudienceDeterministicPerArguments: equal argument tuples must keep
// producing identical profiles (callers and the serve cache rely on it),
// including across the tag-order permutations that serve's TagsKey
// canonicalizes into one cache key.
func TestAudienceDeterministicPerArguments(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	a1, err := en.Audience(0, []int{2, 3}, 10, 2000)
	if err != nil {
		t.Fatalf("Audience: %v", err)
	}
	a2, err := en.Audience(0, []int{2, 3}, 10, 2000)
	if err != nil {
		t.Fatalf("Audience (repeat): %v", err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("repeated call diverged:\n%+v\n%+v", a1, a2)
	}
	// The stream is keyed to the tag SET: permuted arguments give the
	// same profile, matching the posterior and the serve cache key.
	a3, err := en.Audience(0, []int{3, 2}, 10, 2000)
	if err != nil {
		t.Fatalf("Audience (permuted): %v", err)
	}
	if !reflect.DeepEqual(a1, a3) {
		t.Fatalf("tag order changed the profile:\n%+v\n%+v", a1, a3)
	}
	// A clone answers identically (fresh scratch, same derivation).
	a4, err := en.Clone().Audience(0, []int{2, 3}, 10, 2000)
	if err != nil {
		t.Fatalf("clone Audience: %v", err)
	}
	if !reflect.DeepEqual(a1, a4) {
		t.Fatalf("clone diverged:\n%+v\n%+v", a1, a4)
	}
}

func TestQueryWithPrefixValidation(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cases := []struct {
		name    string
		prefix  []int
		k       int
		wantErr string // empty = must succeed
	}{
		{"valid single", []int{2}, 2, ""},
		{"valid full-size", []int{2, 3}, 2, ""},
		{"duplicate tag", []int{1, 1}, 3, "duplicate prefix tag"},
		{"duplicate later", []int{0, 2, 0}, 4, "duplicate prefix tag"},
		{"oversized", []int{0, 1, 2}, 2, "exceeds k"},
		{"tag out of range", []int{9}, 2, "outside [0,4)"},
		{"negative tag", []int{-1}, 2, "outside [0,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := en.QueryWithPrefix(0, tc.prefix, tc.k)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("QueryWithPrefix(%v, k=%d): %v", tc.prefix, tc.k, err)
				}
				if len(res.Tags) != tc.k {
					t.Fatalf("result size %d, want %d", len(res.Tags), tc.k)
				}
				for _, w := range tc.prefix {
					found := false
					for _, got := range res.Tags {
						if got == w {
							found = true
						}
					}
					if !found {
						t.Fatalf("prefix tag %d missing from %v", w, res.Tags)
					}
				}
				return
			}
			if err == nil {
				t.Fatalf("QueryWithPrefix(%v, k=%d) accepted, want error containing %q",
					tc.prefix, tc.k, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", err, tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "pitex:") {
				t.Fatalf("error %q does not carry the public pitex: prefix", err)
			}
		})
	}
}

func TestQueryAllCtxCancellation(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndexPruned))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	users := []int{0, 1, 2, 3, 4, 5, 6}

	// A live context behaves exactly like QueryAll.
	got := en.QueryAllCtx(context.Background(), users, 2, 3)
	want := en.QueryAll(users, 2, 3)
	for i := range got {
		if got[i].User != want[i].User || (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("row %d: ctx %+v vs plain %+v", i, got[i], want[i])
		}
	}

	// A context dead before dispatch must mark every user undone with
	// ctx.Err() — and return (the workers drain, nothing leaks; the race
	// detector and test timeout enforce that).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := en.QueryAllCtx(ctx, users, 2, 3)
	if len(results) != len(users) {
		t.Fatalf("got %d results, want %d", len(results), len(users))
	}
	for i, r := range results {
		if r.User != users[i] {
			t.Fatalf("row %d out of order: %d", i, r.User)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("row %d: err = %v, want context.Canceled", i, r.Err)
		}
	}

	// Cancelling mid-batch: the first row's completion triggers the
	// cancellation, later rows must report ctx.Err() instead of running.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	firstDone := false
	out := RunBatchCtx(ctx2, users, 1, func() BatchQueryFunc {
		clone := en.Clone()
		return func(ctx context.Context, user int) (Result, error) {
			res, err := clone.QueryCtx(ctx, user, 2)
			if !firstDone {
				firstDone = true
				cancel2()
			}
			return res, err
		}
	})
	if out[0].Err != nil {
		t.Fatalf("first row failed: %v", out[0].Err)
	}
	last := out[len(out)-1]
	if !errors.Is(last.Err, context.Canceled) {
		t.Fatalf("last row after cancellation: err = %v, want context.Canceled", last.Err)
	}
}

// TestBestAnswerIndependentOfM pins the fix for a top set that depended
// on m: with the answer order left to pop order, QueryTop(u, 3, 1) and
// QueryTop(u, 3, 2) returned different sets at equal influence for some
// users of the headline dataset (INDEXEST+, seed 1, default options).
// Canonical order — influence descending, then sorted tag IDs ascending —
// fixes it only together with a strict sequential-stopping test: a row
// stopped at a UCB equal to the threshold could still have tied it.
func TestBestAnswerIndependentOfM(t *testing.T) {
	if testing.Short() {
		t.Skip("queries every user of the headline dataset")
	}
	net, model, err := GenerateDatasetSpec(DatasetSpec{
		Name: "headline", Users: 1500, Edges: 15000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(net, model, Options{Strategy: StrategyIndexPruned, Seed: 1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var differ []int
	for u := 0; u < net.NumUsers(); u++ {
		one, err := en.QueryTop(u, 3, 1)
		if err != nil {
			t.Fatalf("QueryTop(%d, 3, 1): %v", u, err)
		}
		two, err := en.QueryTop(u, 3, 2)
		if err != nil {
			t.Fatalf("QueryTop(%d, 3, 2): %v", u, err)
		}
		if one.Influence != two.Influence {
			t.Fatalf("user %d: best influence %v at m=1, %v at m=2", u, one.Influence, two.Influence)
		}
		if !reflect.DeepEqual(one.Tags, two.Tags) {
			differ = append(differ, u)
		}
	}
	if len(differ) > 0 {
		t.Fatalf("%d users get another best set at m=2 than at m=1: %v", len(differ), differ)
	}
}
