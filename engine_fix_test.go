package pitex

// Regression tests for the correctness fixes to Audience cascade seeding,
// constrained-query validation, batch-query cancellation and sample
// counts past the int64 range.

import (
	"context"
	"errors"
	"fmt"
	"math"
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
		{"duplicate tag", []int{1, 1}, 3, "duplicate tag"},
		{"duplicate later", []int{0, 2, 0}, 4, "duplicate tag"},
		{"oversized", []int{0, 1, 2}, 2, "exceeds k"},
		{"tag out of range", []int{9}, 2, "outside [0,4)"},
		{"negative tag", []int{-1}, 2, "outside [0,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := en.Query(context.Background(), Request{User: 0, K: tc.k, Prefix: tc.prefix})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Query(prefix %v, k=%d): %v", tc.prefix, tc.k, err)
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
				t.Fatalf("Query(prefix %v, k=%d) accepted, want error containing %q",
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

// TestRequestValidateOrder: Request.Validate reports a request's first
// fault in a fixed order — prefix, m, user, k, MaxK, best-effort — with
// the message each check has always had, so serve's 400 bodies do not
// depend on which layer ran the check. M == 0 means 1.
func TestRequestValidateOrder(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyLazy)
	opts.MaxK = 2
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	opts.DisableBestEffort = true
	enum, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine (DisableBestEffort): %v", err)
	}
	cases := []struct {
		en   *Engine
		r    Request
		want string
	}{
		{en, Request{User: 99, K: 1, M: -1, Prefix: []int{0, 1}}, "pitex: prefix has 2 tags, exceeds k = 1"},
		{en, Request{User: 99, K: 2, M: -1, Prefix: []int{1, 1}}, "pitex: duplicate tag 1"},
		{en, Request{User: 99, K: 2, M: -1, Prefix: []int{7}}, "pitex: tag 7 outside [0,4)"},
		{en, Request{User: 99, K: 0, M: -1}, "pitex: m = -1, want >= 1"},
		{en, Request{User: 99, K: 2, M: 2, Prefix: []int{0}}, "pitex: prefix and top-m cannot be combined"},
		{en, Request{User: 99, K: 0}, "pitex: user 99 outside [0,7)"},
		{en, Request{User: -1, K: 2}, "pitex: user -1 outside [0,7)"},
		{en, Request{User: 0, K: 5}, "pitex: k = 5 outside [1,4]"},
		{en, Request{User: 0, K: 3}, "pitex: k = 3 exceeds MaxK = 2 (rebuild the engine with a larger MaxK)"},
		{enum, Request{User: 0, K: 2, M: 2}, "pitex: prefix and top-m queries require best-effort exploration"},
		{enum, Request{User: 0, K: 2, Prefix: []int{0}}, "pitex: prefix and top-m queries require best-effort exploration"},
		{en, Request{User: 0, K: 2}, ""},
		{en, Request{User: 0, K: 2, M: 1, Prefix: []int{3}}, ""},
		{enum, Request{User: 0, K: 2, M: 1}, ""},
	}
	for _, tc := range cases {
		err := tc.r.Validate(tc.en)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%+v: Validate = %v, want %q", tc.r, err, tc.want)
		}
		if _, qerr := tc.en.Query(context.Background(), tc.r); fmt.Sprint(qerr) != fmt.Sprint(err) {
			t.Errorf("%+v: Query error %v, Validate %v", tc.r, qerr, err)
		}
	}
	// Fresh clones: LAZY's sampler advances with every query.
	zero, err := en.Clone().Query(context.Background(), Request{User: 0, K: 2})
	if err != nil {
		t.Fatalf("Query(M: 0): %v", err)
	}
	one, err := en.Clone().Query(context.Background(), Request{User: 0, K: 2, M: 1})
	if err != nil {
		t.Fatalf("Query(M: 1): %v", err)
	}
	zero.Elapsed, one.Elapsed = 0, 0
	if !reflect.DeepEqual(zero, one) || zero.Alternatives != nil {
		t.Fatalf("M: 0 answered %+v, M: 1 %+v", zero, one)
	}
}

func TestQueryAllCtxCancellation(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndexPruned))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	users := []int{0, 1, 2, 3, 4, 5, 6}

	// A live context that can still be cancelled behaves exactly like
	// context.Background.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got := en.QueryAll(live, users, 2, 3)
	want := en.QueryAll(context.Background(), users, 2, 3)
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
	results := en.QueryAll(ctx, users, 2, 3)
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
}

// TestBestAnswerIndependentOfM pins the fix for a top set that depended
// on m: with the answer order left to pop order, k = 3 queries at m = 1
// and m = 2 returned different sets at equal influence for some
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
		one, err := en.Query(context.Background(), Request{User: u, K: 3})
		if err != nil {
			t.Fatalf("Query(%d, k=3, m=1): %v", u, err)
		}
		two, err := en.Query(context.Background(), Request{User: u, K: 3, M: 2})
		if err != nil {
			t.Fatalf("Query(%d, k=3, m=2): %v", u, err)
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

// TestTinyEpsilonRespectsCaps pins the fix for sample counts that
// overflowed int64: at ε = 1e-12, Eq. 2's θ_W and Eq. 7's θ are past the
// int64 range, and their conversion wrapped negative before the cap was
// compared, so no cap ever bound. Online queries then drew no sample and
// answered NaN, and an index build panicked in makeslice. A capped index
// must now hold exactly the cap, and an uncapped one must refuse with an
// error.
func TestTinyEpsilonRespectsCaps(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyLazy, StrategyMC, StrategyRR} {
		opts := testEngineOptions(s)
		opts.Epsilon = 1e-12
		opts.MaxSamples = 100
		en, err := NewEngine(net, model, opts)
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		res, err := en.Query(context.Background(), Request{User: 0, K: 2})
		if err != nil {
			t.Fatalf("%v: Query: %v", s, err)
		}
		if math.IsNaN(res.Influence) || math.IsInf(res.Influence, 0) || res.Influence < 1 {
			t.Errorf("%v at ε = 1e-12: influence %v, want finite and >= 1", s, res.Influence)
		}
	}
	opts := testEngineOptions(StrategyIndexPruned)
	opts.Epsilon = 1e-12
	opts.MaxIndexSamples = 500
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("capped INDEXEST+: %v", err)
	}
	if st := en.IndexShardStats(); len(st) != 1 || st[0].Theta != 500 {
		t.Fatalf("capped INDEXEST+ shards %+v, want one with θ = 500", st)
	}
	opts.MaxIndexSamples = 0
	if _, err := NewEngine(net, model, opts); err == nil || !strings.Contains(err.Error(), "epsilon") {
		t.Fatalf("uncapped INDEXEST+ at ε = 1e-12: err = %v, want one naming epsilon", err)
	}
}
