package pitex_test

// End-to-end smoke test at the Table 2 dataset sizes: builds every
// synthetic dataset at full scale and answers one index-backed query on
// each. Guarded by -short because full twitter generation takes seconds.

import (
	"context"
	"slices"
	"testing"

	"pitex"
)

func TestFullScaleDatasetsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale datasets skipped in -short mode")
	}
	wantUsers := map[string]int{
		"lastfm": 1300, "diggs": 15000, "dblp": 50000, "twitter": 200000,
	}
	for _, name := range pitex.DatasetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			net, model, err := pitex.GenerateDataset(name, 1)
			if err != nil {
				t.Fatalf("GenerateDataset: %v", err)
			}
			if net.NumUsers() != wantUsers[name] {
				t.Fatalf("users = %d, want %d", net.NumUsers(), wantUsers[name])
			}
			en, err := pitex.NewEngine(net, model, pitex.Options{
				Strategy:        pitex.StrategyIndexPruned,
				Seed:            1,
				MaxSamples:      1000,
				MaxIndexSamples: 30000,
			})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			u := net.UsersByGroup()["high"][0]
			// k=2 keeps the dblp tag space (C(276,2) = 38k pairs) tractable.
			res, err := en.Query(context.Background(), pitex.Request{User: u, K: 2})
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if len(res.Tags) != 2 || res.Influence < 1 {
				t.Fatalf("degenerate result: %+v", res)
			}
			t.Logf("%s: user %d -> %v (influence %.1f, %v, index %.1f MB in %v)",
				name, u, res.TagNames, res.Influence, res.Elapsed,
				float64(en.IndexMemoryBytes())/(1<<20), en.IndexBuildTime)
		})
	}
}

// TestDatasetAIndexTiesAnswerCanonically pins exact influence ties on the
// benchmark's dataset A (the diggs shape, seed 1, cmd/pitexserve's engine
// defaults) under INDEXEST at k = 3: each user's answer is the
// canonically first of two equally influential sets, and the other set
// scores the same, so only the canonical order decides between them.
func TestDatasetAIndexTiesAnswerCanonically(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale datasets skipped in -short mode")
	}
	net, model, err := pitex.GenerateDatasetSpec(pitex.DatasetSpec{
		Name: "diggs", Users: 15000, Edges: 200000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.25,
	}, 1)
	if err != nil {
		t.Fatalf("GenerateDatasetSpec: %v", err)
	}
	en, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy: pitex.StrategyIndex, Epsilon: 0.7, Delta: 1000, MaxK: 10, Seed: 1,
		MaxSamples: 5000, MaxIndexSamples: 200000,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, tc := range []struct {
		user       int
		want, tied []int
	}{
		{9, []int{14, 18, 21}, []int{14, 27, 34}},
		{74, []int{14, 18, 21}, []int{14, 27, 34}},
		{190, []int{1, 5, 19}, []int{19, 40, 44}},
	} {
		res, err := en.Query(context.Background(), pitex.Request{User: tc.user, K: 3})
		if err != nil {
			t.Fatalf("Query(%d, 3): %v", tc.user, err)
		}
		if !slices.Equal(res.Tags, tc.want) {
			t.Fatalf("user %d answers %v (influence %v), want %v", tc.user, res.Tags, res.Influence, tc.want)
		}
		tied, err := en.EstimateInfluence(tc.user, tc.tied)
		if err != nil {
			t.Fatalf("EstimateInfluence(%d, %v): %v", tc.user, tc.tied, err)
		}
		if tied != res.Influence {
			t.Fatalf("user %d: %v scores %v, %v scores %v — not a tie", tc.user, tc.want, res.Influence, tc.tied, tied)
		}
	}
}
