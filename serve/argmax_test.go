package serve

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"pitex"
)

// kSets returns every k-subset of [0, n), each ascending, in
// lexicographic order.
func kSets(n, k int) [][]int {
	var out [][]int
	set := make([]int, k)
	var rec func(i, from int)
	rec = func(i, from int) {
		if i == k {
			out = append(out, slices.Clone(set))
			return
		}
		for t := from; t <= n-(k-i); t++ {
			set[i] = t
			rec(i+1, t+1)
		}
	}
	rec(0, 0)
	return out
}

// TestIndexAnswerIsArgmax: an index-backed answer is the exact argmax of
// the engine's own estimates. For INDEXEST, INDEXEST+, DELAYMAT and a
// coordinator over three shard servers, every answer's influence equals
// the largest EstimateInfluence over all C(|Ω|, k) tag sets, and its tags
// are one of the sets that reach it. This holds by construction — a bound
// row is scanned over the same RR-Graphs as every completion of its
// partial set, and p+(e|W) ≥ p(e|W′) edge by edge, so its hits contain
// every completion's — so any pruning that loses an answer fails here
// exactly, with no tolerance.
func TestIndexAnswerIsArgmax(t *testing.T) {
	net, model := genNetModel(t, 10)
	type named struct {
		name string
		en   *pitex.Engine
	}
	var engines []named
	for _, s := range []pitex.Strategy{pitex.StrategyIndex, pitex.StrategyIndexPruned, pitex.StrategyDelay} {
		en, err := pitex.NewEngine(net, model, wireOptions(s, 1))
		if err != nil {
			t.Fatalf("NewEngine(%v): %v", s, err)
		}
		engines = append(engines, named{s.String(), en})
	}
	opts := wireOptions(pitex.StrategyIndexPruned, 3)
	fleet := startWireFleet(t, net, model, opts, 3, [][]int{{0}, {1}, {2}})
	coord, err := pitex.NewRemoteEngine(net, model, opts, fleet.client)
	if err != nil {
		t.Fatalf("NewRemoteEngine: %v", err)
	}
	engines = append(engines, named{"coordinator-S3", coord})

	numTags := model.NumTags()
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) { checkArgmax(t, e.en, numTags, net.NumUsers()) })
	}
}

// checkArgmax checks en's k = 2 answers for every user, and its k = 3
// answers for every fifth, against a brute-force maximum of its estimates.
func checkArgmax(t *testing.T, en *pitex.Engine, numTags, numUsers int) {
	t.Helper()
	for k, step := range map[int]int{2: 1, 3: 5} {
		sets := kSets(numTags, k)
		for u := 0; u < numUsers; u += step {
			label := fmt.Sprintf("k=%d user %d", k, u)
			res, err := en.Query(context.Background(), pitex.Request{User: u, K: k})
			if err != nil {
				t.Fatalf("%s: Query: %v", label, err)
			}
			best, argmax := -1.0, map[string]bool{}
			for _, set := range sets {
				inf, err := en.EstimateInfluence(u, set)
				if err != nil {
					t.Fatalf("%s: EstimateInfluence(%v): %v", label, set, err)
				}
				if inf > best {
					best, argmax = inf, map[string]bool{}
				}
				if inf == best {
					argmax[fmt.Sprint(set)] = true
				}
			}
			got := slices.Sorted(slices.Values(res.Tags))
			if res.Influence != best || !argmax[fmt.Sprint(got)] {
				t.Fatalf("%s: answer %v at %v, the estimates' maximum is %v at %d set(s)",
					label, got, res.Influence, best, len(argmax))
			}
		}
	}
}
