package pitex

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pitex/internal/bestfirst"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/topics"
)

// memoStep is one query of TestExplorerRootMemoMatchesFresh's sequence:
// Run(u, k, m, prefix), with m = 1 whenever prefix is set.
type memoStep struct {
	k, m   int
	prefix []topics.TagID
}

// TestExplorerRootMemoMatchesFresh: an explorer memoises the round of an
// empty-prefix root once per k and replays it in every later query. One
// warm explorer answering a sequence that interleaves k = 1..5, m ∈ {1, 3}
// and prefix queries must return exactly what a fresh explorer returns for
// each query — tags, influence, every alternative and every Stats field —
// on a sparse and a dense model, S = 1 and 3, in process and through the
// coordinator's remote adapter. Tag 0 of the sparse model supports no
// topic, so at k = 1 the root round records an undefined full set at
// influence 1, which users without reach rank first among their ties.
func TestExplorerRootMemoMatchesFresh(t *testing.T) {
	net, sparse, err := GenerateDatasetSpec(DatasetSpec{
		Name: "memo", Users: 160, Edges: 900, Topics: 5, Tags: 9,
		TopicsPerEdge: 2, MaxProb: 0.5, Reciprocity: 0.3,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < sparse.NumTopics(); z++ {
		if err := sparse.SetTagTopic(0, z, 0); err != nil {
			t.Fatal(err)
		}
	}
	dense, err := NewTagModel(sparse.NumTags(), sparse.NumTopics())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for w := 0; w < dense.NumTags(); w++ {
		for z := 0; z < dense.NumTopics(); z++ {
			if err := dense.SetTagTopic(w, z, 0.1+0.9*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps := []memoStep{
		{k: 3, m: 1}, {k: 1, m: 3}, {k: 5, m: 3}, {k: 2, m: 1},
		{k: 3, m: 1, prefix: []topics.TagID{4}}, {k: 4, m: 1}, {k: 1, m: 1},
		{k: 2, m: 3}, {k: 5, m: 1}, {k: 3, m: 3}, {k: 4, m: 3},
		{k: 2, m: 1, prefix: []topics.TagID{7, 1}},
	}
	deadAtOne := 0
	for _, mc := range []struct {
		name  string
		model *TagModel
	}{{"sparse", sparse}, {"dense", dense}} {
		for _, S := range []int{1, 3} {
			opts := Options{Strategy: StrategyIndexPruned, Seed: 5, MaxK: 5, MaxSamples: 2000, MaxIndexSamples: 4000, IndexShards: S}
			local, err := NewEngine(net, mc.model, opts)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := NewRemoteEngine(net, mc.model, opts, &fakeFrontierRemote{fakeRemote: newFakeRemote(t, net, mc.model, opts, S)})
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range []struct {
				path string
				en   *Engine
			}{{"local", local}, {"remote", remote}} {
				t.Run(fmt.Sprintf("%s/S%d/%s", mc.name, S, en.path), func(t *testing.T) {
					warm := en.en.explorer
					for u := 0; u < net.NumUsers(); u += 7 {
						for i := range steps {
							// Rotate the sequence per user, so each k's memo
							// is built by a different kind of query.
							st := steps[(i+u)%len(steps)]
							what := fmt.Sprintf("u=%d k=%d m=%d prefix=%v", u, st.k, st.m, st.prefix)
							got, err := runStep(warm, graph.VertexID(u), st)
							if err != nil {
								t.Fatalf("%s: warm: %v", what, err)
							}
							want, err := runStep(bestfirst.NewExplorer(en.en.net.g, en.en.model.m, en.en.est), graph.VertexID(u), st)
							if err != nil {
								t.Fatalf("%s: fresh: %v", what, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: warm explorer answered %+v, a fresh one %+v", what, got, want)
							}
							if mc.model == sparse && st.k == 1 && st.prefix == nil && slices.ContainsFunc(got.All, func(sc bestfirst.Scored) bool {
								return sc.Tags[0] == 0 && sc.Influence == 1
							}) {
								deadAtOne++
							}
						}
					}
				})
			}
		}
	}
	if deadAtOne == 0 {
		t.Fatal("no sparse k = 1 answer held the unsupported tag at influence 1: the root round's undefined full sets were never compared")
	}
}

func runStep(ex *bestfirst.Explorer, u graph.VertexID, st memoStep) (bestfirst.Result, error) {
	return ex.Run(context.Background(), u, st.k, st.m, st.prefix)
}
