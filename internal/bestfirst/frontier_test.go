package bestfirst

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// seqOnly hides an estimator's FrontierEstimator capability, forcing the
// explorer onto the one-call-per-full-set path.
type seqOnly struct{ est Estimator }

func (s seqOnly) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	return s.est.EstimateProber(u, prober)
}

func frontierFixture(t *testing.T, seed uint64) (*graph.Graph, *topics.Model, *rrindex.ShardedIndex) {
	t.Helper()
	r := rng.New(seed)
	g, err := graph.ErdosRenyi(r, 120, 600, graph.TopicAssignment{
		NumTopics: 4, TopicsPerEdge: 2, MaxProb: 0.6,
	})
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	m := topics.GenerateRandom(r, 8, 4, 2)
	idx, err := rrindex.BuildSharded(g, rrindex.BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 3},
		MaxIndexSamples: 1500,
		Seed:            seed ^ 0xbeef,
	}, 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	return g, m, idx
}

// TestExplorerFrontierBatchingIdentical is the explorer-level equivalence
// contract: with stopping disarmed, a frontier-batching run must return
// exactly — tags, influences, alternatives, work stats — what the
// sequential one-estimation-per-pop path returns, for both estimator
// families and for plain, top-m and prefix queries.
func TestExplorerFrontierBatchingIdentical(t *testing.T) {
	g, m, idx := frontierFixture(t, 17)
	for _, tc := range []struct {
		name string
		est  Estimator
	}{
		{"INDEXEST", rrindex.NewShardedEstimator(idx)},
		{"INDEXEST+", rrindex.NewShardedPrunedEstimator(idx)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := tc.est.(FrontierEstimator); !ok {
				t.Fatalf("%T does not batch frontiers", tc.est)
			}
			batched := NewExplorer(g, m, tc.est)
			sequential := NewExplorer(g, m, seqOnly{tc.est})
			for _, cheap := range []bool{false, true} {
				batched.CheapBounds, sequential.CheapBounds = cheap, cheap
				for u := 0; u < g.NumVertices(); u += 29 {
					got, err := batched.QueryTop(graph.VertexID(u), 3, 2)
					if err != nil {
						t.Fatalf("batched QueryTop: %v", err)
					}
					want, err := sequential.QueryTop(graph.VertexID(u), 3, 2)
					if err != nil {
						t.Fatalf("sequential QueryTop: %v", err)
					}
					// The memo only exists on the batched explorer's stats
					// when both run CheapBounds; it fires identically, so the
					// full Stats structs must agree.
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("cheap=%v u=%d: batched %+v != sequential %+v", cheap, u, got, want)
					}
					pg, err := batched.Complete(graph.VertexID(u), []topics.TagID{1}, 3)
					if err != nil {
						t.Fatalf("batched Complete: %v", err)
					}
					pw, err := sequential.Complete(graph.VertexID(u), []topics.TagID{1}, 3)
					if err != nil {
						t.Fatalf("sequential Complete: %v", err)
					}
					if !reflect.DeepEqual(pg, pw) {
						t.Fatalf("cheap=%v u=%d prefix: batched %+v != sequential %+v", cheap, u, pg, pw)
					}
				}
			}
		})
	}
}

// TestExplorerStoppingKeepsWinner arms sequential stopping on a
// monolithic estimator and checks the Algo 5 contract: the returned best
// set and its influence are unchanged (a monolithic winner is always
// scanned in full), and the batch path actually saved work.
func TestExplorerStoppingKeepsWinner(t *testing.T) {
	g, m, idx := frontierFixture(t, 23)
	est := rrindex.NewShardedPrunedEstimator(idx)
	plain := NewExplorer(g, m, est)
	stopping := NewExplorer(g, m, est)
	stopping.StopLogInvDelta = math.Log(100) + 3 + math.Ln2
	var skipped int64
	for u := 0; u < g.NumVertices(); u += 17 {
		want, err := plain.QueryTop(graph.VertexID(u), 3, 1)
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		before := est.WorkStats()
		got, err := stopping.QueryTop(graph.VertexID(u), 3, 1)
		if err != nil {
			t.Fatalf("stopping: %v", err)
		}
		skipped += est.WorkStats().Sub(before).GraphsSkipped
		if !reflect.DeepEqual(got.Tags, want.Tags) || got.Influence != want.Influence {
			t.Fatalf("u=%d: stopping changed the answer: %v/%v vs %v/%v",
				u, got.Tags, got.Influence, want.Tags, want.Influence)
		}
	}
	if skipped == 0 {
		t.Fatal("stopping never skipped a graph across every query; fixture too small")
	}
}

// TestReachableMaskedMatchesUnder is the bound-memo correctness property:
// for random models and partial sets, the masked BFS over precomputed
// edge-topic masks must count exactly the vertices the Lemma 8 prober's
// positive-probability BFS reaches — LiveTopics' positivity
// characterization made executable.
func TestReachableMaskedMatchesUnder(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 30, 120, graph.TopicAssignment{
			NumTopics: 5, TopicsPerEdge: 2, MaxProb: 0.8,
		})
		if err != nil {
			return false
		}
		m := topics.GenerateRandom(r, 8, 5, 2)
		k := 2 + r.Intn(2)
		b := NewBounder(g, m, k)
		ex := NewExplorer(g, m, nil)
		for trial := 0; trial < 8; trial++ {
			w := []topics.TagID{topics.TagID(r.Intn(8))}
			if k > 2 && trial%2 == 0 {
				w = append(w, topics.TagID(r.Intn(8)))
			}
			prober, ok := b.Prepare(w)
			if !ok {
				continue
			}
			mask, mok := prober.LiveTopics()
			if !mok {
				return false // 5 topics must always pack
			}
			u := graph.VertexID(r.Intn(g.NumVertices()))
			if ex.reachableMasked(u, mask) != ex.reachableUnder(u, prober) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveMaskBatchMatchesSingle is the batch-kernel correctness
// property: the word-parallel multi-mask BFS must memoize, for every
// pending mask, exactly the count the single-mask BFS computes — for
// arbitrary mask sets, including duplicates of structure (subsets,
// supersets, the empty and full mask) and sets wide enough to cross the
// 64-mask chunk boundary.
func TestResolveMaskBatchMatchesSingle(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 40, 200, graph.TopicAssignment{
			NumTopics: 7, TopicsPerEdge: 2, MaxProb: 0.8,
		})
		if err != nil {
			return false
		}
		m := topics.GenerateRandom(r, 8, 7, 2)
		ex := NewExplorer(g, m, nil)
		ex.boundMemo = make(map[uint64]float64)
		u := graph.VertexID(r.Intn(g.NumVertices()))
		seen := map[uint64]bool{}
		for _, mask := range []uint64{0, 1<<7 - 1} {
			seen[mask] = true
			ex.pendMasks = append(ex.pendMasks, mask)
		}
		for len(ex.pendMasks) < 70 { // forces a second 64-mask chunk
			mask := r.Uint64() & (1<<7 - 1)
			if !seen[mask] {
				seen[mask] = true
				ex.pendMasks = append(ex.pendMasks, mask)
			}
		}
		ex.resolveMaskBatch(u)
		for _, mask := range ex.pendMasks {
			got, hit := ex.boundMemo[mask]
			if !hit || got != float64(ex.reachableMasked(u, mask)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundMemoHits checks the memo plumbing: a CheapBounds query over
// sibling-heavy frontiers must answer most bound evaluations from the
// live-topic-mask memo, and the memo must reset between queries (masks
// are only comparable within one query user).
func TestBoundMemoHits(t *testing.T) {
	g, m, idx := frontierFixture(t, 31)
	ex := NewExplorer(g, m, rrindex.NewShardedEstimator(idx))
	ex.CheapBounds = true
	res, err := ex.QueryTop(graph.MaxOutDegreeVertex(g), 3, 1)
	if err != nil {
		t.Fatalf("QueryTop: %v", err)
	}
	if res.Stats.BoundCacheHits == 0 {
		t.Fatal("CheapBounds query recorded zero bound-memo hits")
	}
	if len(ex.boundMemo) == 0 {
		t.Fatal("bound memo empty after a CheapBounds query")
	}
	if _, err := ex.QueryTop(0, 2, 1); err != nil {
		t.Fatalf("second QueryTop: %v", err)
	}
	// The second query must not have reused the first user's reach counts:
	// query the first user again and confirm identical results to the first
	// run (memo correctness across per-query resets).
	res2, err := ex.QueryTop(graph.MaxOutDegreeVertex(g), 3, 1)
	if err != nil {
		t.Fatalf("third QueryTop: %v", err)
	}
	if !reflect.DeepEqual(res.Tags, res2.Tags) || res.Influence != res2.Influence {
		t.Fatalf("repeat query diverged: %v/%v vs %v/%v", res.Tags, res.Influence, res2.Tags, res2.Influence)
	}
}

// TestQueryTopCtxMatchesQueryTop: the context variant with a live
// context must be the plain call.
func TestQueryTopCtxMatchesQueryTop(t *testing.T) {
	g, m, idx := frontierFixture(t, 43)
	ex := NewExplorer(g, m, rrindex.NewShardedEstimator(idx))
	want, err := ex.QueryTop(3, 3, 2)
	if err != nil {
		t.Fatalf("QueryTop: %v", err)
	}
	got, err := ex.QueryTopCtx(context.Background(), 3, 3, 2)
	if err != nil {
		t.Fatalf("QueryTopCtx: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryTopCtx %+v != QueryTop %+v", got, want)
	}
}

// TestProberSpec: the serialized bound state must be per-topic slices
// whose positivity agrees — a positive weight implies a supported topic,
// and LiveTopics is exactly the positive-weight bits.
func TestProberSpec(t *testing.T) {
	g, m, _ := frontierFixture(t, 47)
	b := NewBounder(g, m, 3)
	prober, ok := b.Prepare([]topics.TagID{0})
	if !ok {
		t.Fatal("tag {0} unsupported in fixture")
	}
	supported, weights := prober.Spec()
	if len(supported) != m.NumTopics() || len(weights) != m.NumTopics() {
		t.Fatalf("Spec lengths %d/%d, want %d", len(supported), len(weights), m.NumTopics())
	}
	mask, mok := prober.LiveTopics()
	if !mok {
		t.Fatal("4 topics must pack")
	}
	for z := range weights {
		if weights[z] > 0 && !supported[z] {
			t.Fatalf("topic %d: positive weight but unsupported", z)
		}
		if got := mask&(1<<z) != 0; got != (weights[z] > 0) {
			t.Fatalf("topic %d: mask bit %v, weight %v", z, got, weights[z])
		}
	}
}
