package sampling

import (
	"math"
	"testing"

	"pitex/internal/exact"
	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/topics"
)

func TestLTSamplerMatchesExactOnDiamond(t *testing.T) {
	b := graph.NewBuilder(4, 1)
	tp := []graph.TopicProb{{Topic: 0, Prob: 0.3}}
	b.AddEdge(0, 1, tp)
	b.AddEdge(0, 2, tp)
	b.AddEdge(1, 3, tp)
	b.AddEdge(2, 3, tp)
	g := b.MustBuild()
	want, err := exact.InfluenceLT(g, 0, []float64{0.3, 0.3, 0.3, 0.3})
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	lt := NewLT(g, testOptions(), rng.New(5))
	got := lt.EstimateWithBudget(0, []float64{1}, 60000).Influence
	if math.Abs(got-want) > 0.03*want {
		t.Fatalf("LT estimate %v, want %v", got, want)
	}
}

func TestLTSamplerMatchesExactOnFixture(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	for _, w := range [][]topics.TagID{{0, 1}, {2, 3}, {1, 2}} {
		want, err := exact.InfluenceLTTagSet(g, m, fixture.U1, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		post, ok := m.Posterior(w)
		if !ok {
			continue
		}
		lt := NewLT(g, testOptions(), rng.New(7))
		got := lt.EstimateWithBudget(fixture.U1, post, 60000).Influence
		if math.Abs(got-want) > 0.04*want+0.02 {
			t.Errorf("LT E[I(u1|%v)] = %v, want %v", w, got, want)
		}
	}
}

func TestLTSamplerMatchesExactOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 9, 12, graph.TopicAssignment{
			NumTopics: 3, TopicsPerEdge: 2, MaxProb: 0.6,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		m := topics.GenerateRandom(r, 6, 3, 2)
		w := []topics.TagID{topics.TagID(r.Intn(6))}
		u := graph.VertexID(r.Intn(9))
		want, err := exact.InfluenceLTTagSet(g, m, u, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		post, ok := m.Posterior(w)
		if !ok {
			continue
		}
		got := NewLT(g, testOptions(), rng.New(seed*77)).
			EstimateWithBudget(u, post, 50000).Influence
		if math.Abs(got-want) > 0.05*want+0.03 {
			t.Errorf("seed %d: LT estimate %v, want %v", seed, got, want)
		}
	}
}

func TestLTEarlyStopAndGuaranteePath(t *testing.T) {
	g := graph.Chain(20, 0.9)
	lt := NewLT(g, Options{Epsilon: 0.2, Delta: 100, LogSearchSpace: 1}, rng.New(9))
	res := lt.Estimate(0, []float64{1})
	if res.Samples >= res.Theta {
		t.Fatalf("early stop never fired: %d of %d", res.Samples, res.Theta)
	}
	// On a chain LT == IC: 1 + 0.9 + ... + 0.9^19.
	want, sum := 0.0, 1.0
	for i := 0; i < 20; i++ {
		want += sum
		sum *= 0.9
	}
	if math.Abs(res.Influence-want) > 0.2*want {
		t.Fatalf("LT chain estimate %v, want %v", res.Influence, want)
	}
}

func TestLTIsolatedUser(t *testing.T) {
	g := fixture.Graph()
	lt := NewLT(g, testOptions(), rng.New(11))
	if got := lt.Estimate(fixture.U5, []float64{1, 0, 0}).Influence; got != 1 {
		t.Fatalf("isolated LT = %v, want 1", got)
	}
}

func TestTriggeringLTMatchesExactOnDiamond(t *testing.T) {
	b := graph.NewBuilder(4, 1)
	tp := []graph.TopicProb{{Topic: 0, Prob: 0.3}}
	b.AddEdge(0, 1, tp)
	b.AddEdge(0, 2, tp)
	b.AddEdge(1, 3, tp)
	b.AddEdge(2, 3, tp)
	g := b.MustBuild()
	want, err := exact.InfluenceLT(g, 0, []float64{0.3, 0.3, 0.3, 0.3})
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	tr := NewReverseLT(g, testOptions(), rng.New(5))
	got := tr.EstimateWithBudget(0, []float64{1}, 60000).Influence
	if math.Abs(got-want) > 0.03*want {
		t.Fatalf("reverse LT estimate %v, want %v (IC value would be %v)",
			got, want, 1+0.3+0.3+0.1719)
	}
}

func TestTriggeringLTMatchesForwardLT(t *testing.T) {
	// The reverse triggering-set sampler and the forward threshold
	// sampler estimate the same quantity on random graphs.
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 12, 22, graph.TopicAssignment{
			NumTopics: 2, TopicsPerEdge: 1, MaxProb: 0.6,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		m := topics.GenerateRandom(r, 4, 2, 1)
		post, ok := m.Posterior([]topics.TagID{topics.TagID(r.Intn(4))})
		if !ok {
			continue
		}
		u := graph.VertexID(r.Intn(12))
		fwd := NewLT(g, testOptions(), rng.New(seed+10)).
			EstimateWithBudget(u, post, 30000).Influence
		rev := NewReverseLT(g, testOptions(), rng.New(seed+20)).
			EstimateWithBudget(u, post, 30000).Influence
		if math.Abs(fwd-rev) > 0.08*math.Max(fwd, rev)+0.05 {
			t.Errorf("seed %d: forward LT %v vs reverse LT %v", seed, fwd, rev)
		}
	}
}

// TestTriggeringGuaranteePath runs ReverseLT's full Estimate path on a
// chain, where every vertex keeps its one in-edge with probability 0.8,
// so LT and IC agree: 1 + 0.8 + ... + 0.8^9.
func TestTriggeringGuaranteePath(t *testing.T) {
	g := graph.Chain(10, 0.8)
	tr := NewReverseLT(g, Options{Epsilon: 0.2, Delta: 100, LogSearchSpace: 1}, rng.New(7))
	res := tr.Estimate(0, []float64{1})
	want, sum := 0.0, 1.0
	for i := 0; i < 10; i++ {
		want += sum
		sum *= 0.8
	}
	if res.Influence < 0.8*want || res.Influence > 1.2*want {
		t.Fatalf("estimate %v outside band around %v", res.Influence, want)
	}
	if res.Samples <= 0 || res.Theta < res.Samples {
		t.Fatalf("bad metadata %+v", res)
	}
}

func TestTriggeringIsolatedUser(t *testing.T) {
	g := fixture.Graph()
	tr := NewReverseLT(g, testOptions(), rng.New(9))
	if got := tr.Estimate(fixture.U5, []float64{1, 0, 0}).Influence; got != 1 {
		t.Fatalf("isolated estimate = %v, want 1", got)
	}
}

func TestTriggeringEdgeVisitsCounted(t *testing.T) {
	g := graph.Chain(5, 0.9)
	tr := NewReverseLT(g, testOptions(), rng.New(11))
	tr.EstimateWithBudget(0, []float64{1}, 500)
	if tr.WorkStats().ProbesEvaluated == 0 {
		t.Fatal("no edge visits counted")
	}
}
