package sampling

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/topics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_samplers.txt")

// goldenSampler is what the golden test drives: both estimate entry
// points plus the lifetime cost counter.
type goldenSampler interface {
	Estimate(u graph.VertexID, posterior []float64) Result
	EstimateWithBudget(u graph.VertexID, posterior []float64, n int64) Result
	WorkStats() WorkStats
}

func goldenSamplers(g *graph.Graph, opts Options, seed uint64) []struct {
	name string
	s    goldenSampler
} {
	return []struct {
		name string
		s    goldenSampler
	}{
		{"mc", NewMC(g, opts, rng.New(seed))},
		{"rr", NewRR(g, opts, rng.New(seed))},
		{"lazy", NewLazy(g, opts, rng.New(seed))},
		{"lt", NewLT(g, opts, rng.New(seed))},
		{"reverse-lt", NewReverseLT(g, opts, rng.New(seed))},
	}
}

// goldenQuery is one (user, posterior) pair of a golden graph.
type goldenQuery struct {
	u    graph.VertexID
	post []float64
}

func goldenGraphs(t *testing.T) []struct {
	name    string
	g       *graph.Graph
	queries []goldenQuery
} {
	t.Helper()
	fm := fixture.Model()
	fixPost := func(w ...topics.TagID) []float64 {
		p, ok := fm.Posterior(w)
		if !ok {
			t.Fatalf("fixture posterior %v undefined", w)
		}
		return p
	}
	r := rng.New(2024)
	er, err := graph.ErdosRenyi(r, 30, 90, graph.TopicAssignment{NumTopics: 3, TopicsPerEdge: 2, MaxProb: 0.7})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return []struct {
		name    string
		g       *graph.Graph
		queries []goldenQuery
	}{
		{"fig2", fixture.Graph(), []goldenQuery{
			{fixture.U1, fixPost(fixture.W3, fixture.W4)},
			{fixture.U1, fixPost(fixture.W1, fixture.W2)},
			{fixture.U5, fixPost(fixture.W1)}, // no out-edges: |R_W(u)| = 1
			{fixture.U1, []float64{0, 0, 0}},  // no live edge: |R_W(u)| = 1
			{fixture.U3, fixPost(fixture.W2, fixture.W3)},
		}},
		{"er30", er, []goldenQuery{
			{0, []float64{0.5, 0.3, 0.2}},
			{7, []float64{0, 1, 0}},
			{19, []float64{0.2, 0.2, 0.6}},
		}},
		{"chain20", graph.Chain(20, 0.9), []goldenQuery{{0, []float64{1}}, {19, []float64{1}}}},
		{"star40", graph.StarOut(40), []goldenQuery{{0, []float64{1}}, {3, []float64{1}}}},
	}
}

func formatResult(r Result) string {
	return fmt.Sprintf("inf=%s n=%d theta=%d reach=%d",
		strconv.FormatFloat(r.Influence, 'g', -1, 64), r.Samples, r.Theta, r.Reachable)
}

// TestSamplersGolden pins every online sampler's Estimate and
// EstimateWithBudget results and its cost counter, bit for bit, across
// seeds and option sets (early stop on and off, with and without a cap).
// One sampler answers every query of a graph in turn, so the pins also
// cover the state a sampler carries from call to call. Regenerate with
// -update-golden only for a change that means to move an answer.
func TestSamplersGolden(t *testing.T) {
	optSets := []Options{
		{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2, MaxSamples: 1500, DisableEarlyStop: true},
		{Epsilon: 0.2, Delta: 1000, LogSearchSpace: 3, MaxSamples: 800},
	}
	var out bytes.Buffer
	for _, gg := range goldenGraphs(t) {
		for oi, opts := range optSets {
			for seed := uint64(1); seed <= 6; seed++ {
				for _, smp := range goldenSamplers(gg.g, opts, seed) {
					for qi, q := range gg.queries {
						est := smp.s.Estimate(q.u, q.post)
						bud := smp.s.EstimateWithBudget(q.u, q.post, 300+int64(qi)*50)
						fmt.Fprintf(&out, "%s opts=%d seed=%d %s q=%d | %s | %s | cost=%d\n",
							gg.name, oi, seed, smp.name, qi, formatResult(est), formatResult(bud), smp.s.WorkStats().ProbesEvaluated)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "golden_samplers.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d differing lines in all", bad)
	}
}
