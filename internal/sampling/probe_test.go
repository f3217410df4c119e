package sampling

import (
	"math"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/rng"
)

// countingProber wraps an EdgeProber and counts Prob calls per edge.
type countingProber struct {
	inner EdgeProber
	calls []int64
}

func (cp *countingProber) Prob(e graph.EdgeID) float64 {
	cp.calls[e]++
	return cp.inner.Prob(e)
}

// TestProbeCacheAgreesWithUncached is the property test: across scopes
// with changing posteriors and repeated probes, the cached prober must
// return exactly the uncached value, evaluate the inner prober at most
// once per edge per scope, and never leak a value across scopes.
func TestProbeCacheAgreesWithUncached(t *testing.T) {
	r := rng.New(99)
	g, err := graph.ErdosRenyi(r, 60, 400, graph.TopicAssignment{
		NumTopics: 3, TopicsPerEdge: 2, MaxProb: 0.8,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	pc := NewProbeCache(g.NumEdges())
	for scope := 0; scope < 25; scope++ {
		post := make([]float64, 3)
		rem := 1.0
		for z := 0; z < 2; z++ {
			post[z] = rem * r.Float64()
			rem -= post[z]
		}
		post[2] = rem
		direct := PosteriorProber{G: g, Posterior: post}
		counted := &countingProber{inner: direct, calls: make([]int64, g.NumEdges())}
		cached := pc.Begin(counted)
		for probe := 0; probe < 3*g.NumEdges(); probe++ {
			e := graph.EdgeID(r.Intn(g.NumEdges()))
			if got, want := cached.Prob(e), direct.Prob(e); got != want {
				t.Fatalf("scope %d: cached Prob(%d) = %v, want %v", scope, e, got, want)
			}
		}
		for e, n := range counted.calls {
			if n > 1 {
				t.Fatalf("scope %d: edge %d evaluated %d times, want <= 1", scope, e, n)
			}
		}
	}
}

// TestFrontierProbeCacheRows is the frontier-row property: every row
// entry must equal the direct EdgeProb evaluation, lo/hi must bracket
// the row, repeat requests must hit (in per-sibling units), and a new
// Begin must invalidate the previous scope while recycling storage.
func TestFrontierProbeCacheRows(t *testing.T) {
	r := rng.New(41)
	g, err := graph.ErdosRenyi(r, 40, 200, graph.TopicAssignment{
		NumTopics: 3, TopicsPerEdge: 2, MaxProb: 0.8,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	posts := [][]float64{
		{1, 0, 0},
		{0.2, 0.3, 0.5},
		{0, 0.5, 0.5},
	}
	fc := NewFrontierProbeCache(g.NumEdges())
	for scope := 0; scope < 3; scope++ {
		width := 2 + scope%2
		fc.Begin(g, posts[:width])
		if fc.Width() != width {
			t.Fatalf("scope %d: Width = %d, want %d", scope, fc.Width(), width)
		}
		h0, m0 := fc.Stats()
		for probe := 0; probe < 50; probe++ {
			e := graph.EdgeID(r.Intn(g.NumEdges()))
			row, lo, hi := fc.Row(e)
			if len(row) != width {
				t.Fatalf("row width %d, want %d", len(row), width)
			}
			wantLo, wantHi := math.Inf(1), math.Inf(-1)
			for i, post := range posts[:width] {
				want := g.EdgeProb(e, post)
				if row[i] != want {
					t.Fatalf("scope %d edge %d sibling %d: row %v, want %v", scope, e, i, row[i], want)
				}
				wantLo = math.Min(wantLo, want)
				wantHi = math.Max(wantHi, want)
			}
			if lo != wantLo || hi != wantHi {
				t.Fatalf("edge %d: lo/hi = %v/%v, want %v/%v", e, lo, hi, wantLo, wantHi)
			}
		}
		h1, m1 := fc.Stats()
		if (h1-h0)+(m1-m0) != int64(50*width) {
			t.Fatalf("scope %d: %d probes accounted, want %d", scope, (h1-h0)+(m1-m0), 50*width)
		}
		if m1-m0 > int64(g.NumEdges()*width) {
			t.Fatalf("scope %d: %d misses for <= %d distinct edges", scope, m1-m0, g.NumEdges())
		}
	}
	var nilFC *FrontierProbeCache
	if h, m := nilFC.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil Stats = (%d, %d), want zeros", h, m)
	}
}
