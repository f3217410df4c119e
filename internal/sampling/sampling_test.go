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

func testOptions() Options {
	return Options{Epsilon: 0.1, Delta: 100, LogSearchSpace: 2, MaxSamples: 50000}
}

func TestOptionsValidate(t *testing.T) {
	good := testOptions()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	bad := []Options{
		{Epsilon: 0, Delta: 100},
		{Epsilon: 1.5, Delta: 100},
		{Epsilon: 0.5, Delta: 0.5},
		{Epsilon: 0.5, Delta: 100, LogSearchSpace: math.Inf(1)},
		{Epsilon: 0.5, Delta: 100, MaxSamples: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestLambdaFormula(t *testing.T) {
	o := Options{Epsilon: 0.7, Delta: 1000, LogSearchSpace: 10}
	want := (2 + 0.7) / (0.7 * 0.7) * (math.Log(1000) + 10 + math.Ln2)
	if got := o.Lambda(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Lambda = %v, want %v", got, want)
	}
}

func TestSampleSize(t *testing.T) {
	o := Options{Epsilon: 0.7, Delta: 1000, LogSearchSpace: 10}
	small := o.SampleSize(1)
	big := o.SampleSize(1000)
	if big <= small {
		t.Fatalf("SampleSize not increasing in |R_W(u)|: %d vs %d", small, big)
	}
	o.MaxSamples = 100
	if got := o.SampleSize(1000); got != 100 {
		t.Fatalf("cap not applied: %d", got)
	}
	if got := o.SampleSize(0); got < 1 {
		t.Fatalf("SampleSize(0) = %d", got)
	}
	// At ε = 1e-12, Λ·|R_W(u)| is past the int64 range: the cap must still
	// bind, and without one the size saturates instead of wrapping.
	tiny := Options{Epsilon: 1e-12, Delta: 1000, LogSearchSpace: 10, MaxSamples: 100}
	if got := tiny.SampleSize(1000); got != 100 {
		t.Fatalf("ε = 1e-12, cap 100: SampleSize = %d, want 100", got)
	}
	tiny.MaxSamples = 0
	if got := tiny.SampleSize(1000); got != math.MaxInt64 {
		t.Fatalf("ε = 1e-12, no cap: SampleSize = %d, want math.MaxInt64", got)
	}
}

func TestStopThreshold(t *testing.T) {
	o := Options{Epsilon: 0.7, Delta: 1000, LogSearchSpace: 20}
	th := o.StopThreshold()
	if math.IsNaN(th) || th <= 1 {
		t.Fatalf("StopThreshold = %v, want finite > 1", th)
	}
	// Tighter epsilon must require a larger stopping sum.
	o2 := o
	o2.Epsilon = 0.1
	if o2.StopThreshold() <= th {
		t.Fatalf("threshold not decreasing in epsilon")
	}
}

type estimator interface {
	Estimate(u graph.VertexID, posterior []float64) Result
	EstimateWithBudget(u graph.VertexID, posterior []float64, n int64) Result
	WorkStats() WorkStats
}

func allEstimators(g *graph.Graph, opts Options, seed uint64) map[string]estimator {
	return map[string]estimator{
		"mc":   NewMC(g, opts, rng.New(seed)),
		"rr":   NewRR(g, opts, rng.New(seed+1)),
		"lazy": NewLazy(g, opts, rng.New(seed+2)),
	}
}

// TestEstimatorsMatchExactOnFixture cross-checks all three online samplers
// against the possible-world oracle on the paper's Fig. 2 example for every
// size-2 tag set.
func TestEstimatorsMatchExactOnFixture(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	pairs := [][]topics.TagID{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
	}
	for name, est := range allEstimators(g, testOptions(), 7) {
		for _, w := range pairs {
			want, err := exact.InfluenceTagSet(g, m, fixture.U1, w)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			post, _ := m.Posterior(w)
			got := est.EstimateWithBudget(fixture.U1, post, 40000).Influence
			if math.Abs(got-want) > 0.04*want+0.02 {
				t.Errorf("%s: E[I(u1|%v)] = %v, want %v", name, w, got, want)
			}
		}
	}
}

// TestEstimatorsMatchExactOnRandomGraphs validates samplers against the
// oracle on small random graphs with random models.
func TestEstimatorsMatchExactOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 10, 14, graph.TopicAssignment{
			NumTopics: 3, TopicsPerEdge: 2, MaxProb: 0.6,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		m := topics.GenerateRandom(r, 6, 3, 2)
		w := []topics.TagID{topics.TagID(r.Intn(6))}
		u := graph.VertexID(r.Intn(10))
		want, err := exact.InfluenceTagSet(g, m, u, w)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		post, ok := m.Posterior(w)
		if !ok {
			continue
		}
		for name, est := range allEstimators(g, testOptions(), seed*31) {
			got := est.EstimateWithBudget(u, post, 40000).Influence
			if math.Abs(got-want) > 0.05*want+0.03 {
				t.Errorf("seed %d %s: estimate %v, want %v", seed, name, got, want)
			}
		}
	}
}

// TestEstimateWithGuarantee exercises the full Estimate path (Eq. 2 sample
// size + early stop) and checks the (1±ε) band against the oracle.
func TestEstimateWithGuarantee(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	w := []topics.TagID{fixture.W3, fixture.W4}
	want, err := exact.InfluenceTagSet(g, m, fixture.U1, w)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	post, _ := m.Posterior(w)
	opts := Options{Epsilon: 0.2, Delta: 100, LogSearchSpace: 2}
	for name, est := range allEstimators(g, opts, 123) {
		res := est.Estimate(fixture.U1, post)
		if res.Influence < (1-0.2)*want || res.Influence > (1+0.2)*want {
			t.Errorf("%s: estimate %v outside (1±ε)·%v", name, res.Influence, want)
		}
		// Under {w3,w4} topic z1 is dead, so u2 (reached only through the
		// z1-only edge u1->u2) drops out of R_W(u1): 5 vertices remain.
		if res.Samples <= 0 || res.Theta <= 0 || res.Reachable != 5 {
			t.Errorf("%s: bad result metadata %+v", name, res)
		}
	}
}

func TestIsolatedUserInfluenceIsOne(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	post, _ := m.Posterior([]topics.TagID{fixture.W1})
	for name, est := range allEstimators(g, testOptions(), 5) {
		if got := est.Estimate(fixture.U5, post).Influence; got != 1 {
			t.Errorf("%s: isolated influence = %v, want 1", name, got)
		}
	}
}

func TestZeroPosteriorInfluenceIsOne(t *testing.T) {
	g := fixture.Graph()
	post := make([]float64, 3) // all-zero posterior: no live edge
	for name, est := range allEstimators(g, testOptions(), 6) {
		if got := est.Estimate(fixture.U1, post).Influence; got != 1 {
			t.Errorf("%s: zero-posterior influence = %v, want 1", name, got)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	post, _ := m.Posterior([]topics.TagID{fixture.W3, fixture.W4})
	a := NewLazy(g, testOptions(), rng.New(42)).Estimate(fixture.U1, post)
	b := NewLazy(g, testOptions(), rng.New(42)).Estimate(fixture.U1, post)
	if a != b {
		t.Fatalf("lazy not deterministic: %+v vs %+v", a, b)
	}
}

// TestLazyProbesFewerEdgesThanMCOnStar reproduces the Fig. 3(a) analysis:
// on the star counterexample MC probes all n edges per instance while lazy
// propagation probes ~θ/n edges total for the leaf edges.
func TestLazyProbesFewerEdgesThanMCOnStar(t *testing.T) {
	g := graph.StarOut(200)
	post := []float64{1}
	opts := Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 1, MaxSamples: 2000, DisableEarlyStop: true}
	mc := NewMC(g, opts, rng.New(1))
	lz := NewLazy(g, opts, rng.New(2))
	mc.EstimateWithBudget(0, post, 2000)
	lz.EstimateWithBudget(0, post, 2000)
	if lz.WorkStats().ProbesEvaluated*5 > mc.WorkStats().ProbesEvaluated {
		t.Fatalf("lazy visits %d edges, MC %d; want ≥5x reduction", lz.WorkStats().ProbesEvaluated, mc.WorkStats().ProbesEvaluated)
	}
}

// TestLazyProbesFewerEdgesThanRROnCelebrity reproduces the Fig. 3(b)
// analysis: RR reverse samples from the celebrity's followers probe all n
// in-edges of the celebrity, while lazy forward sampling from a user u_j
// probes its single out-edge lazily.
func TestLazyProbesFewerEdgesThanRROnCelebrity(t *testing.T) {
	g := graph.Celebrity(100)
	post := []float64{1}
	u := graph.VertexID(101) // one of the u_j users
	opts := Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 1, MaxSamples: 2000, DisableEarlyStop: true}
	rr := NewRR(g, opts, rng.New(3))
	lz := NewLazy(g, opts, rng.New(4))
	rr.EstimateWithBudget(u, post, 2000)
	lz.EstimateWithBudget(u, post, 2000)
	if lz.WorkStats().ProbesEvaluated*5 > rr.WorkStats().ProbesEvaluated {
		t.Fatalf("lazy visits %d edges, RR %d; want ≥5x reduction", lz.WorkStats().ProbesEvaluated, rr.WorkStats().ProbesEvaluated)
	}
}

// TestEarlyStopTriggers checks that a high-influence query stops before
// exhausting θ_W and still lands near the oracle.
func TestEarlyStopTriggers(t *testing.T) {
	g := graph.Chain(20, 0.9)
	post := []float64{1}
	opts := Options{Epsilon: 0.2, Delta: 100, LogSearchSpace: 1}
	lz := NewLazy(g, opts, rng.New(9))
	res := lz.Estimate(0, post)
	if res.Samples >= res.Theta {
		t.Fatalf("early stop never fired: %d samples of θ=%d", res.Samples, res.Theta)
	}
	want := 0.0
	p := 1.0
	for i := 0; i < 20; i++ {
		want += p
		p *= 0.9
	}
	if math.Abs(res.Influence-want) > 0.2*want {
		t.Fatalf("early-stopped estimate %v far from %v", res.Influence, want)
	}
}

// TestLazyMatchesMCMeanOnCounterexamples compares lazy and MC estimates on
// the Fig. 3 graphs where exact values are known analytically.
func TestLazyMatchesMCMeanOnCounterexamples(t *testing.T) {
	g := graph.StarOut(50)
	post := []float64{1}
	mc := NewMC(g, testOptions(), rng.New(11)).EstimateWithBudget(0, post, 30000)
	lz := NewLazy(g, testOptions(), rng.New(12)).EstimateWithBudget(0, post, 30000)
	// Exact star influence is 2.
	if math.Abs(mc.Influence-2) > 0.1 {
		t.Fatalf("MC star estimate %v, want 2", mc.Influence)
	}
	if math.Abs(lz.Influence-2) > 0.1 {
		t.Fatalf("lazy star estimate %v, want 2", lz.Influence)
	}
}

// TestRRHitRateOnChain checks the RR estimator on a chain where hitting
// probabilities decay geometrically.
func TestRRHitRateOnChain(t *testing.T) {
	g := graph.Chain(6, 0.5)
	post := []float64{1}
	rr := NewRR(g, testOptions(), rng.New(13))
	res := rr.EstimateWithBudget(0, post, 40000)
	want := 1 + 0.5 + 0.25 + 0.125 + 0.0625 + 0.03125
	if math.Abs(res.Influence-want) > 0.05*want {
		t.Fatalf("RR chain estimate %v, want %v", res.Influence, want)
	}
	if res.Reachable != 6 {
		t.Fatalf("Reachable = %d, want 6", res.Reachable)
	}
}

// TestReachRespectsPosterior: R_W(u) must shrink when the posterior kills
// edges.
func TestReachRespectsPosterior(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	rs := newReachScratch(g)
	postAllRaw, _ := m.Posterior(nil)
	postW12Raw, _ := m.Posterior([]topics.TagID{fixture.W1, fixture.W2})
	postAll := PosteriorProber{G: g, Posterior: postAllRaw}
	postW12 := PosteriorProber{G: g, Posterior: postW12Raw}
	all := len(rs.compute(fixture.U1, postAll))
	w12 := len(rs.compute(fixture.U1, postW12))
	if all != 6 {
		t.Fatalf("R_∅(u1) = %d, want 6", all)
	}
	// Under {w1,w2} topic z3 is dead, removing the z3-only edges
	// u3->u4, u4->u6, u4->u7, u6->u7, leaving u1,u2,u3,u6.
	if w12 != 4 {
		t.Fatalf("R_{w1,w2}(u1) = %d, want 4", w12)
	}
	// Scratch marks must be reset between calls.
	again := len(rs.compute(fixture.U1, postAll))
	if again != all {
		t.Fatalf("scratch not reset: %d then %d", all, again)
	}
}

func TestHeapOrdering(t *testing.T) {
	var h []lazyEntry
	for _, d := range []int64{5, 1, 9, 3, 7, 2, 8} {
		h = heapPush(h, lazyEntry{due: d})
	}
	prev := int64(-1)
	for len(h) > 0 {
		top := h[0].due
		if top < prev {
			t.Fatalf("heap pop out of order: %d after %d", top, prev)
		}
		prev = top
		h = heapPop(h)
	}
}
