package rrindex

import (
	"math"
	"testing"
	"testing/quick"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// siblingPosteriors builds the posterior rows of one best-first frontier:
// size-k sibling tag sets sharing a k-1 prefix, which is exactly the
// redundancy FrontierProbeCache exploits. Undefined posteriors are
// skipped (the explorer never hands those to an estimator). width rows
// are produced by cycling the completion tag, so widths beyond NumTags
// exercise the maxFrontierWidth chunking with repeated rows.
func siblingPosteriors(m *topics.Model, prefix []topics.TagID, width int) [][]float64 {
	var out [][]float64
	tags := make([]topics.TagID, len(prefix)+1)
	copy(tags, prefix)
	for w := 0; len(out) < width; w++ {
		tags[len(prefix)] = topics.TagID(w % m.NumTags())
		post := make([]float64, m.NumTopics())
		if m.PosteriorInto(tags, post) {
			out = append(out, post)
		}
		if w >= 4*width+m.NumTags() {
			break // model too degenerate to yield `width` defined rows
		}
	}
	return out
}

// noStop is the disabled rule: batched results must be byte-identical to
// the sequential path under it.
var noStop = sampling.StopRule{}

// TestFrontierByteIdenticalMonolithic is the core equivalence contract of
// the batched path: for every estimator family, EstimateFrontier with
// stopping disabled returns, per sibling, the exact sampling.Result of a
// sequential per-prober estimate on the monolithic index — the paper's
// formula over that sibling's one-shard scan (mono), bitwise, including
// the Samples/Reachable bookkeeping — at widths both below and above the
// 64-sibling chunk size.
func TestFrontierByteIdenticalMonolithic(t *testing.T) {
	g := randomGraph(250, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	r := rng.New(99)
	m := topics.GenerateRandom(r, 12, 6, 3)

	idx, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dm, err := BuildDelayMat(g, opts)
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	si, err := BuildSharded(g, opts, 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	sdm, err := BuildShardedDelayMat(g, opts, 1)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	// DelayMat: equal streams, and both sides meet the users in the same
	// order, so the batched and the sequential pass score the same
	// recovered sample (recovery is the only RNG consumer, and it runs
	// once per user either way).
	families := []struct {
		name    string
		batched *ShardedEstimator
		seq     mono
	}{
		{"DELAYMAT", NewShardedDelayEstimator(sdm, rng.New(9)), mono{newDelayEstimatorShard(dm, rng.New(9).Uint64(), &lazyFireTable{}, 0, 1, g.NumVertices()), g}},
		{"INDEXEST", NewShardedEstimator(si), mono{NewEstimator(idx), g}},
		{"INDEXEST+", NewShardedPrunedEstimator(si), mono{NewPrunedEstimator(idx), g}},
	}

	for _, width := range []int{1, 7, 70} {
		posteriors := siblingPosteriors(m, []topics.TagID{0, 3}, width)
		if len(posteriors) < width {
			t.Fatalf("fixture model yielded %d/%d defined posteriors", len(posteriors), width)
		}
		for u := 0; u < g.NumVertices(); u += 13 {
			v := graph.VertexID(u)
			for _, fam := range families {
				for i, got := range fam.batched.EstimateFrontier(v, posteriors, noStop) {
					want := fam.seq.EstimateProber(v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]})
					if got != want {
						t.Fatalf("%s u=%d width=%d sibling %d: frontier %+v != sequential %+v", fam.name, u, width, i, got, want)
					}
				}
			}
		}
	}
}

// TestFrontierByteIdenticalSharded extends the contract across shard
// counts: the scattered masked scans must reproduce the per-prober
// sharded estimate bit for bit, one shard included.
func TestFrontierByteIdenticalSharded(t *testing.T) {
	g := randomGraph(250, 4, 0.05, 0.4, 7)
	opts := shardOpts(21, 3000)
	r := rng.New(101)
	m := topics.GenerateRandom(r, 10, 5, 3)
	posteriors := siblingPosteriors(m, []topics.TagID{1, 4}, 9)
	if len(posteriors) == 0 {
		t.Fatal("no defined sibling posteriors")
	}

	for _, S := range []int{1, 2, 4} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		sest := NewShardedEstimator(si)
		spe := NewShardedPrunedEstimator(si)
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildShardedDelayMat: %v", S, err)
		}
		sde := NewShardedDelayEstimator(sdm, rng.New(9))
		for u := 0; u < g.NumVertices(); u += 17 {
			v := graph.VertexID(u)
			for i, got := range sde.EstimateFrontier(v, posteriors, noStop) {
				want := sde.EstimateProber(v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]})
				if got != want {
					t.Fatalf("S=%d DELAYMAT u=%d sibling %d: frontier %+v != sequential %+v", S, u, i, got, want)
				}
			}
			for i, got := range sest.EstimateFrontier(v, posteriors, noStop) {
				want := sest.EstimateProber(v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]})
				if got != want {
					t.Fatalf("S=%d INDEXEST u=%d sibling %d: frontier %+v != sequential %+v", S, u, i, got, want)
				}
			}
			for i, got := range spe.EstimateFrontier(v, posteriors, noStop) {
				want := spe.EstimateProber(v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]})
				if got != want {
					t.Fatalf("S=%d INDEXEST+ u=%d sibling %d: frontier %+v != sequential %+v", S, u, i, got, want)
				}
			}
		}
	}
}

// TestFrontierByteIdenticalProperty is the randomized sweep over seeds,
// topologies, widths and shard counts — the quick-check face of the two
// pinned tests above (IndexEst and IndexEst+ families; DelayMat's RNG
// cache makes it awkward under quick and it is covered above).
func TestFrontierByteIdenticalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.ErdosRenyi(r, 40, 160, graph.TopicAssignment{
			NumTopics: 4, TopicsPerEdge: 2, MaxProb: 0.8,
		})
		if err != nil {
			return false
		}
		m := topics.GenerateRandom(r, 8, 4, 2)
		opts := shardOpts(seed^0x9e37, 600)
		S := 1 + r.Intn(3)
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			return false
		}
		width := 1 + r.Intn(10)
		posteriors := siblingPosteriors(m, []topics.TagID{topics.TagID(r.Intn(8))}, width)
		if len(posteriors) == 0 {
			return true // degenerate model: nothing to compare
		}
		sest := NewShardedEstimator(si)
		spe := NewShardedPrunedEstimator(si)
		for trial := 0; trial < 4; trial++ {
			v := graph.VertexID(r.Intn(g.NumVertices()))
			for i, got := range sest.EstimateFrontier(v, posteriors, noStop) {
				if got != sest.EstimateProber(v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]}) {
					return false
				}
			}
			for i, got := range spe.EstimateFrontier(v, posteriors, noStop) {
				if got != spe.EstimateProber(v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierSequentialStopping pins the stopping contract: with a
// threshold between the siblings' influences, (a) stops actually occur
// and are surfaced through WorkStats, (b) the winner stays the winner,
// and (c) the perturbation regime matches the design — on a monolithic
// index an above-threshold sibling is scanned in full and byte-identical,
// while a sharded scatter may stop a winner's below-share shards, leaving
// its estimate within the stop-time confidence width of exact.
func TestFrontierSequentialStopping(t *testing.T) {
	r := rng.New(5)
	// The graph's topic space must match the model's: posterior mass on
	// topics no edge carries would zero every probability and leave
	// nothing to stop.
	g, err := graph.ErdosRenyi(r, 300, 1800, graph.TopicAssignment{
		NumTopics: 4, TopicsPerEdge: 2, MaxProb: 0.5,
	})
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	opts := shardOpts(71, 4000)
	m := topics.GenerateRandom(r, 12, 4, 2)
	posteriors := siblingPosteriors(m, []topics.TagID{0}, 12)
	if len(posteriors) < 4 {
		t.Fatalf("only %d defined posteriors", len(posteriors))
	}
	u := graph.MaxOutDegreeVertex(g)

	for _, S := range []int{1, 3} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		pe := NewShardedPrunedEstimator(si)
		exact := pe.EstimateFrontier(u, posteriors, noStop)
		best, bestInf := 0, 0.0
		for i, res := range exact {
			if res.Influence > bestInf {
				best, bestInf = i, res.Influence
			}
		}
		// Threshold below the best, above the weakest: winners must
		// survive untouched, the tail should stop.
		thr := bestInf * 0.95
		stop := sampling.StopRule{Threshold: thr, LogInvDelta: math.Log(200) + 3 + math.Ln2}
		before := pe.WorkStats()
		stopped := pe.EstimateFrontier(u, posteriors, stop)
		ws := pe.WorkStats().Sub(before)

		if ws.EarlyStops == 0 || ws.GraphsSkipped == 0 {
			t.Fatalf("S=%d: no early stops recorded (stops=%d skipped=%d); threshold %v too loose for this fixture",
				S, ws.EarlyStops, ws.GraphsSkipped, thr)
		}
		// The winner must remain the winner.
		sBest, sBestInf := 0, 0.0
		for i, res := range stopped {
			if res.Influence > sBestInf {
				sBest, sBestInf = i, res.Influence
			}
		}
		if sBest != best {
			t.Fatalf("S=%d: stopping changed the winner: sibling %d (%v) vs exact %d (%v)",
				S, sBest, sBestInf, best, bestInf)
		}
		if S == 1 && stopped[best] != exact[best] {
			t.Fatalf("S=1: monolithic winner perturbed by stopping: %+v != %+v", stopped[best], exact[best])
		}
		for i := range exact {
			if exact[i].Influence > thr {
				// Above-threshold siblings: exact on a monolithic index;
				// within the guarantee's relative error on a sharded one
				// (stopped below-share shards extrapolate).
				if relErr := math.Abs(stopped[i].Influence-exact[i].Influence) / exact[i].Influence; relErr > opts.Accuracy.Epsilon {
					t.Fatalf("S=%d sibling %d: above-threshold estimate off by %v (> ε=%v): %+v vs %+v",
						S, i, relErr, opts.Accuracy.Epsilon, stopped[i], exact[i])
				}
			}
			if stopped[i].Influence < 1 {
				t.Fatalf("S=%d sibling %d: influence %v < 1", S, i, stopped[i].Influence)
			}
		}
	}
}

// TestPartialFrontierGatherIdentity checks the distributed face: per-
// shard PartialFrontier rows gathered by GatherFrontierPartials must
// equal both the per-sibling Partial/GatherPartials pipeline and the
// in-process sharded EstimateFrontier, bit for bit (stopping disabled).
func TestPartialFrontierGatherIdentity(t *testing.T) {
	g := randomGraph(200, 4, 0.05, 0.4, 11)
	opts := shardOpts(13, 2000)
	r := rng.New(77)
	m := topics.GenerateRandom(r, 10, 5, 3)
	posteriors := siblingPosteriors(m, []topics.TagID{2}, 6)
	if len(posteriors) == 0 {
		t.Fatal("no defined sibling posteriors")
	}
	const S = 3
	si, err := BuildSharded(g, opts, S)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	// Both wire families: the plain estimator and the cut-pruning one.
	families := []struct {
		name   string
		inproc frontierEstimator
		shard  func(*Index) remoteEstimator
	}{
		{"INDEXEST", NewShardedEstimator(si), func(i *Index) remoteEstimator { return NewEstimator(i) }},
		{"INDEXEST+", NewShardedPrunedEstimator(si), func(i *Index) remoteEstimator { return NewPrunedEstimator(i) }},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			testPartialFrontierGather(t, g, opts, S, fam.inproc, fam.shard)
		})
	}
}

// remoteEstimator and frontierEstimator are the method sets the gather-
// identity test exercises on both the plain and cut-pruning families.
type remoteEstimator interface {
	PartialFrontier(shard, users, totalUsers int, u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []Partial
	Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial
}

type frontierEstimator interface {
	EstimateFrontier(u graph.VertexID, posteriors [][]float64, stop sampling.StopRule) []sampling.Result
}

func testPartialFrontierGather(t *testing.T, g *graph.Graph, opts BuildOptions, S int,
	inproc frontierEstimator, newShard func(*Index) remoteEstimator) {
	r := rng.New(77)
	m := topics.GenerateRandom(r, 10, 5, 3)
	posteriors := siblingPosteriors(m, []topics.TagID{2}, 6)

	// A fleet of independently built shard servers.
	shards := make([]remoteEstimator, S)
	users := make([]int, S)
	for s := 0; s < S; s++ {
		idx, n, err := BuildShard(g, opts, S, s)
		if err != nil {
			t.Fatalf("BuildShard %d: %v", s, err)
		}
		shards[s] = newShard(idx)
		users[s] = n
	}

	for u := 0; u < g.NumVertices(); u += 23 {
		v := graph.VertexID(u)
		want := inproc.EstimateFrontier(v, posteriors, noStop)

		parts := make([][]Partial, S)
		for s := 0; s < S; s++ {
			parts[s] = shards[s].PartialFrontier(s, users[s], g.NumVertices(), v, posteriors, noStop)
		}
		got := GatherFrontierPartials(parts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("u=%d sibling %d: gathered %+v != in-process %+v", u, i, got[i], want[i])
			}
			// Row-for-row agreement with the classic single-candidate wire
			// path.
			single := make([]Partial, S)
			for s := 0; s < S; s++ {
				single[s] = shards[s].Partial(s, users[s], v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]})
			}
			if seq := GatherPartials(single); seq != want[i] {
				t.Fatalf("u=%d sibling %d: classic gather %+v != in-process %+v", u, i, seq, want[i])
			}
		}
	}
}
