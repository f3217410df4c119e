package rrindex

import (
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

// tieDraws moves every third draw of idx's graphs onto one sibling's
// probability of that edge, so verdicts hang on p(e|W) = c(e) exactly —
// live under Def. 3's ≥ — which continuous draws almost never produce.
// It returns how many draws it moved.
func tieDraws(idx *Index, posteriors [][]float64) int {
	tied := 0
	for gi := 0; gi < idx.graphs.size(); gi++ {
		rr := idx.graphs.view(gi)
		for i := 0; i < len(rr.c); i += 3 {
			if p := idx.g.EdgeProb(rr.edgeID[i], posteriors[i%len(posteriors)]); p > 0 {
				rr.c[i] = p
				tied++
			}
		}
	}
	return tied
}

// TestFrontierByteIdenticalMonolithic is the core equivalence contract of
// the masked scan: for every estimator family, EstimateFrontier returns,
// per sibling, the exact sampling.Result of the reference on the
// monolithic index — the paper's formula over a graph-by-graph Def. 3
// count (mono), bitwise, including the Samples/Reachable bookkeeping — at
// widths both below and above the 64-sibling chunk size, over an index
// whose draws include ties (tieDraws).
func TestFrontierByteIdenticalMonolithic(t *testing.T) {
	g := randomGraph(250, 4, 0.05, 0.4, 3)
	opts := shardOpts(42, 3000)
	r := rng.New(99)
	m := topics.GenerateRandom(r, 12, 2, 2)

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
	// The model's two topics are the graph's, so sibling probabilities are
	// not all zero and the ties are real.
	if tieDraws(idx, siblingPosteriors(m, []topics.TagID{0, 3}, 7)) == 0 {
		t.Fatal("no draw tied: the posteriors put no mass on the graph's topics")
	}
	tieDraws(si.shards[0], siblingPosteriors(m, []topics.TagID{0, 3}, 7))
	// DelayMat: equal streams, and both sides meet the users in the same
	// order, so the batched and the sequential pass score the same
	// recovered sample (recovery is the only RNG consumer, and it runs
	// once per user either way).
	families := []struct {
		name    string
		batched *ShardedEstimator
		seq     mono
	}{
		{"DELAYMAT", NewShardedDelayEstimator(sdm, rng.New(9)), mono{newDelayEstimatorShard(dm, rng.New(9).Uint64(), &delayGen{}, 0, 1, g.NumVertices()), g}},
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
				for i, got := range fam.batched.EstimateFrontier(v, posteriors, sampling.StopRule{}) {
					want := fam.seq.EstimateProber(v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]})
					if got != want {
						t.Fatalf("%s u=%d width=%d sibling %d: frontier %+v != reference %+v", fam.name, u, width, i, got, want)
					}
				}
			}
		}
	}
}

// TestFrontierByteIdenticalSharded extends the contract across shard
// counts: every frontier row, and every single-row estimate under a
// posterior or an arbitrary prober (fracProber, which enters the masked
// scan through proberRow), must equal the reference over the same shards
// bit for bit, one shard included. The hub user's work is above
// scatterParallelMinWork, so the parallel scatter runs both forms.
func TestFrontierByteIdenticalSharded(t *testing.T) {
	g := randomGraph(250, 4, 0.05, 0.4, 7)
	opts := shardOpts(21, 3000)
	r := rng.New(101)
	m := topics.GenerateRandom(r, 10, 2, 2)
	posteriors := siblingPosteriors(m, []topics.TagID{1, 4}, 9)
	if len(posteriors) == 0 {
		t.Fatal("no defined sibling posteriors")
	}
	probers := []sampling.EdgeProber{
		sampling.PosteriorProber{G: g, Posterior: posteriors[0]},
		fracProber{g: g, f: 0.8},
	}

	for _, S := range []int{1, 2, 4} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildShardedDelayMat: %v", S, err)
		}
		hub, hubWork := graph.VertexID(0), 0
		for u := 0; u < g.NumVertices(); u++ {
			work := 0
			for _, sh := range si.shards {
				work += sh.NumContaining(graph.VertexID(u))
			}
			if work > hubWork {
				hub, hubWork = graph.VertexID(u), work
			}
		}
		if hubWork < scatterParallelMinWork {
			t.Fatalf("S=%d hub work %d below the fan-out threshold %d", S, hubWork, scatterParallelMinWork)
		}
		users := []graph.VertexID{hub}
		for u := 0; u < g.NumVertices(); u += 17 {
			users = append(users, graph.VertexID(u))
		}
		families := []struct {
			name string
			est  *ShardedEstimator
		}{
			{"DELAYMAT", NewShardedDelayEstimator(sdm, rng.New(9))},
			{"INDEXEST", NewShardedEstimator(si)},
			{"INDEXEST+", NewShardedPrunedEstimator(si)},
		}
		for _, v := range users {
			for _, fam := range families {
				for i, got := range fam.est.EstimateFrontier(v, posteriors, sampling.StopRule{}) {
					if want := refSharded(fam.est, v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]}); got != want {
						t.Fatalf("S=%d %s u=%d sibling %d: frontier %+v != reference %+v", S, fam.name, v, i, got, want)
					}
				}
				for _, prober := range probers {
					if got, want := fam.est.EstimateProber(v, prober), refSharded(fam.est, v, prober); got != want {
						t.Fatalf("S=%d %s u=%d %T: estimate %+v != reference %+v", S, fam.name, v, prober, got, want)
					}
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
			for _, est := range []*ShardedEstimator{sest, spe} {
				for i, got := range est.EstimateFrontier(v, posteriors, sampling.StopRule{}) {
					if got != refSharded(est, v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]}) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialFrontierGatherIdentity checks the distributed face: the
// Partials rows of a fleet — one container holding shards {0, 2}, one
// holding shard 1 — gathered by GatherFrontierPartials must equal both
// the per-sibling Partial/GatherPartials pipeline and the in-process
// sharded EstimateFrontier, bit for bit.
func TestPartialFrontierGatherIdentity(t *testing.T) {
	g := randomGraph(200, 4, 0.05, 0.4, 11)
	opts := shardOpts(13, 2000)
	const S = 3
	si, err := BuildSharded(g, opts, S)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	var fleet []*ShardedIndex
	for _, owned := range [][]int{{0, 2}, {1}} {
		held, err := BuildOwned(g, opts, S, owned)
		if err != nil {
			t.Fatalf("BuildOwned(%v): %v", owned, err)
		}
		fleet = append(fleet, held)
	}
	// Both wire families: the plain estimator and the cut-pruning one.
	families := []struct {
		name    string
		sharded func(*ShardedIndex) *ShardedEstimator
		single  func(*Index) partialer
	}{
		{"INDEXEST", NewShardedEstimator, func(i *Index) partialer { return NewEstimator(i) }},
		{"INDEXEST+", NewShardedPrunedEstimator, func(i *Index) partialer { return NewPrunedEstimator(i) }},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			testPartialFrontierGather(t, g, fam.sharded(si), fleet, fam.sharded, fam.single)
		})
	}
}

// partialer is the single-row scan both index families offer.
type partialer interface {
	Partial(shard, users int, u graph.VertexID, prober sampling.EdgeProber) Partial
}

func testPartialFrontierGather(t *testing.T, g *graph.Graph, inproc *ShardedEstimator, fleet []*ShardedIndex,
	sharded func(*ShardedIndex) *ShardedEstimator, single func(*Index) partialer) {
	r := rng.New(77)
	m := topics.GenerateRandom(r, 10, 5, 3)
	posteriors := siblingPosteriors(m, []topics.TagID{2}, 6)
	if len(posteriors) == 0 {
		t.Fatal("no defined sibling posteriors")
	}
	var servers []*ShardedEstimator
	var shards []partialer
	var ids, users []int
	for _, held := range fleet {
		servers = append(servers, sharded(held))
		for i, sh := range held.shards {
			shards = append(shards, single(sh))
			ids, users = append(ids, held.ids[i]), append(users, held.users[i])
		}
	}

	for u := 0; u < g.NumVertices(); u += 23 {
		v := graph.VertexID(u)
		want := inproc.EstimateFrontier(v, posteriors, sampling.StopRule{})

		var parts [][]Partial
		for _, se := range servers {
			parts = append(parts, se.Partials(v, posteriors)...)
		}
		got := GatherFrontierPartials(parts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("u=%d sibling %d: gathered %+v != in-process %+v", u, i, got[i], want[i])
			}
			// Row-for-row agreement with the classic single-candidate wire
			// path.
			rows := make([]Partial, len(shards))
			for j, sh := range shards {
				rows[j] = sh.Partial(ids[j], users[j], v, sampling.PosteriorProber{G: g, Posterior: posteriors[i]})
			}
			if seq := GatherPartials(rows); seq != want[i] {
				t.Fatalf("u=%d sibling %d: classic gather %+v != in-process %+v", u, i, seq, want[i])
			}
		}
	}
}

// zeroEdgeProber gives edge zero probability 0 and every other edge its
// maximum.
type zeroEdgeProber struct {
	g    *graph.Graph
	zero graph.EdgeID
}

func (p zeroEdgeProber) Prob(e graph.EdgeID) float64 {
	if e == p.zero {
		return 0
	}
	return p.g.EdgeMaxProb(e)
}

// TestInStarZeroDrawTie pins the one case where the two scan policies'
// threshold rules part: an in-star member whose draw is c = 0 on an edge
// with p(e|W) = 0. Def. 3's p(e|W) ≥ c makes it live, so the plain scan
// counts a hit; the pruned scan's cut filter admits only p(e|W) > 0, so it
// counts neither a sample nor a hit — each what the walked graph gave
// before in-stars became thresholds, and what the reference still gives.
func TestInStarZeroDrawTie(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	b.AddEdge(1, 0, []graph.TopicProb{{Topic: 0, Prob: 0.5}})
	b.AddEdge(2, 0, []graph.TopicProb{{Topic: 0, Prob: 0.5}})
	g := b.MustBuild()
	idx, err := Build(g, shardOpts(3, 400))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st, u := idx.graphs, graph.VertexID(1)
	w := idx.stars(u)
	if len(w) < 2 {
		t.Fatalf("user 1 is a member of %d in-stars, want several", len(w))
	}
	st.starC[w[0]] = 0 // sorted by (edge, c): still first
	prober := zeroEdgeProber{g: g, zero: st.starEdge[w[0]]}
	plain := NewEstimator(idx).Partial(0, 3, u, prober)
	pruned := NewPrunedEstimator(idx).Partial(0, 3, u, prober)
	direct := int64(idx.single[u])
	if plain.Hits != direct+1 || plain.Samples != int64(idx.NumContaining(u)) {
		t.Errorf("plain row %+v, want %d hits (the tie and %d direct) of %d samples", plain, direct+1, direct, idx.NumContaining(u))
	}
	if pruned.Hits != direct || pruned.Samples != direct {
		t.Errorf("pruned row %+v, want %d hits of %d samples: the tie is never admitted", pruned, direct, direct)
	}
	if ref := refRow(NewEstimator(idx), 0, 3, u, prober); plain != ref {
		t.Errorf("plain row %+v, reference %+v", plain, ref)
	}
	if ref := refRow(NewPrunedEstimator(idx), 0, 3, u, prober); pruned != ref {
		t.Errorf("pruned row %+v, reference %+v", pruned, ref)
	}
}
