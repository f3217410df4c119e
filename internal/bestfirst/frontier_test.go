package bestfirst

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"pitex/internal/enumerate"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// seqOnly hides an estimator's FrontierEstimator capability, forcing the
// explorer onto the one-call-per-full-set path and reach-count bounds.
type seqOnly struct{ est Estimator }

func (s seqOnly) EstimateProber(u graph.VertexID, prober sampling.EdgeProber) sampling.Result {
	return s.est.EstimateProber(u, prober)
}

// perRow keeps the frontier capability but answers it row by row through
// EstimateProber, each row as an Eq. 1 posterior prober — what a
// coordinator does for a remote that cannot batch.
type perRow struct {
	seqOnly
	g *graph.Graph
}

func (p perRow) EstimateFrontier(u graph.VertexID, rows [][]float64, _ sampling.StopRule) []sampling.Result {
	out := make([]sampling.Result, len(rows))
	for i, row := range rows {
		out[i] = p.est.EstimateProber(u, sampling.PosteriorProber{G: p.g, Posterior: row})
	}
	return out
}

// widthOne splits every frontier into frontiers of one.
type widthOne struct{ seqOnly }

func (w widthOne) EstimateFrontier(u graph.VertexID, rows [][]float64, stop sampling.StopRule) []sampling.Result {
	out := make([]sampling.Result, len(rows))
	for i := range rows {
		out[i] = w.est.(FrontierEstimator).EstimateFrontier(u, rows[i:i+1], stop)[0]
	}
	return out
}

func frontierBuildOptions(seed uint64) rrindex.BuildOptions {
	return rrindex.BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 3},
		MaxIndexSamples: 1500,
		Seed:            seed ^ 0xbeef,
	}
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
	idx, err := rrindex.BuildSharded(g, frontierBuildOptions(seed), 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	return g, m, idx
}

// contractModel is one tag model the exactness contracts run under.
// prunes says whether a valid bound is tight enough to prune anything on
// the fixture under this model.
type contractModel struct {
	name   string
	m      *topics.Model
	prunes bool
}

// contractModels pairs the fixture's sparse model — every tag misses some
// topic, so pzBound saturates at 1 wherever it is positive — with a dense
// one over the same tags and topics: every tag spreads unevenly over
// every topic, so bound rows take the finite AM-GM branch of
// Bounder.prepared. A bound that undercuts a completion (the prior
// entering once per tag instead of once per set did) only shows there:
// it prunes the optimum away. The valid AM-GM bound is too loose to prune
// at this density and size — the paper's Fig. 11/12 effect — so on the
// dense model the oracle match proves the bounds never undercut, not that
// they bite.
func contractModels(sparse *topics.Model, seed uint64) []contractModel {
	r := rng.New(seed ^ 0xde45e)
	Z := sparse.NumTopics()
	dense := topics.MustNewModel(sparse.NumTags(), Z)
	for w := 0; w < sparse.NumTags(); w++ {
		for z := 0; z < Z; z++ {
			dense.SetTagTopic(topics.TagID(w), int32(z), 0.1+r.Float64())
		}
	}
	return []contractModel{{"sparse", sparse, true}, {"dense", dense, false}}
}

// indexFamily is one frontier-capable estimator over the fixture graph.
type indexFamily struct {
	name string
	est  Estimator
}

// indexFamilies builds the three index estimator families over g at the
// given shard count.
func indexFamilies(t *testing.T, g *graph.Graph, seed uint64, shards int) []indexFamily {
	t.Helper()
	idx, err := rrindex.BuildSharded(g, frontierBuildOptions(seed), shards)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	dm, err := rrindex.BuildShardedDelayMat(g, frontierBuildOptions(seed), shards)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	fams := []indexFamily{
		{"INDEXEST", rrindex.NewShardedEstimator(idx)},
		{"INDEXEST+", rrindex.NewShardedPrunedEstimator(idx)},
		{"DELAYMAT", rrindex.NewShardedDelayEstimator(dm, rng.New(seed^0xd1a7))},
	}
	for _, f := range fams {
		if _, ok := f.est.(FrontierEstimator); !ok {
			t.Fatalf("%s: %T does not batch frontiers", f.name, f.est)
		}
	}
	return fams
}

// exhaustive scores every size-k tag set containing prefix with est —
// exactly as the explorer scores a popped full set — in descending
// influence order. It is the oracle an exact arg-max search must match.
func exhaustive(g *graph.Graph, m *topics.Model, est Estimator, u graph.VertexID, prefix []topics.TagID, k int) []Scored {
	var all []Scored
	post := make([]float64, m.NumTopics())
	enumerate.Combinations(m.NumTags(), k, func(idx []int32) bool {
		tags := make([]topics.TagID, k)
		copy(tags, idx)
		for _, w := range prefix {
			if !slices.Contains(tags, w) {
				return true
			}
		}
		inf := 1.0 // undefined posterior: influence is exactly 1
		if m.PosteriorInto(tags, post) {
			inf = est.EstimateProber(u, sampling.PosteriorProber{G: g, Posterior: post}).Influence
		}
		all = append(all, Scored{Tags: tags, Influence: inf})
		return true
	})
	sort.SliceStable(all, func(i, j int) bool { return all[i].Influence > all[j].Influence })
	return all
}

// checkTopAgainst asserts got is the head of oracle: influences always,
// tag sets wherever the oracle rank is untied. The online loop prunes
// ties by influence alone, so its set among exact ties is not part of the
// contract; the round loop's is, and TestAnswersFollowCanonicalOrder
// checks it.
func checkTopAgainst(t *testing.T, what string, got []Scored, oracle []Scored) {
	t.Helper()
	if len(got) > len(oracle) {
		t.Fatalf("%s: %d results from %d candidate sets", what, len(got), len(oracle))
	}
	for i, sc := range got {
		if sc.Influence != oracle[i].Influence {
			t.Fatalf("%s: rank %d influence %v (%v), oracle %v (%v)", what, i, sc.Influence, sc.Tags, oracle[i].Influence, oracle[i].Tags)
		}
		tied := (i > 0 && oracle[i-1].Influence == sc.Influence) ||
			(i+1 < len(oracle) && oracle[i+1].Influence == sc.Influence)
		if !tied && !slices.Equal(sc.Tags, oracle[i].Tags) {
			t.Fatalf("%s: rank %d tags %v, oracle's untied %v", what, i, sc.Tags, oracle[i].Tags)
		}
	}
}

// TestExplorerFrontierBatchingIdentical is the explorer-level equivalence
// contract, in two halves.
//
// Rows ≡ per-sibling EstimateProber: with stopping disarmed, answering
// every frontier — posterior rows and bound rows alike — row by row
// through EstimateProber, or as frontiers of one, must reproduce the
// batched run exactly: tags, influences, alternatives, work stats.
//
// Against an estimator with the capability hidden (seqOnly) the explorer
// legitimately bounds differently — frontier rows on one side, reach
// counts on the other — so Stats and the pop order among exact ties
// differ. Both are exact arg-max searches over the same estimates, so
// influences must still agree always and tag sets wherever the rank is
// untied. (Before bounds rode the frontier this test
// demanded identical Stats between the two; that equality was a property
// of the shared bound path, not of the answer.)
func TestExplorerFrontierBatchingIdentical(t *testing.T) {
	g, m, _ := frontierFixture(t, 17)
	prefix := []topics.TagID{1}
	for _, fam := range indexFamilies(t, g, 17, 1)[:2] {
		t.Run(fam.name, func(t *testing.T) {
			batched := NewExplorer(g, m, fam.est)
			rowwise := NewExplorer(g, m, perRow{seqOnly{fam.est}, g})
			single := NewExplorer(g, m, widthOne{seqOnly{fam.est}})
			sequential := NewExplorer(g, m, seqOnly{fam.est})
			for u := 0; u < g.NumVertices(); u += 29 {
				u := graph.VertexID(u)
				got, err := batched.Run(context.Background(), u, 3, 2, nil)
				if err != nil {
					t.Fatalf("batched Run: %v", err)
				}
				pg, err := batched.Run(context.Background(), u, 3, 1, prefix)
				if err != nil {
					t.Fatalf("batched prefixed Run: %v", err)
				}
				for name, ex := range map[string]*Explorer{"row by row": rowwise, "width one": single} {
					want, err := ex.Run(context.Background(), u, 3, 2, nil)
					if err != nil {
						t.Fatalf("%s Run: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("u=%d: batched %+v != %s %+v", u, got, name, want)
					}
					pw, err := ex.Run(context.Background(), u, 3, 1, prefix)
					if err != nil {
						t.Fatalf("%s prefixed Run: %v", name, err)
					}
					if !reflect.DeepEqual(pg, pw) {
						t.Fatalf("u=%d prefix: batched %+v != %s %+v", u, pg, name, pw)
					}
				}
				if got.Stats.PartialBoundsEstimated == 0 || got.Stats.BoundCacheHits != 0 {
					t.Fatalf("u=%d: frontier run bounded %d rows with %d memo hits; want rows only",
						u, got.Stats.PartialBoundsEstimated, got.Stats.BoundCacheHits)
				}
				oracle := exhaustive(g, m, fam.est, u, nil, 3)
				prefixOracle := exhaustive(g, m, fam.est, u, prefix, 3)
				want, err := sequential.Run(context.Background(), u, 3, 2, nil)
				if err != nil {
					t.Fatalf("sequential Run: %v", err)
				}
				if want.Stats.PartialBoundsEstimated != 0 {
					t.Fatalf("u=%d: sequential run sampled %d bounds", u, want.Stats.PartialBoundsEstimated)
				}
				checkTopAgainst(t, fmt.Sprintf("u=%d sequential", u), want.All, oracle)
				checkTopAgainst(t, fmt.Sprintf("u=%d batched", u), got.All, oracle)
				pw, err := sequential.Run(context.Background(), u, 3, 1, prefix)
				if err != nil {
					t.Fatalf("sequential prefixed Run: %v", err)
				}
				checkTopAgainst(t, fmt.Sprintf("u=%d sequential prefix", u), pw.All, prefixOracle)
				checkTopAgainst(t, fmt.Sprintf("u=%d batched prefix", u), pg.All, prefixOracle)
			}
		})
	}
}

// TestRowBoundDominatesCompletions is the contract that keeps the search
// exact: on an index, the row bound of a partial set W — its Lemma 8
// completion weights estimated as one EstimateFrontier row, stopping
// disarmed — is at least the estimate of every size-k completion W' with
// a defined posterior. Not statistically: deterministically, because
// both are counted over the same RR-Graphs and draws c(e) and the row's
// live edges are a superset. It also dominates the min(max, sum) Prober
// bound it relaxes, and equals the same row sent through EstimateProber.
func TestRowBoundDominatesCompletions(t *testing.T) {
	g, sparse, _ := frontierFixture(t, 53)
	T := sparse.NumTags()
	post := make([]float64, sparse.NumTopics())
	for _, cm := range contractModels(sparse, 53) {
		m := cm.m
		for _, shards := range []int{1, 3} {
			for _, fam := range indexFamilies(t, g, 53, shards) {
				t.Run(fmt.Sprintf("%s/S%d/%s", fam.name, shards, cm.name), func(t *testing.T) {
					fest := fam.est.(FrontierEstimator)
					r := rng.New(uint64(shards) * 977)
					var checked, strict int
					var u graph.VertexID
					for trial := 0; trial < 30; trial++ {
						if trial%10 == 0 { // DELAYMAT recovers afresh for every new user
							u = graph.VertexID(r.Intn(g.NumVertices()))
						}
						k := 2 + r.Intn(2)
						perm := r.Perm(T)
						partial := make([]topics.TagID, 1+r.Intn(k-1))
						for i := range partial {
							partial[i] = topics.TagID(perm[i])
						}
						prober, ok := NewBounder(g, m, k).Prepare(partial)
						if !ok {
							continue
						}
						row := slices.Clone(prober.Weights())
						res := fest.EstimateFrontier(u, [][]float64{row}, sampling.StopRule{})[0]
						if one := fam.est.EstimateProber(u, sampling.PosteriorProber{G: g, Posterior: row}); one != res {
							t.Fatalf("W=%v u=%d: frontier row %+v != per-row EstimateProber %+v", partial, u, res, one)
						}
						if lemma := fam.est.EstimateProber(u, prober).Influence; res.Influence < lemma {
							t.Fatalf("W=%v u=%d: row bound %v below the Lemma 8 prober bound %v", partial, u, res.Influence, lemma)
						}
						enumerate.Combinations(T, k, func(idx []int32) bool {
							full := make([]topics.TagID, k)
							copy(full, idx)
							for _, w := range partial {
								if !slices.Contains(full, w) {
									return true
								}
							}
							if !m.PosteriorInto(full, post) {
								return true
							}
							inf := fam.est.EstimateProber(u, sampling.PosteriorProber{G: g, Posterior: post}).Influence
							if inf > res.Influence {
								t.Fatalf("W=%v u=%d k=%d: completion %v estimates %v above its row bound %v",
									partial, u, k, full, inf, res.Influence)
							}
							checked++
							if inf < res.Influence {
								strict++
							}
							return true
						})
					}
					if checked == 0 || strict == 0 {
						t.Fatalf("checked %d completions, %d strictly below their bound; fixture too degenerate", checked, strict)
					}
				})
			}
		}
	}
}

// TestQueryTopMatchesEstimatorOracle: with stopping disarmed the explorer
// is an exact arg-max over its estimator's scores, so a top-m Run's
// influences — all m of them — and a prefixed Run's must equal an
// exhaustive enumeration of every size-k set scored by the same estimator. Tag sets
// are compared only where the optimum is untied.
func TestQueryTopMatchesEstimatorOracle(t *testing.T) {
	g, sparse, _ := frontierFixture(t, 61)
	prefix := []topics.TagID{5}
	for _, cm := range contractModels(sparse, 61) {
		m := cm.m
		for _, shards := range []int{1, 3} {
			for _, fam := range indexFamilies(t, g, 61, shards) {
				t.Run(fmt.Sprintf("%s/S%d/%s", fam.name, shards, cm.name), func(t *testing.T) {
					ex := NewExplorer(g, m, fam.est)
					var pruned int64
					for u := 0; u < g.NumVertices(); u += 31 {
						u := graph.VertexID(u)
						for _, k := range []int{2, 3} {
							res, err := ex.Run(context.Background(), u, k, 3, nil)
							if err != nil {
								t.Fatalf("Run: %v", err)
							}
							pruned += res.Stats.PrunedByBound
							checkTopAgainst(t, fmt.Sprintf("u=%d k=%d", u, k), res.All, exhaustive(g, m, fam.est, u, nil, k))
							cres, err := ex.Run(context.Background(), u, k, 1, prefix)
							if err != nil {
								t.Fatalf("prefixed Run: %v", err)
							}
							checkTopAgainst(t, fmt.Sprintf("u=%d k=%d prefix", u, k), cres.All, exhaustive(g, m, fam.est, u, prefix, k))
						}
					}
					if cm.prunes && pruned == 0 {
						t.Fatal("no branch was ever pruned: the oracle match proves nothing about the bounds")
					}
				})
			}
		}
	}
}

// TestBounderTablesCachedAcrossQueries: the explorer builds the Lemma 8
// tables once and retargets them at each query's k; a retargeted Bounder
// must be indistinguishable from a freshly built one — same tables, same
// Prepare and PreparePosterior outputs bit for bit.
func TestBounderTablesCachedAcrossQueries(t *testing.T) {
	g, m, idx := frontierFixture(t, 67)
	cached := NewBounder(g, m, 2)
	post := make([]float64, m.NumTopics())
	for _, k := range []int{3, 2, 4} {
		fresh := NewBounder(g, m, k)
		cached.forK(k)
		if !reflect.DeepEqual(cached.logF, fresh.logF) || !reflect.DeepEqual(cached.order, fresh.order) {
			t.Fatalf("k=%d: cached tables differ from a fresh build", k)
		}
		for a := 0; a < m.NumTags(); a++ {
			for b := a; b < m.NumTags(); b++ {
				w := []topics.TagID{topics.TagID(a)}
				if b > a && k > 2 {
					w = append(w, topics.TagID(b))
				}
				_, okC := cached.Prepare(w)
				_, okF := fresh.Prepare(w)
				if okC != okF || (okC && (!reflect.DeepEqual(cached.pzBound, fresh.pzBound) || !reflect.DeepEqual(cached.supported, fresh.supported))) {
					t.Fatalf("k=%d W=%v: cached Prepare (%v %v) != fresh (%v %v)", k, w, okC, cached.pzBound, okF, fresh.pzBound)
				}
				if !m.PosteriorInto(w, post) {
					continue
				}
				_, okC = cached.PreparePosterior(w, post)
				if okC != okF || (okC && !reflect.DeepEqual(cached.pzBound, fresh.pzBound)) {
					t.Fatalf("k=%d W=%v: cached PreparePosterior (%v %v) != fresh Prepare (%v %v)", k, w, okC, cached.pzBound, okF, fresh.pzBound)
				}
			}
		}
	}
	ex := NewExplorer(g, m, rrindex.NewShardedEstimator(idx))
	if _, err := ex.Run(context.Background(), 0, 2, 1, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	first := ex.bounder
	if _, err := ex.Run(context.Background(), 1, 3, 1, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first == nil || ex.bounder != first {
		t.Fatal("explorer rebuilt its Bounder between queries")
	}
}

// rowSpy tallies the rows the explorer hands its frontier estimator.
type rowSpy struct {
	seqOnly
	rows int64
}

func (s *rowSpy) EstimateFrontier(u graph.VertexID, rows [][]float64, stop sampling.StopRule) []sampling.Result {
	s.rows += int64(len(rows))
	return s.est.(FrontierEstimator).EstimateFrontier(u, rows, stop)
}

// TestBoundRowsNeverStopped: every row a frontier estimator is handed is
// a full set or a bound, each estimated over all of the user's graphs —
// nothing is stopped early, so a bound always dominates the completions
// it covers.
func TestBoundRowsNeverStopped(t *testing.T) {
	g, m, idx := frontierFixture(t, 71)
	spy := &rowSpy{seqOnly: seqOnly{rrindex.NewShardedPrunedEstimator(idx)}}
	ex := NewExplorer(g, m, spy)
	var full, bounds int64
	for u := 0; u < g.NumVertices(); u += 11 {
		res, err := ex.Run(context.Background(), graph.VertexID(u), 3, 2, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		pres, err := ex.Run(context.Background(), graph.VertexID(u), 3, 1, []topics.TagID{2})
		if err != nil {
			t.Fatalf("prefixed Run: %v", err)
		}
		full += res.Stats.FullSetsEstimated + pres.Stats.FullSetsEstimated
		bounds += res.Stats.PartialBoundsEstimated + pres.Stats.PartialBoundsEstimated
	}
	if bounds == 0 || spy.rows != full+bounds {
		t.Fatalf("%d bound rows + %d full sets, but %d rows crossed", bounds, full, spy.rows)
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

// TestBoundMemoHits checks the memo plumbing: an online query over
// sibling-heavy frontiers must answer most bound evaluations from the
// live-topic-mask memo, and the memo must reset between queries (masks
// are only comparable within one query user). The memo only runs under
// estimators without the frontier capability — a frontier estimator's
// bounds are rows, never masks — so the index estimator is driven through
// seqOnly (before bounds rode the frontier it was handed over bare).
func TestBoundMemoHits(t *testing.T) {
	g, m, idx := frontierFixture(t, 31)
	ex := NewExplorer(g, m, seqOnly{rrindex.NewShardedEstimator(idx)})
	res, err := ex.Run(context.Background(), graph.MaxOutDegreeVertex(g), 3, 1, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.BoundCacheHits == 0 {
		t.Fatal("online query recorded zero bound-memo hits")
	}
	if len(ex.boundMemo) == 0 {
		t.Fatal("bound memo empty after an online query")
	}
	if _, err := ex.Run(context.Background(), 0, 2, 1, nil); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	// The second query must not have reused the first user's reach counts:
	// query the first user again and confirm identical results to the first
	// run (memo correctness across per-query resets).
	res2, err := ex.Run(context.Background(), graph.MaxOutDegreeVertex(g), 3, 1, nil)
	if err != nil {
		t.Fatalf("third Run: %v", err)
	}
	if !reflect.DeepEqual(res.Tags, res2.Tags) || res.Influence != res2.Influence {
		t.Fatalf("repeat query diverged: %v/%v vs %v/%v", res.Tags, res.Influence, res2.Tags, res2.Influence)
	}
}

// TestQueryTopCtxMatchesRun: a top-m Run under a live context that
// can still be cancelled must answer what it answers under
// context.Background.
func TestQueryTopCtxMatchesQueryTop(t *testing.T) {
	g, m, idx := frontierFixture(t, 43)
	ex := NewExplorer(g, m, rrindex.NewShardedEstimator(idx))
	want, err := ex.Run(context.Background(), 3, 3, 2, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := ex.Run(ctx, 3, 3, 2, nil)
	if err != nil {
		t.Fatalf("Run under a live context: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live context %+v != background %+v", got, want)
	}
}

// TestProberSpec: the prepared bound state is per-topic and its
// positivity agrees — a positive weight implies a supported topic, and
// LiveTopics is exactly the positive-weight bits.
func TestProberSpec(t *testing.T) {
	g, m, _ := frontierFixture(t, 47)
	b := NewBounder(g, m, 3)
	prober, ok := b.Prepare([]topics.TagID{0})
	if !ok {
		t.Fatal("tag {0} unsupported in fixture")
	}
	supported, weights := b.supported, prober.Weights()
	if len(supported) != m.NumTopics() || len(weights) != m.NumTopics() {
		t.Fatalf("support/weight lengths %d/%d, want %d", len(supported), len(weights), m.NumTopics())
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

// canonical sorts scored sets into the canonical answer order: influence
// descending, then sorted tag IDs ascending.
func canonical(all []Scored) []Scored {
	slices.SortFunc(all, func(a, b Scored) int {
		if a.Influence != b.Influence {
			if a.Influence > b.Influence {
				return -1
			}
			return 1
		}
		return slices.Compare(a.Tags, b.Tags)
	})
	return all
}

// frontierOracle is exhaustive scored in one EstimateFrontier call — the
// same scores (with stopping disarmed a frontier row equals its
// EstimateProber estimate), sorted into canonical order, at a fraction of
// the cost.
func frontierOracle(g *graph.Graph, m *topics.Model, est FrontierEstimator, u graph.VertexID, prefix []topics.TagID, k int) []Scored {
	var all []Scored
	var rows [][]float64
	var idx []int
	enumerate.Combinations(m.NumTags(), k, func(c []int32) bool {
		tags := make([]topics.TagID, k)
		copy(tags, c)
		for _, w := range prefix {
			if !slices.Contains(tags, w) {
				return true
			}
		}
		post := make([]float64, m.NumTopics())
		all = append(all, Scored{Tags: tags, Influence: 1}) // undefined posterior: exactly 1
		if m.PosteriorInto(tags, post) {
			rows = append(rows, post)
			idx = append(idx, len(all)-1)
		}
		return true
	})
	for i, r := range est.EstimateFrontier(u, rows, sampling.StopRule{}) {
		all[idx[i]].Influence = r.Influence
	}
	return canonical(all)
}

// TestAnswersFollowCanonicalOrder: under a frontier estimator the answer
// order is part of the contract. A top-m Run's m sets and a prefixed
// Run's set are exactly the head of every candidate set sorted
// canonically — tags included at exact ties — so the answer depends
// neither on pop order nor on how many expansions a round carries: a
// coordinator's wide rounds and an in-process engine's one-expansion
// rounds return the same sets.
func TestAnswersFollowCanonicalOrder(t *testing.T) {
	g, sparse, _ := frontierFixture(t, 61)
	prefix := []topics.TagID{5}
	var queries, tied int
	check := func(t *testing.T, what string, got, oracle []Scored) {
		t.Helper()
		queries++
		if len(oracle) > 1 && oracle[0].Influence == oracle[1].Influence {
			tied++
		}
		if want := oracle[:min(len(got), len(oracle))]; len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %v, canonical oracle head %v", what, got, oracle[:min(len(oracle), 3)])
		}
	}
	for _, cm := range contractModels(sparse, 61) {
		m := cm.m
		for _, shards := range []int{1, 3} {
			for _, fam := range indexFamilies(t, g, 61, shards) {
				t.Run(fmt.Sprintf("%s/S%d/%s", fam.name, shards, cm.name), func(t *testing.T) {
					ex := NewExplorer(g, m, fam.est)
					fest := fam.est.(FrontierEstimator)
					for u := 0; u < g.NumVertices(); u += 12 {
						u := graph.VertexID(u)
						for _, k := range []int{2, 3} {
							oracle := frontierOracle(g, m, fest, u, nil, k)
							for _, top := range []int{1, 2} {
								res, err := ex.Run(context.Background(), u, k, top, nil)
								if err != nil {
									t.Fatalf("Run: %v", err)
								}
								if len(res.All) != top {
									t.Fatalf("u=%d k=%d m=%d: %d answers", u, k, top, len(res.All))
								}
								check(t, fmt.Sprintf("u=%d k=%d m=%d", u, k, top), res.All, oracle)
							}
							res, err := ex.Run(context.Background(), u, k, 1, prefix)
							if err != nil {
								t.Fatalf("prefixed Run: %v", err)
							}
							check(t, fmt.Sprintf("u=%d k=%d prefix", u, k), res.All, frontierOracle(g, m, fest, u, prefix, k))
						}
					}
				})
			}
		}
	}
	if tied == 0 {
		t.Fatalf("none of %d queries had a tied top: the tag order was never tested", queries)
	}
	t.Logf("%d queries, %d with a tied top", queries, tied)
}

// roundSpy asks the explorer for rounds of rows rows and records the
// width of every EstimateFrontier call.
type roundSpy struct {
	seqOnly
	rows  int
	calls []int
}

func (r *roundSpy) RoundRows() int { return r.rows }

func (r *roundSpy) EstimateFrontier(u graph.VertexID, rows [][]float64, stop sampling.StopRule) []sampling.Result {
	r.calls = append(r.calls, len(rows))
	return r.est.(FrontierEstimator).EstimateFrontier(u, rows, stop)
}

// TestRoundInvariants pins what round width may and may not change.
// 64-row rounds answer exactly as one-expansion rounds; a round is at most
// 64 rows unless its first expansion alone is wider; there are never more
// rounds than expansions; and a round's first expansion stages no child
// too high in the tag order to complete.
func TestRoundInvariants(t *testing.T) {
	g, sparse, _ := frontierFixture(t, 73)
	T := sparse.NumTags()
	prefix := []topics.TagID{2}
	for _, cm := range contractModels(sparse, 73) {
		for _, fam := range indexFamilies(t, g, 73, 3)[:2] {
			t.Run(fam.name+"/"+cm.name, func(t *testing.T) {
				narrow := NewExplorer(g, cm.m, fam.est)
				spy := &roundSpy{seqOnly: seqOnly{fam.est}, rows: 64}
				wide := NewExplorer(g, cm.m, spy)
				multi := false
				for u := 0; u < g.NumVertices(); u += 17 {
					u := graph.VertexID(u)
					for _, km := range [][2]int{{2, 1}, {3, 2}, {4, 1}} {
						k, m := km[0], km[1]
						want, err := narrow.Run(context.Background(), u, k, m, nil)
						if err != nil {
							t.Fatalf("narrow Run: %v", err)
						}
						spy.calls = spy.calls[:0]
						got, err := wide.Run(context.Background(), u, k, m, nil)
						if err != nil {
							t.Fatalf("wide Run: %v", err)
						}
						if !reflect.DeepEqual(got.All, want.All) {
							t.Fatalf("u=%d k=%d m=%d: 64-row rounds answered %v, one-expansion rounds %v", u, k, m, got.All, want.All)
						}
						if int64(len(spy.calls)) > got.Stats.FrontierExpansions {
							t.Fatalf("u=%d k=%d: %d rounds for %d expansions", u, k, len(spy.calls), got.Stats.FrontierExpansions)
						}
						// The root is its round's only entry; its children
						// above tag T-k cannot complete and stage no row.
						if len(spy.calls) == 0 || spy.calls[0] != T-k+1 || got.Stats.PrunedUnsupported < int64(k-1) {
							t.Fatalf("u=%d k=%d: root round of %v rows, %d pruned unsupported; want %d rows",
								u, k, spy.calls, got.Stats.PrunedUnsupported, T-k+1)
						}
						for _, n := range spy.calls {
							if n > 64 {
								t.Fatalf("u=%d k=%d: a %d-row round over %d tags", u, k, n, T)
							}
							multi = multi || n > T
						}
					}
					want, err := narrow.Run(context.Background(), u, 3, 1, prefix)
					if err != nil {
						t.Fatalf("narrow prefixed Run: %v", err)
					}
					got, err := wide.Run(context.Background(), u, 3, 1, prefix)
					if err != nil {
						t.Fatalf("wide prefixed Run: %v", err)
					}
					if !reflect.DeepEqual(got.All, want.All) {
						t.Fatalf("u=%d prefix: 64-row rounds answered %v, one-expansion rounds %v", u, got.All, want.All)
					}
				}
				if !multi {
					t.Fatal("no round carried more than one expansion's rows")
				}
			})
		}
	}

	// Over 80 tags the root's expansion alone is wider than a frame: it is
	// one round all the same, and later rounds fill up to 64 rows.
	wideModel := topics.GenerateRandom(rng.New(73), 80, sparse.NumTopics(), 2)
	idx, err := rrindex.BuildSharded(g, frontierBuildOptions(73), 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	spy := &roundSpy{seqOnly: seqOnly{rrindex.NewShardedPrunedEstimator(idx)}, rows: 64}
	res, err := NewExplorer(g, wideModel, spy).Run(context.Background(), graph.MaxOutDegreeVertex(g), 2, 1, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(spy.calls) < 2 || spy.calls[0] != 79 || int64(len(spy.calls)) > res.Stats.FrontierExpansions {
		t.Fatalf("80 tags, k=2: rounds %v for %d expansions; want a 79-row root round first", spy.calls, res.Stats.FrontierExpansions)
	}
}
