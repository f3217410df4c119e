package bestfirst

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// TestHeapPruneKeepsPopOrder: once the round heap's top is cut, the round
// loop drops every cut entry in one pass and re-heapifies instead of
// popping them one by one. Over random rounds — entries with many exactly
// tied bounds, a threshold and an m-th best tag set that move between
// rounds — both must pop the same entries in the same order and count the
// same PrunedByBound.
func TestHeapPruneKeepsPopOrder(t *testing.T) {
	const T, k = 9, 3
	ex := &Explorer{freeAbove: make([]int, T+1)}
	ex.markFree(nil)
	r := rng.New(29)
	for trial := 0; trial < 200; trial++ {
		s := &search{ex: ex, k: k, m: 1}
		ref, got := &maxHeap{byTags: true}, &maxHeap{byTags: true}
		var refPops, gotPops [][]topics.TagID
		var refPruned, gotPruned int
		cut := func(e *heapEntry) bool { return s.cut(e.tags, e.lastAdded, e.bound) }
		seen := map[string]bool{}
		thr := 0.0
		for round := 0; round < 6; round++ {
			for n := r.Intn(12); n > 0; n-- {
				tags := randomPartial(r, T, k)
				if seen[fmt.Sprint(tags)] {
					continue
				}
				seen[fmt.Sprint(tags)] = true
				e := heapEntry{tags: tags, lastAdded: tags[len(tags)-1], bound: float64(1 + r.Intn(4))}
				ref.push(e)
				got.push(e)
			}
			// The m-th best rises between rounds, often onto a bound some
			// entries carry exactly, so the tag tie-break decides.
			if round > 0 {
				thr += float64(r.Intn(2))
				s.best = []Scored{{Tags: randomAscending(r, T, k), Influence: thr}}
			}
			width := 1 + r.Intn(3)
			for expanded := 0; len(ref.s) > 0; {
				if cut(&ref.s[0]) {
					ref.pop()
					refPruned++
					continue
				}
				if expanded == width {
					break
				}
				refPops = append(refPops, ref.pop().tags)
				expanded++
			}
			for expanded := 0; len(got.s) > 0; {
				if cut(&got.s[0]) {
					gotPruned += got.prune(cut)
					continue
				}
				if expanded == width {
					break
				}
				gotPops = append(gotPops, got.pop().tags)
				expanded++
			}
		}
		if !reflect.DeepEqual(gotPops, refPops) || gotPruned != refPruned {
			t.Fatalf("trial %d: prune-then-heapify popped %v and pruned %d; pop-and-cut popped %v and pruned %d",
				trial, gotPops, gotPruned, refPops, refPruned)
		}
	}

	// Whatever the predicate, prune keeps exactly the survivors and leaves
	// a heap that pops them in order.
	h := &maxHeap{byTags: true}
	for i := 0; i < 300; i++ {
		h.push(heapEntry{tags: []topics.TagID{int32(i % 7), int32(7 + i%11)}, bound: float64(r.Intn(5))})
	}
	odd := func(e *heapEntry) bool { return e.tags[0]%2 == 1 }
	want := 0
	for _, e := range h.s {
		if !odd(&e) {
			want++
		}
	}
	if dropped := h.prune(odd); dropped != 300-want || len(h.s) != want {
		t.Fatalf("prune dropped %d, kept %d; want %d kept", dropped, len(h.s), want)
	}
	for prev := h.pop(); len(h.s) > 0; {
		next := h.pop()
		if odd(&next) || next.bound > prev.bound || (next.bound == prev.bound && slices.Compare(next.tags, prev.tags) < 0) {
			t.Fatalf("after prune %v popped after %v", next, prev)
		}
		prev = next
	}
}

// randomPartial draws a canonical partial set: 1..k-1 ascending tags below
// T, leaving room above the last for a completion.
func randomPartial(r *rng.Source, T, k int) []topics.TagID {
	n := 1 + r.Intn(k-1)
	for {
		tags := randomAscending(r, T, n)
		if int(tags[n-1]) <= T-1-(k-n) {
			return tags
		}
	}
}

func randomAscending(r *rng.Source, T, n int) []topics.TagID {
	var tags []topics.TagID
	for len(tags) < n {
		w := topics.TagID(r.Intn(T))
		if !slices.Contains(tags, w) {
			tags = append(tags, w)
		}
	}
	slices.Sort(tags)
	return tags
}

// rowCounter counts the rows the explorer stages.
type rowCounter struct {
	seqOnly
	rows int
}

func (c *rowCounter) EstimateFrontier(u graph.VertexID, rows [][]float64, stop sampling.StopRule) []sampling.Result {
	c.rows += len(rows)
	return c.est.(FrontierEstimator).EstimateFrontier(u, rows, stop)
}

// TestSupportFilterEdges pins the per-tag topic masks expand consults
// before a full child's PosteriorInto. Tags 0 and 2 share no topic, so
// {0,2} is recorded at exactly 1 and stages no row. Tags 4 and 5 share
// topic 0, but only through factors whose product underflows: the masks
// cannot tell, so the set goes through PosteriorInto, which finds it
// undefined. Tags 6 and 7 share topic 2 with factors small enough to stay
// representable: a defined set the explorer must estimate.
func TestSupportFilterEdges(t *testing.T) {
	g, err := graph.ErdosRenyi(rng.New(31), 80, 400, graph.TopicAssignment{NumTopics: 3, TopicsPerEdge: 2, MaxProb: 0.6})
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	m := topics.MustNewModel(8, 3)
	for _, e := range []struct {
		w topics.TagID
		z int32
		p float64
	}{
		{0, 0, 0.9}, {1, 0, 0.5}, {1, 1, 0.5}, {2, 1, 0.8}, {3, 2, 0.7},
		{4, 0, 1e-200}, {5, 0, 1e-200}, {6, 2, 1e-100}, {7, 2, 1e-100},
	} {
		m.SetTagTopic(e.w, e.z, e.p)
	}
	b := NewBounder(g, m, 2)
	for _, c := range []struct {
		parent, child topics.TagID
		disjoint      bool
	}{{0, 2, true}, {0, 1, false}, {4, 5, false}, {6, 7, false}, {3, 0, true}} {
		mask, ok := b.support([]topics.TagID{c.parent})
		if !ok || (mask&b.tagMask[c.child] == 0) != c.disjoint {
			t.Fatalf("{%d,%d}: support %b & tag mask %b, want disjoint %v", c.parent, c.child, mask, b.tagMask[c.child], c.disjoint)
		}
	}
	post := make([]float64, 3)
	if m.PosteriorInto([]topics.TagID{4, 5}, post) || !m.PosteriorInto([]topics.TagID{6, 7}, post) {
		t.Fatal("fixture: want {4,5} to underflow and {6,7} to stay defined")
	}

	idx, err := rrindex.BuildSharded(g, frontierBuildOptions(31), 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	spy := &rowCounter{seqOnly: seqOnly{rrindex.NewShardedPrunedEstimator(idx)}}
	ex := NewExplorer(g, m, spy)
	const all = 8 * 7 / 2 // m wide enough that nothing is cut
	for u := graph.VertexID(0); u < 80; u += 9 {
		spy.rows = 0
		res, err := ex.Run(context.Background(), u, 2, all, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		defined := 0
		for _, sc := range res.All {
			if m.PosteriorInto(sc.Tags, post) {
				defined++
			} else if sc.Influence != 1 {
				t.Fatalf("u=%d: undefined %v scored %v, want exactly 1", u, sc.Tags, sc.Influence)
			}
		}
		if len(res.All) != all || int64(defined) != res.Stats.FullSetsEstimated {
			t.Fatalf("u=%d: %d answers, %d estimated full sets for %d defined ones", u, len(res.All), res.Stats.FullSetsEstimated, defined)
		}
		if int64(spy.rows) != res.Stats.FullSetsEstimated+res.Stats.PartialBoundsEstimated {
			t.Fatalf("u=%d: %d rows staged for %d full sets and %d bounds", u, spy.rows, res.Stats.FullSetsEstimated, res.Stats.PartialBoundsEstimated)
		}
		if i := slices.IndexFunc(res.All, func(sc Scored) bool { return slices.Equal(sc.Tags, []topics.TagID{6, 7}) }); i < 0 {
			t.Fatalf("u=%d: the defined set {6,7} is missing", u)
		}
	}
}

// TestSupportFilterBypassedOver64Topics: a 65-topic model cannot pack its
// supports into a word, so the explorer skips the masks and calls
// PosteriorInto for every full child; its answers are still the head of
// the canonical oracle, undefined sets at influence 1 included.
func TestSupportFilterBypassedOver64Topics(t *testing.T) {
	r := rng.New(37)
	g, err := graph.ErdosRenyi(r, 90, 450, graph.TopicAssignment{NumTopics: 65, TopicsPerEdge: 3, MaxProb: 0.6})
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	m := topics.GenerateRandom(r, 9, 65, 2)
	if NewBounder(g, m, 2).tagMask != nil {
		t.Fatal("a 65-topic model got tag masks")
	}
	idx, err := rrindex.BuildSharded(g, frontierBuildOptions(37), 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	est := rrindex.NewShardedPrunedEstimator(idx)
	ex := NewExplorer(g, m, est)
	undefined := 0
	for u := graph.VertexID(0); u < 90; u += 11 {
		for _, k := range []int{2, 3} {
			oracle := frontierOracle(g, m, est, u, nil, k)
			for _, top := range []int{1, 3} {
				res, err := ex.Run(context.Background(), u, k, top, nil)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				// Fewer than m answers when the rest have no supported
				// completion, as under the masks.
				if len(res.All) == 0 || !reflect.DeepEqual(res.All, oracle[:len(res.All)]) {
					t.Fatalf("u=%d k=%d m=%d: got %v, canonical oracle head %v", u, k, top, res.All, oracle[:top])
				}
				for _, sc := range res.All {
					if !m.SupportsTagSet(sc.Tags) {
						undefined++
					}
				}
			}
		}
	}
	if undefined == 0 {
		t.Fatal("no answer held an undefined set: the full children the masks would catch were never checked")
	}
}
