package pitex

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fig2Network rebuilds the paper's Fig. 2 running example through the
// public API.
func fig2Network(t *testing.T) (*Network, *TagModel) {
	t.Helper()
	nb := NewNetworkBuilder(7, 3)
	nb.AddEdge(0, 1, TopicProb{Topic: 0, Prob: 0.4})
	nb.AddEdge(0, 2, TopicProb{Topic: 1, Prob: 0.5}, TopicProb{Topic: 2, Prob: 0.5})
	nb.AddEdge(2, 5, TopicProb{Topic: 0, Prob: 0.5})
	nb.AddEdge(2, 3, TopicProb{Topic: 2, Prob: 0.8})
	nb.AddEdge(3, 5, TopicProb{Topic: 2, Prob: 0.5})
	nb.AddEdge(3, 6, TopicProb{Topic: 2, Prob: 0.4})
	nb.AddEdge(5, 6, TopicProb{Topic: 2, Prob: 0.5})
	net, err := nb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	model, err := NewTagModel(4, 3)
	if err != nil {
		t.Fatalf("NewTagModel: %v", err)
	}
	rows := [][3]float64{{0.6, 0.4, 0}, {0.4, 0.6, 0}, {0, 0.4, 0.6}, {0, 0.4, 0.6}}
	for w, row := range rows {
		for z, p := range row {
			if err := model.SetTagTopic(w, z, p); err != nil {
				t.Fatalf("SetTagTopic: %v", err)
			}
		}
	}
	for w, name := range []string{"w1", "w2", "w3", "w4"} {
		model.SetTagName(w, name)
	}
	return net, model
}

func testEngineOptions(s Strategy) Options {
	return Options{
		Strategy:        s,
		Epsilon:         0.15,
		Delta:           200,
		MaxK:            4,
		Seed:            11,
		MaxSamples:      20000,
		MaxIndexSamples: 20000,
	}
}

func TestAllStrategiesFindFig2Optimum(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{
		StrategyLazy, StrategyMC, StrategyRR, StrategyTIM,
		StrategyIndex, StrategyIndexPruned, StrategyDelay,
	} {
		en, err := NewEngine(net, model, testEngineOptions(s))
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		res, err := en.Query(0, 2)
		if err != nil {
			t.Fatalf("%v: Query: %v", s, err)
		}
		if len(res.Tags) != 2 || res.Tags[0] != 2 || res.Tags[1] != 3 {
			t.Errorf("%v: W* = %v (%v), want [2 3]", s, res.Tags, res.TagNames)
			continue
		}
		if res.TagNames[0] != "w3" || res.TagNames[1] != "w4" {
			t.Errorf("%v: names = %v", s, res.TagNames)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%v: non-positive elapsed", s)
		}
		// Online strategies bound partial sets by reach counts, never by
		// a sampled estimate.
		if !s.NeedsIndex() && res.Explain.PartialBoundsEstimated != 0 {
			t.Errorf("%v: sampled %d partial bounds", s, res.Explain.PartialBoundsEstimated)
		}
	}
}

func TestEstimateInfluenceMatchesPaperNumber(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	got, err := en.EstimateInfluence(0, []int{0, 1})
	if err != nil {
		t.Fatalf("EstimateInfluence: %v", err)
	}
	if math.Abs(got-1.5125) > 0.15 {
		t.Fatalf("E[I(u1|{w1,w2})] = %v, want ≈1.5125", got)
	}
}

// TestEngineConstructorsRejectBadInputs runs every bad input through all
// three engine constructors, which share one validator.
func TestEngineConstructorsRejectBadInputs(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndexPruned)
	remote := newFakeRemote(t, net, model, opts, 1)
	otherTopics, err := NewTagModel(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	invalid, err := NewTagModel(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	invalid.m.SetTagTopic(0, 0, 1.5)
	badOpts := opts
	badOpts.Epsilon = 2

	constructors := []struct {
		name string
		new  func(*Network, *TagModel, Options) (*Engine, error)
	}{
		{"NewEngine", NewEngine},
		{"NewEngineWithIndex", func(n *Network, m *TagModel, o Options) (*Engine, error) {
			return NewEngineWithIndex(n, m, o, bytes.NewReader(nil))
		}},
		{"NewRemoteEngine", func(n *Network, m *TagModel, o Options) (*Engine, error) {
			return NewRemoteEngine(n, m, o, remote)
		}},
	}
	cases := []struct {
		name  string
		net   *Network
		model *TagModel
		opts  Options
		want  string
	}{
		{"nil network", nil, model, opts, "nil network or model"},
		{"nil model", net, nil, opts, "nil network or model"},
		{"topic-count mismatch", net, otherTopics, opts, "network has 3 topics, model has 9"},
		{"invalid model", net, invalid, opts, "out of [0,1]"},
		{"invalid options", net, model, badOpts, "Epsilon"},
	}
	for _, c := range constructors {
		for _, tc := range cases {
			if _, err := c.new(tc.net, tc.model, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: err = %v, want one containing %q", c.name, tc.name, err, tc.want)
			}
		}
	}
}

func TestEngineValidation(t *testing.T) {
	net, model := fig2Network(t)
	if _, err := NewEngine(nil, model, Options{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewEngine(net, nil, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewEngine(net, model, Options{Epsilon: 2}); err == nil {
		t.Fatal("bad epsilon accepted")
	}
	other, _ := NewTagModel(4, 9)
	if _, err := NewEngine(net, other, Options{}); err == nil {
		t.Fatal("topic-count mismatch accepted")
	}
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := en.Query(-1, 2); err == nil {
		t.Fatal("negative user accepted")
	}
	if _, err := en.Query(99, 2); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if _, err := en.Query(0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := en.Query(0, 99); err == nil {
		t.Fatal("k>|Ω| accepted")
	}
	opts := testEngineOptions(StrategyLazy)
	opts.MaxK = 1
	en2, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := en2.Query(0, 3); err == nil {
		t.Fatal("k>MaxK accepted")
	}
	// A tag list is a set: a repeat is refused, not scored as a multiset.
	for _, tags := range [][]int{{99}, {3, 3}, {1, 3, 1}} {
		if _, err := en.EstimateInfluence(0, tags); err == nil {
			t.Fatalf("bad tag set %v accepted", tags)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	bad := []Options{
		{Epsilon: -1},
		{Delta: 0.5},
		{MaxK: -2},
		{Strategy: Strategy(42)},
		{MaxSamples: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		StrategyLazy: "LAZY", StrategyMC: "MC", StrategyRR: "RR",
		StrategyTIM: "TIM", StrategyIndex: "INDEXEST",
		StrategyIndexPruned: "INDEXEST+", StrategyDelay: "DELAYMAT",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if !StrategyIndex.NeedsIndex() || StrategyLazy.NeedsIndex() {
		t.Fatal("NeedsIndex wrong")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"lazy": StrategyLazy, "LAZY": StrategyLazy,
		"mc": StrategyMC, "rr": StrategyRR, "tim": StrategyTIM,
		"indexest": StrategyIndex, "index": StrategyIndex,
		"indexest+": StrategyIndexPruned, "index+": StrategyIndexPruned,
		"delaymat": StrategyDelay, "delay": StrategyDelay,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	// Every strategy's name parses back to it.
	for s := StrategyLazy; s <= StrategyDelay; s++ {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
}

func TestCloneSharesIndex(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndexPruned))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	clone := en.Clone()
	if clone.index != en.index {
		t.Fatal("clone rebuilt the index")
	}
	a, err := en.Query(0, 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	b, err := clone.Query(0, 2)
	if err != nil {
		t.Fatalf("clone Query: %v", err)
	}
	if a.Tags[0] != b.Tags[0] || a.Tags[1] != b.Tags[1] {
		t.Fatalf("clone answered differently: %v vs %v", a.Tags, b.Tags)
	}
}

func TestDisableBestEffortSameAnswer(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyIndex)
	opts.DisableBestEffort = true
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := en.Query(0, 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Tags[0] != 2 || res.Tags[1] != 3 {
		t.Fatalf("enumeration W* = %v, want [2 3]", res.Tags)
	}
	if res.FullSetsEstimated == 0 {
		t.Fatal("enumeration estimated nothing")
	}
}

func TestNetworkSerializationRoundTrip(t *testing.T) {
	net, _ := fig2Network(t)
	var buf bytes.Buffer
	if err := net.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatalf("ReadNetwork: %v", err)
	}
	if back.NumUsers() != 7 || back.NumEdges() != 7 || back.NumTopics() != 3 {
		t.Fatalf("round trip changed shape")
	}
}

func TestGenerateDataset(t *testing.T) {
	names := DatasetNames()
	if len(names) != 4 {
		t.Fatalf("DatasetNames = %v", names)
	}
	net, model, err := GenerateDataset("lastfm", 1)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	if net.NumUsers() != 1300 || model.NumTags() != 50 {
		t.Fatalf("lastfm shape %d users %d tags", net.NumUsers(), model.NumTags())
	}
	groups := net.UsersByGroup()
	if len(groups["high"]) == 0 || len(groups["mid"]) == 0 || len(groups["low"]) == 0 {
		t.Fatalf("UsersByGroup empty: %d/%d/%d", len(groups["high"]), len(groups["mid"]), len(groups["low"]))
	}
	if _, _, err := GenerateDataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCaseStudyQueryAccuracy(t *testing.T) {
	net, model, researchers, err := GenerateCaseStudy(1)
	if err != nil {
		t.Fatalf("GenerateCaseStudy: %v", err)
	}
	if len(researchers) != 8 {
		t.Fatalf("%d researchers", len(researchers))
	}
	opts := testEngineOptions(StrategyIndexPruned)
	opts.MaxK = 5
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	total := 0.0
	for _, r := range researchers[:4] {
		res, err := en.Query(r.User, 5)
		if err != nil {
			t.Fatalf("Query(%s): %v", r.Name, err)
		}
		total += CaseAccuracy(model, r, res.Tags)
	}
	avg := total / 4
	// The paper's survey averaged 0.78; the planted proxy should clear a
	// conservative floor well above chance (home topics cover 1/4 of tags).
	if avg < 0.5 {
		t.Fatalf("case-study accuracy %v below 0.5", avg)
	}
}

func TestUndefinedTagSetInfluenceIsOne(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// No topic generates {w1,...} with disjoint support? In Fig. 2 all
	// pairs are supported; test the API contract with a fresh model.
	m2, _ := NewTagModel(2, 3)
	_ = m2.SetTagTopic(0, 0, 0.5)
	_ = m2.SetTagTopic(1, 2, 0.5)
	en2, err := NewEngine(net, m2, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	got, err := en2.EstimateInfluence(0, []int{0, 1})
	if err != nil {
		t.Fatalf("EstimateInfluence: %v", err)
	}
	if got != 1 {
		t.Fatalf("undefined tag-set influence = %v, want 1", got)
	}
	_ = en
}

func TestQueryTopRanksAllPairs(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndex))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := en.QueryTop(0, 2, 3)
	if err != nil {
		t.Fatalf("QueryTop: %v", err)
	}
	if len(res.Alternatives) != 3 {
		t.Fatalf("got %d alternatives, want 3", len(res.Alternatives))
	}
	if res.Alternatives[0].Tags[0] != res.Tags[0] || res.Alternatives[0].Influence != res.Influence {
		t.Fatalf("Alternatives[0] does not repeat the best result")
	}
	for i := 1; i < len(res.Alternatives); i++ {
		if res.Alternatives[i].Influence > res.Alternatives[i-1].Influence {
			t.Fatalf("alternatives not sorted: %v", res.Alternatives)
		}
	}
	// The best must still be {w3, w4}.
	if res.Tags[0] != 2 || res.Tags[1] != 3 {
		t.Fatalf("top-1 of top-3 = %v, want [2 3]", res.Tags)
	}
	if _, err := en.QueryTop(0, 2, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestQueryWithPrefix(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndex))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Pin w1 (tag 0): the best completion pairs it with a z2-heavy tag.
	res, err := en.QueryWithPrefix(0, []int{0}, 2)
	if err != nil {
		t.Fatalf("QueryWithPrefix: %v", err)
	}
	if len(res.Tags) != 2 {
		t.Fatalf("result size %d", len(res.Tags))
	}
	found := false
	for _, w := range res.Tags {
		if w == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("prefix tag 0 missing from %v", res.Tags)
	}
	// Validation.
	if _, err := en.QueryWithPrefix(0, []int{99}, 2); err == nil {
		t.Fatal("bad prefix tag accepted")
	}
	if _, err := en.QueryWithPrefix(0, []int{0, 1, 2}, 2); err == nil {
		t.Fatal("oversized prefix accepted")
	}
	// Full-size prefix returns the prefix itself.
	res, err = en.QueryWithPrefix(0, []int{0, 1}, 2)
	if err != nil {
		t.Fatalf("full prefix: %v", err)
	}
	if res.Tags[0] != 0 || res.Tags[1] != 1 {
		t.Fatalf("full prefix result = %v, want [0 1]", res.Tags)
	}
}

func TestPrefixAndTopMRejectedWithoutBestEffort(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyLazy)
	opts.DisableBestEffort = true
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := en.QueryTop(0, 2, 2); err == nil {
		t.Fatal("top-m accepted with enumeration")
	}
	if _, err := en.QueryWithPrefix(0, []int{0}, 2); err == nil {
		t.Fatal("prefix accepted with enumeration")
	}
}

// TestConcurrentClones serves queries from many goroutines over one shared
// index via Clone.
func TestConcurrentClones(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndexPruned))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	const workers = 8
	results := make(chan []int, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			c := en.Clone()
			for i := 0; i < 20; i++ {
				res, err := c.Query(0, 2)
				if err != nil {
					errs <- err
					return
				}
				if i == 19 {
					results <- res.Tags
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			t.Fatalf("concurrent query: %v", err)
		case tags := <-results:
			if tags[0] != 2 || tags[1] != 3 {
				t.Fatalf("concurrent result = %v, want [2 3]", tags)
			}
		}
	}
}

func TestLTPropagationEndToEnd(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyMC)
	opts.Propagation = PropagationLT
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := en.Query(0, 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Under LT the fixture is tree-like for every pair, so the optimum
	// coincides with IC: {w3, w4}.
	if res.Tags[0] != 2 || res.Tags[1] != 3 {
		t.Fatalf("LT W* = %v, want [2 3]", res.Tags)
	}
	inf, err := en.EstimateInfluence(0, []int{0, 1})
	if err != nil {
		t.Fatalf("EstimateInfluence: %v", err)
	}
	if math.Abs(inf-1.5125) > 0.15 {
		t.Fatalf("LT E[I(u1|{w1,w2})] = %v, want ≈1.5125", inf)
	}
}

func TestLTWithRRStrategy(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyRR)
	opts.Propagation = PropagationLT
	// Reverse-sampling indicators are noisier per sample than forward
	// spreads; the fixture's optima are ~25% apart, so run full budgets.
	opts.DisableEarlyStop = true
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := en.Query(0, 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Tags[0] != 2 || res.Tags[1] != 3 {
		t.Fatalf("LT/RR W* = %v, want [2 3]", res.Tags)
	}
}

func TestLTRejectsIndexStrategies(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyTIM, StrategyIndex, StrategyIndexPruned, StrategyDelay} {
		opts := testEngineOptions(s)
		opts.Propagation = PropagationLT
		if _, err := NewEngine(net, model, opts); err == nil {
			t.Errorf("%v accepted the LT model", s)
		}
	}
}

func TestPropagationString(t *testing.T) {
	if PropagationIC.String() != "IC" || PropagationLT.String() != "LT" {
		t.Fatal("Propagation names wrong")
	}
}

func TestSaveAndLoadIndex(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyIndexPruned, StrategyDelay} {
		en, err := NewEngine(net, model, testEngineOptions(s))
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", s, err)
		}
		var buf bytes.Buffer
		if err := en.SaveIndex(&buf); err != nil {
			t.Fatalf("%v: SaveIndex: %v", s, err)
		}
		loaded, err := NewEngineWithIndex(net, model, testEngineOptions(s), &buf)
		if err != nil {
			t.Fatalf("%v: NewEngineWithIndex: %v", s, err)
		}
		a, err := en.Query(0, 2)
		if err != nil {
			t.Fatalf("%v: Query: %v", s, err)
		}
		b, err := loaded.Query(0, 2)
		if err != nil {
			t.Fatalf("%v: loaded Query: %v", s, err)
		}
		if a.Tags[0] != b.Tags[0] || a.Tags[1] != b.Tags[1] {
			t.Fatalf("%v: loaded engine answered %v, original %v", s, b.Tags, a.Tags)
		}
	}
	// Online strategies have nothing to save/load.
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var buf bytes.Buffer
	if err := en.SaveIndex(&buf); err == nil {
		t.Fatal("SaveIndex succeeded for online strategy")
	}
	if _, err := NewEngineWithIndex(net, model, testEngineOptions(StrategyLazy), &buf); err == nil {
		t.Fatal("NewEngineWithIndex succeeded for online strategy")
	}
}

// TestSaveIndexDelayMatCounterPayload is the dedicated round-trip for the
// kindDelayMat serialization path: the counter payload must survive
// SaveIndex → NewEngineWithIndex bit-exactly, which we observe through
// estimate determinism — the DelayMat estimator's recovery sampling is
// seeded by the engine options, so identical counters (and only identical
// counters) reproduce identical influence estimates.
func TestSaveIndexDelayMatCounterPayload(t *testing.T) {
	net, model := fig2Network(t)
	opts := testEngineOptions(StrategyDelay)
	en, err := NewEngine(net, model, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var buf bytes.Buffer
	if err := en.SaveIndex(&buf); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	saved := buf.Bytes()
	loaded, err := NewEngineWithIndex(net, model, opts, bytes.NewReader(saved))
	if err != nil {
		t.Fatalf("NewEngineWithIndex: %v", err)
	}
	if got, want := loaded.IndexMemoryBytes(), en.IndexMemoryBytes(); got != want {
		t.Fatalf("loaded footprint %d, want %d", got, want)
	}
	for user := 0; user < net.NumUsers(); user++ {
		for _, tags := range [][]int{{0, 1}, {2, 3}, {1, 2}} {
			a, err := en.EstimateInfluence(user, tags)
			if err != nil {
				t.Fatalf("original estimate: %v", err)
			}
			b, err := loaded.EstimateInfluence(user, tags)
			if err != nil {
				t.Fatalf("loaded estimate: %v", err)
			}
			if a != b {
				t.Fatalf("u=%d W=%v: %v != %v after round trip", user, tags, a, b)
			}
		}
	}
	// Counter-payload corruption must be rejected, not silently absorbed:
	// bump one counter byte above θ.
	bad := append([]byte(nil), saved...)
	bad[len(bad)-1] = 0xff
	if _, err := NewEngineWithIndex(net, model, opts, bytes.NewReader(bad)); err == nil {
		t.Fatal("implausible counter accepted")
	}
	// Truncating mid-payload must fail too.
	if _, err := NewEngineWithIndex(net, model, opts, bytes.NewReader(saved[:len(saved)-4])); err == nil {
		t.Fatal("truncated counter payload accepted")
	}
}

func TestAudienceProfile(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	aud, err := en.Audience(0, []int{2, 3}, 10, 20000)
	if err != nil {
		t.Fatalf("Audience: %v", err)
	}
	if len(aud) == 0 {
		t.Fatal("empty audience for a propagating tag set")
	}
	// u3 is reached directly with p(u1->u3|{w3,w4}) = 0.5; it must lead.
	if aud[0].User != 2 {
		t.Fatalf("top influenced = %+v, want user 2 (u3)", aud[0])
	}
	if math.Abs(aud[0].Probability-0.5) > 0.03 {
		t.Fatalf("u3 probability = %v, want ≈0.5", aud[0].Probability)
	}
	// Probabilities sorted descending and in (0,1].
	for i, a := range aud {
		if a.Probability <= 0 || a.Probability > 1 {
			t.Fatalf("bad probability %+v", a)
		}
		if i > 0 && a.Probability > aud[i-1].Probability {
			t.Fatalf("audience not sorted")
		}
	}
	// Dead tag set: empty audience, no error.
	m2, _ := NewTagModel(2, 3)
	_ = m2.SetTagTopic(0, 0, 0.5)
	_ = m2.SetTagTopic(1, 2, 0.5)
	en2, err := NewEngine(net, m2, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	aud, err = en2.Audience(0, []int{0, 1}, 5, 1000)
	if err != nil || aud != nil {
		t.Fatalf("dead tag set audience = %v, %v", aud, err)
	}
	// Validation.
	if _, err := en.Audience(99, []int{0}, 5, 100); err == nil {
		t.Fatal("bad user accepted")
	}
	for _, tags := range [][]int{{99}, {3, 3}} {
		if _, err := en.Audience(0, tags, 5, 100); err == nil {
			t.Fatalf("bad tag set %v accepted", tags)
		}
	}
	if _, err := en.Audience(0, []int{0}, 0, 100); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestQueryAll(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndexPruned))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	users := []int{0, 2, 3, 5, 99} // 99 is invalid
	results := en.QueryAll(users, 2, 3)
	if len(results) != len(users) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.User != users[i] {
			t.Fatalf("result %d out of order: %d", i, r.User)
		}
	}
	if results[0].Err != nil {
		t.Fatalf("user 0 failed: %v", results[0].Err)
	}
	if results[0].Result.Tags[0] != 2 || results[0].Result.Tags[1] != 3 {
		t.Fatalf("user 0 tags = %v", results[0].Result.Tags)
	}
	if results[4].Err == nil {
		t.Fatal("invalid user did not error")
	}
	if out := en.QueryAll(nil, 2, 3); len(out) != 0 {
		t.Fatal("empty input produced results")
	}
}

func TestReadNetworkEdgeList(t *testing.T) {
	in := "# follower graph\n100 200 0:0.4\n200 300\n"
	net, ids, err := ReadNetworkEdgeList(strings.NewReader(in), 1, 0.2)
	if err != nil {
		t.Fatalf("ReadNetworkEdgeList: %v", err)
	}
	if net.NumUsers() != 3 || net.NumEdges() != 2 {
		t.Fatalf("shape %d/%d", net.NumUsers(), net.NumEdges())
	}
	if ids[100] != 0 || ids[300] != 2 {
		t.Fatalf("id map %v", ids)
	}
	if _, _, err := ReadNetworkEdgeList(strings.NewReader(""), 1, 0.2); err == nil {
		t.Fatal("empty edge list accepted")
	}
}

func TestEngineAccessors(t *testing.T) {
	net, model := fig2Network(t)
	en, err := NewEngine(net, model, testEngineOptions(StrategyIndexPruned))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if got := en.Strategy(); got != StrategyIndexPruned {
		t.Errorf("Strategy() = %v, want %v", got, StrategyIndexPruned)
	}
	opts := en.Options()
	if opts.Strategy != StrategyIndexPruned || opts.Seed != 11 || opts.Epsilon != 0.15 {
		t.Errorf("Options() lost fields: %+v", opts)
	}
	if en.Network() != net {
		t.Error("Network() is not the engine's network")
	}
	if en.Model() != model {
		t.Error("Model() is not the engine's model")
	}
}

// TestIndexEffectiveEpsilon: an index whose θ was capped below Eq. 7's
// reports ε_eff above the configured ε, in IndexEffectiveEpsilon and in
// Explain; an uncapped one reports at most ε (θ is rounded up), an
// online strategy nothing.
func TestIndexEffectiveEpsilon(t *testing.T) {
	net, model := fig2Network(t)
	for _, s := range []Strategy{StrategyIndex, StrategyIndexPruned, StrategyDelay} {
		for _, maxSamples := range []int64{0, 200} {
			opts := testEngineOptions(s)
			opts.MaxIndexSamples = maxSamples
			en, err := NewEngine(net, model, opts)
			if err != nil {
				t.Fatalf("%v: NewEngine: %v", s, err)
			}
			eff := en.IndexEffectiveEpsilon()
			if capped := maxSamples > 0; capped != (eff > opts.Epsilon) || !(eff > 0) {
				t.Errorf("%v cap %d: ε_eff %v against ε %v", s, maxSamples, eff, opts.Epsilon)
			}
			res, err := en.Query(0, 2)
			if err != nil {
				t.Fatalf("%v: Query: %v", s, err)
			}
			if res.Explain.EffectiveEpsilon != eff {
				t.Errorf("%v cap %d: Explain ε_eff %v, engine %v", s, maxSamples, res.Explain.EffectiveEpsilon, eff)
			}
		}
	}
	en, err := NewEngine(net, model, testEngineOptions(StrategyLazy))
	if err != nil {
		t.Fatal(err)
	}
	if eff := en.IndexEffectiveEpsilon(); eff != 0 {
		t.Errorf("online engine reports ε_eff %v", eff)
	}
}
