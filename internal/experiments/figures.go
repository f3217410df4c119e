package experiments

import (
	"context"
	"fmt"
	"time"

	"pitex"
	"pitex/internal/datasets"
	"pitex/internal/enumerate"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// allStrategies is the Fig. 7/8 method set in the paper's legend order.
var allStrategies = []pitex.Strategy{
	pitex.StrategyRR, pitex.StrategyMC, pitex.StrategyLazy, pitex.StrategyTIM,
	pitex.StrategyIndex, pitex.StrategyIndexPruned, pitex.StrategyDelay,
}

// indexLazyStrategies is the reduced method set of Figs. 9-12 and 14.
var indexLazyStrategies = []pitex.Strategy{
	pitex.StrategyLazy, pitex.StrategyIndex, pitex.StrategyIndexPruned, pitex.StrategyDelay,
}

// groupNames is the paper's query-population order.
var groupNames = []string{"high", "mid", "low"}

// Fig6 evaluates empirical convergence of MC/RR/Lazy: the influence
// estimate of the max-out-degree user's most influential single tag as a
// function of the sample count θ_W.
func Fig6(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:      "fig6",
		Title:   "Sampling convergence: estimate vs θ_W (max-degree user, best single tag)",
		Columns: []string{"dataset", "theta", "MC", "RR", "LAZY"},
	}
	budgets := []int64{1000, 10000, 100000}
	if cfg.Scale < 0.5 {
		budgets = []int64{100, 1000, 10000}
	}
	so := sampling.Options{Epsilon: cfg.Epsilon, Delta: cfg.Delta, LogSearchSpace: 1}
	for _, name := range cfg.Datasets {
		_, _, data, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		g, m := data.Graph, data.Model
		u := graph.MaxOutDegreeVertex(g)
		post, ok := bestSingleTagPosterior(g, m, u, so, cfg.Seed)
		if !ok {
			continue
		}
		for _, theta := range budgets {
			mc := sampling.NewMC(g, so, rng.New(cfg.Seed+11)).
				EstimateWithBudget(u, post, theta).Influence
			rr := sampling.NewRR(g, so, rng.New(cfg.Seed+13)).
				EstimateWithBudget(u, post, theta).Influence
			lz := sampling.NewLazy(g, so, rng.New(cfg.Seed+17)).
				EstimateWithBudget(u, post, theta).Influence
			rep.AddRow(name, theta, mc, rr, lz)
		}
	}
	return rep, nil
}

// bestSingleTagPosterior finds the user's most influential single tag with
// a small pilot budget and returns its posterior.
func bestSingleTagPosterior(g *graph.Graph, m *topics.Model, u graph.VertexID, so sampling.Options, seed uint64) ([]float64, bool) {
	lz := sampling.NewLazy(g, so, rng.New(seed+23))
	best := -1.0
	var bestPost []float64
	post := make([]float64, m.NumTopics())
	for w := 0; w < m.NumTags(); w++ {
		if !m.PosteriorInto([]topics.TagID{topics.TagID(w)}, post) {
			continue
		}
		v := lz.EstimateWithBudget(u, post, 200).Influence
		if v > best {
			best = v
			bestPost = append([]float64(nil), post...)
		}
	}
	return bestPost, bestPost != nil
}

// groupSweep runs the Fig. 7/8 workload: every strategy answers
// QueriesPerGroup queries per degree group; both time and influence are
// recorded.
func groupSweep(cfg Config, strategies []pitex.Strategy) (*Report, *Report, error) {
	timeRep := &Report{
		Columns: []string{"dataset", "group", "method", "avgQueryS"},
	}
	spreadRep := &Report{
		Columns: []string{"dataset", "group", "method", "avgInfluence"},
	}
	for _, name := range cfg.Datasets {
		net, model, _, err := cfg.load(name)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range strategies {
			en, err := pitex.NewEngine(net, model, cfg.engineOptions(s))
			if err != nil {
				return nil, nil, err
			}
			for _, grp := range groupNames {
				users := queryUsers(net, grp, cfg.QueriesPerGroup, cfg.Seed)
				if len(users) == 0 {
					continue
				}
				var total time.Duration
				var inf float64
				for _, u := range users {
					res, err := en.Query(context.Background(), pitex.Request{User: u, K: cfg.K})
					if err != nil {
						return nil, nil, fmt.Errorf("%s/%v/%s/u%d: %w", name, s, grp, u, err)
					}
					total += res.Elapsed
					inf += res.Influence
				}
				n := float64(len(users))
				timeRep.AddRow(name, grp, s.String(), total.Seconds()/n)
				spreadRep.AddRow(name, grp, s.String(), inf/n)
			}
		}
	}
	return timeRep, spreadRep, nil
}

// Fig7 compares query efficiency across user groups for all seven methods.
func Fig7(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	t, _, err := groupSweep(cfg, allStrategies)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = "fig7", "Query time (s) by user group, all methods"
	return t, nil
}

// Fig8 compares the influence spread of the returned tag sets across user
// groups for all seven methods.
func Fig8(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	_, s, err := groupSweep(cfg, allStrategies)
	if err != nil {
		return nil, err
	}
	s.ID, s.Title = "fig8", "Influence spread of W* by user group, all methods"
	return s, nil
}

// paramSweep varies one query parameter over values, running the reduced
// method set on the mid group, recording time and influence.
func paramSweep(cfg Config, id, title, param string, values []float64, apply func(Config, float64) Config, k func(Config, float64) int) (*Report, error) {
	rep := &Report{
		ID: id, Title: title,
		Columns: []string{"dataset", param, "method", "avgQueryS", "avgInfluence"},
	}
	for _, name := range cfg.Datasets {
		for _, val := range values {
			c := apply(cfg, val)
			net, model, _, err := c.load(name)
			if err != nil {
				return nil, err
			}
			for _, s := range indexLazyStrategies {
				en, err := pitex.NewEngine(net, model, c.engineOptions(s))
				if err != nil {
					return nil, err
				}
				users := queryUsers(net, "mid", c.QueriesPerGroup, c.Seed)
				if len(users) == 0 {
					continue
				}
				var total time.Duration
				var inf float64
				for _, u := range users {
					res, err := en.Query(context.Background(), pitex.Request{User: u, K: k(c, val)})
					if err != nil {
						return nil, fmt.Errorf("%s/%v/%s=%v: %w", name, s, param, val, err)
					}
					total += res.Elapsed
					inf += res.Influence
				}
				n := float64(len(users))
				rep.AddRow(name, fmt.Sprintf("%g", val), s.String(), total.Seconds()/n, inf/n)
			}
		}
	}
	return rep, nil
}

// Fig9 varies ε (query time view); Fig10 is the influence view of the same
// sweep.
func Fig9(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	return paramSweep(cfg, "fig9", "Query time vs ε (mid group)",
		"epsilon", []float64{0.3, 0.5, 0.7, 0.9},
		func(c Config, v float64) Config { c.Epsilon = v; return c },
		func(c Config, _ float64) int { return c.K })
}

// Fig10 is the influence-spread view of the ε sweep.
func Fig10(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep, err := paramSweep(cfg, "fig10", "Influence spread vs ε (mid group)",
		"epsilon", []float64{0.3, 0.5, 0.7, 0.9},
		func(c Config, v float64) Config { c.Epsilon = v; return c },
		func(c Config, _ float64) int { return c.K })
	return rep, err
}

// Fig11 varies the query size k.
func Fig11(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ks := []float64{1, 2, 3, 4, 5}
	if cfg.Scale < 0.5 {
		ks = []float64{1, 2, 3}
	}
	return paramSweep(cfg, "fig11", "Query time vs k (mid group)",
		"k", ks,
		func(c Config, _ float64) Config { return c },
		func(_ Config, v float64) int { return int(v) })
}

// Fig12 evaluates scalability on the twitter dataset: query time as |Ω|
// grows (fixed |Z|) and as |Z| grows (fixed |Ω|).
func Fig12(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:      "fig12",
		Title:   "Scalability on twitter: vary |Ω| and |Z|",
		Columns: []string{"sweep", "value", "method", "avgQueryS"},
	}
	base := datasets.Specs()["twitter"]
	base.V = int(float64(base.V) * cfg.Scale)
	base.E = int(float64(base.E) * cfg.Scale)
	if base.V < 64 {
		base.V = 64
	}
	if base.E < base.V {
		base.E = base.V
	}
	tagVals := []int{50, 100, 150, 200, 250}
	topicVals := []int{10, 20, 30, 40, 50}
	if cfg.Scale < 0.5 {
		tagVals = []int{50, 100, 150}
		topicVals = []int{10, 30, 50}
	}
	run := func(sweep string, value int, spec datasets.Spec) error {
		pubSpec := pitex.DatasetSpec{
			Name: spec.Name, Users: spec.V, Edges: spec.E,
			Topics: spec.Topics, Tags: spec.Tags,
			TopicsPerEdge: spec.TopicsPerEdge, MaxProb: spec.MaxProb,
			Reciprocity: spec.Reciprocity,
		}
		net, model, err := pitex.GenerateDatasetSpec(pubSpec, cfg.Seed)
		if err != nil {
			return err
		}
		for _, s := range indexLazyStrategies {
			en, err := pitex.NewEngine(net, model, cfg.engineOptions(s))
			if err != nil {
				return err
			}
			users := queryUsers(net, "mid", cfg.QueriesPerGroup, cfg.Seed)
			var total time.Duration
			for _, u := range users {
				res, err := en.Query(context.Background(), pitex.Request{User: u, K: cfg.K})
				if err != nil {
					return err
				}
				total += res.Elapsed
			}
			rep.AddRow(sweep, value, s.String(), total.Seconds()/float64(len(users)))
		}
		return nil
	}
	for _, tags := range tagVals {
		spec := base
		spec.Name = fmt.Sprintf("twitter-tags%d", tags)
		spec.Tags = tags
		if err := run("tags", tags, spec); err != nil {
			return nil, err
		}
	}
	for _, zs := range topicVals {
		spec := base
		spec.Name = fmt.Sprintf("twitter-topics%d", zs)
		spec.Topics = zs
		if err := run("topics", zs, spec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Fig13 counts edges visited by the online samplers per user group
// (Appendix D).
func Fig13(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:      "fig13",
		Title:   "Edges visited during influence estimation, online samplers",
		Columns: []string{"dataset", "group", "MC", "RR", "LAZY"},
	}
	for _, name := range cfg.Datasets {
		net, _, data, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		g, m := data.Graph, data.Model
		so := sampling.Options{
			Epsilon: cfg.Epsilon, Delta: cfg.Delta,
			LogSearchSpace: enumerate.LogChoose(m.NumTags(), cfg.K),
			MaxSamples:     cfg.MaxSamples,
		}
		post := make([]float64, m.NumTopics())
		for _, grp := range groupNames {
			users := queryUsers(net, grp, cfg.QueriesPerGroup, cfg.Seed)
			mc := sampling.NewMC(g, so, rng.New(cfg.Seed+31))
			rr := sampling.NewRR(g, so, rng.New(cfg.Seed+37))
			lz := sampling.NewLazy(g, so, rng.New(cfg.Seed+41))
			for _, u := range users {
				// Estimate each supported singleton tag, mirroring the
				// estimation workload inside one query.
				for w := 0; w < m.NumTags(); w += 10 {
					if !m.PosteriorInto([]topics.TagID{topics.TagID(w)}, post) {
						continue
					}
					mc.Estimate(graph.VertexID(u), post)
					rr.Estimate(graph.VertexID(u), post)
					lz.Estimate(graph.VertexID(u), post)
				}
			}
			rep.AddRow(name, grp, mc.WorkStats().ProbesEvaluated, rr.WorkStats().ProbesEvaluated,
				lz.WorkStats().ProbesEvaluated)
		}
	}
	return rep, nil
}

// Fig14 varies δ (Appendix D).
func Fig14(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	return paramSweep(cfg, "fig14", "Query time vs δ (mid group)",
		"delta", []float64{10, 100, 1000, 10000},
		func(c Config, v float64) Config { c.Delta = v; return c },
		func(c Config, _ float64) int { return c.K })
}
