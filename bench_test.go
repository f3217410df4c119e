package pitex_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (Sec. 7 and Appendix D), each wrapping the corresponding runner in
// internal/experiments at a CI-sized configuration, plus ablation
// benchmarks for the design choices called out in DESIGN.md Sec. 6.
//
// Benchmarks report b.N wall time per full experiment run; the interesting
// cross-method comparisons live inside the printed reports, regenerable
// with:  go run ./cmd/pitexbench -exp <id> [-full]

import (
	"context"
	"testing"

	"pitex"
	"pitex/analytics"

	"pitex/internal/datasets"
	"pitex/internal/experiments"
	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
	"pitex/internal/topics"
)

// benchConfig is the CI-sized experiment configuration shared by the
// table/figure benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Scale = 0.03
	cfg.Datasets = []string{"lastfm", "diggs"}
	cfg.QueriesPerGroup = 1
	cfg.MaxSamples = 500
	cfg.MaxIndexSamples = 5000
	return cfg
}

func runExperiment(b *testing.B, runner experiments.Runner, cfg experiments.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable2DatasetStats(b *testing.B) { runExperiment(b, experiments.Table2, benchConfig()) }
func BenchmarkTable3IndexConstruction(b *testing.B) {
	runExperiment(b, experiments.Table3, benchConfig())
}
func BenchmarkTable4CaseStudy(b *testing.B) { runExperiment(b, experiments.Table4, benchConfig()) }

func BenchmarkFig6SamplingConvergence(b *testing.B) {
	runExperiment(b, experiments.Fig6, benchConfig())
}

func BenchmarkFig7EfficiencyByGroup(b *testing.B) { runExperiment(b, experiments.Fig7, benchConfig()) }
func BenchmarkFig8SpreadByGroup(b *testing.B)     { runExperiment(b, experiments.Fig8, benchConfig()) }

func BenchmarkFig9VaryEpsilon(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"lastfm"}
	runExperiment(b, experiments.Fig9, cfg)
}

func BenchmarkFig10SpreadVaryEpsilon(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"lastfm"}
	runExperiment(b, experiments.Fig10, cfg)
}

func BenchmarkFig11VaryK(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"lastfm"}
	runExperiment(b, experiments.Fig11, cfg)
}

func BenchmarkFig12Scalability(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.01
	runExperiment(b, experiments.Fig12, cfg)
}

func BenchmarkFig13EdgeVisits(b *testing.B) { runExperiment(b, experiments.Fig13, benchConfig()) }

func BenchmarkFig14VaryDelta(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"lastfm"}
	runExperiment(b, experiments.Fig14, cfg)
}

// --- Ablations (DESIGN.md Sec. 6) ---

// benchDataset builds one mid-sized internal dataset for the ablations.
func benchDataset(b *testing.B) *datasets.Dataset {
	b.Helper()
	spec := datasets.Specs()["diggs"]
	spec.V, spec.E = 2000, 26000
	d, err := datasets.BuildSpec(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchPosterior(b *testing.B, d *datasets.Dataset) []float64 {
	b.Helper()
	post := make([]float64, d.Model.NumTopics())
	for w := 0; w < d.Model.NumTags(); w++ {
		if d.Model.PosteriorInto([]topics.TagID{topics.TagID(w)}, post) {
			return post
		}
	}
	b.Fatal("no supported tag")
	return nil
}

// BenchmarkAblationLazyVsBernoulli compares lazy propagation sampling with
// plain Bernoulli MC at a fixed sample budget (the Sec. 5.1 claim).
func BenchmarkAblationLazyVsBernoulli(b *testing.B) {
	d := benchDataset(b)
	post := benchPosterior(b, d)
	u := graph.MaxOutDegreeVertex(d.Graph)
	so := sampling.Options{Epsilon: 0.7, Delta: 1000, LogSearchSpace: 10}
	b.Run("bernoulli-mc", func(b *testing.B) {
		mc := sampling.NewMC(d.Graph, so, rng.New(1))
		for i := 0; i < b.N; i++ {
			mc.EstimateWithBudget(u, post, 500)
		}
		b.ReportMetric(float64(mc.WorkStats().ProbesEvaluated)/float64(b.N), "edgevisits/op")
	})
	b.Run("lazy-geometric", func(b *testing.B) {
		lz := sampling.NewLazy(d.Graph, so, rng.New(1))
		for i := 0; i < b.N; i++ {
			lz.EstimateWithBudget(u, post, 500)
		}
		b.ReportMetric(float64(lz.WorkStats().ProbesEvaluated)/float64(b.N), "edgevisits/op")
	})
}

// BenchmarkAblationEarlyStop measures the Algo-2 stopping rule's effect on
// a full-budget estimation.
func BenchmarkAblationEarlyStop(b *testing.B) {
	d := benchDataset(b)
	post := benchPosterior(b, d)
	u := graph.MaxOutDegreeVertex(d.Graph)
	for _, stop := range []bool{true, false} {
		name := "with-early-stop"
		if !stop {
			name = "no-early-stop"
		}
		b.Run(name, func(b *testing.B) {
			so := sampling.Options{
				Epsilon: 0.7, Delta: 1000, LogSearchSpace: 10,
				MaxSamples: 20000, DisableEarlyStop: !stop,
			}
			lz := sampling.NewLazy(d.Graph, so, rng.New(1))
			var samples int64
			for i := 0; i < b.N; i++ {
				samples += lz.Estimate(u, post).Samples
			}
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
	}
}

// BenchmarkAblationCutChoice compares the paper's best-of-two cut policy
// against always taking the source-side cut (Sec. 6.2, Example 7).
func BenchmarkAblationCutChoice(b *testing.B) {
	d := benchDataset(b)
	post := benchPosterior(b, d)
	idx, err := rrindex.Build(d.Graph, rrindex.BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.7, Delta: 1000, LogSearchSpace: 10},
		MaxIndexSamples: 20000,
		Seed:            1,
	})
	if err != nil {
		b.Fatal(err)
	}
	u := graph.MaxOutDegreeVertex(d.Graph)
	prober := sampling.PosteriorProber{G: d.Graph, Posterior: post}
	for _, policy := range []rrindex.CutPolicy{rrindex.CutBestOfTwo, rrindex.CutSourceOnly} {
		name := "best-of-two"
		if policy == rrindex.CutSourceOnly {
			name = "source-only"
		}
		b.Run(name, func(b *testing.B) {
			pe := rrindex.NewPrunedEstimator(idx)
			pe.Policy = policy
			for i := 0; i < b.N; i++ {
				pe.Partial(0, d.Graph.NumVertices(), u, prober)
			}
			b.ReportMetric(float64(pe.WorkStats().GraphsChecked)/float64(b.N), "verified/op")
		})
	}
}

// BenchmarkAblationCutPruning compares IndexEst with IndexEst+ on the same
// index (the Sec. 6.2 claim).
func BenchmarkAblationCutPruning(b *testing.B) {
	d := benchDataset(b)
	post := benchPosterior(b, d)
	idx, err := rrindex.Build(d.Graph, rrindex.BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.7, Delta: 1000, LogSearchSpace: 10},
		MaxIndexSamples: 20000,
		Seed:            1,
	})
	if err != nil {
		b.Fatal(err)
	}
	u := graph.MaxOutDegreeVertex(d.Graph)
	prober := sampling.PosteriorProber{G: d.Graph, Posterior: post}
	b.Run("indexest", func(b *testing.B) {
		est := rrindex.NewEstimator(idx)
		for i := 0; i < b.N; i++ {
			est.Partial(0, d.Graph.NumVertices(), u, prober)
		}
	})
	b.Run("indexest+", func(b *testing.B) {
		pe := rrindex.NewPrunedEstimator(idx)
		for i := 0; i < b.N; i++ {
			pe.Partial(0, d.Graph.NumVertices(), u, prober)
		}
	})
}

// BenchmarkAblationDenseEdgeVectors compares p(e|W) evaluation with sparse
// 2-entry edge vectors against dense |Z|-entry vectors.
func BenchmarkAblationDenseEdgeVectors(b *testing.B) {
	const Z = 50
	mkGraph := func(entries int) *graph.Graph {
		gb := graph.NewBuilder(2, Z)
		tps := make([]graph.TopicProb, entries)
		for i := range tps {
			tps[i] = graph.TopicProb{Topic: int32(i), Prob: 0.01}
		}
		gb.AddEdge(0, 1, tps)
		return gb.MustBuild()
	}
	post := make([]float64, Z)
	for z := range post {
		post[z] = 1.0 / Z
	}
	b.Run("sparse-2", func(b *testing.B) {
		g := mkGraph(2)
		for i := 0; i < b.N; i++ {
			_ = g.EdgeProb(0, post)
		}
	})
	b.Run("dense-50", func(b *testing.B) {
		g := mkGraph(Z)
		for i := 0; i < b.N; i++ {
			_ = g.EdgeProb(0, post)
		}
	})
}

// BenchmarkSweep measures the population-analytics workload: a cohort
// sweep (one query per user, reduced to a leaderboard) over the same
// mid-sized dataset BenchmarkQuerySingle uses, fanned over 4 workers.
// Rows land in BENCH_query.json next to the per-query numbers, so the
// whole-population path is tracked by the same regression gate.
func BenchmarkSweep(b *testing.B) {
	net, model, err := pitex.GenerateDatasetSpec(pitex.DatasetSpec{
		Name: "headline", Users: 1500, Edges: 15000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	cohort := make([]int, 64)
	for i := range cohort {
		cohort[i] = i
	}
	for _, s := range []pitex.Strategy{pitex.StrategyIndexPruned, pitex.StrategyDelay} {
		b.Run(s.String()+"-W4", func(b *testing.B) {
			en, err := pitex.NewEngine(net, model, pitex.Options{
				Strategy: s, Epsilon: 0.7, Delta: 1000, MaxK: 5, Seed: 1,
				MaxSamples: 500, MaxIndexSamples: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lb, err := analytics.Run(context.Background(), en, analytics.Options{
					K: 3, TopN: 20, Workers: 4, ChunkSize: 16, Users: cohort,
				})
				if err != nil {
					b.Fatal(err)
				}
				if lb.UsersSwept != len(cohort) {
					b.Fatalf("swept %d users", lb.UsersSwept)
				}
			}
			b.ReportMetric(float64(len(cohort)), "users/op")
		})
	}
}

// warmUsers is how many users a warmed BenchmarkQuerySingle row queries:
// the first of dataset B's "mid" users. A row that re-queried one user
// timed whatever search that user's sample happened to give it, so any
// re-drawn index moved the row by chance.
const warmUsers = 16

// timeWarmed times b.N queries of k = 3 spread over users in equal
// consecutive runs, each user queried once untimed before its run: the
// steady state of a warmed engine (scratch grown and, for DelayMat, the
// user's Algo 4 recovery done) averaged over the users.
func timeWarmed(b *testing.B, en *pitex.Engine, users []int) {
	b.Helper()
	query := func(u int) {
		if _, err := en.Query(context.Background(), pitex.Request{User: u, K: 3}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i, prev := 0, -1; i < b.N; i++ {
		j := i * len(users) / b.N
		if j != prev {
			b.StopTimer()
			query(users[j])
			b.StartTimer()
			prev = j
		}
		query(users[j])
	}
}

// BenchmarkQuerySingle is a headline per-query benchmark for each strategy
// on a mid-sized dataset.
func BenchmarkQuerySingle(b *testing.B) {
	net, model, err := pitex.GenerateDatasetSpec(pitex.DatasetSpec{
		Name: "headline", Users: 1500, Edges: 15000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.3,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	mid := net.UsersByGroup()["mid"]
	u := mid[0]
	users := mid[:warmUsers]
	// The online rows re-query one user: each query draws fresh samples,
	// so no index sample decides their cost.
	for _, s := range []pitex.Strategy{
		pitex.StrategyLazy, pitex.StrategyMC, pitex.StrategyRR, pitex.StrategyTIM,
	} {
		b.Run(s.String(), func(b *testing.B) {
			en, err := pitex.NewEngine(net, model, pitex.Options{
				Strategy: s, Epsilon: 0.7, Delta: 1000, MaxK: 5, Seed: 1,
				MaxSamples: 500, MaxIndexSamples: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			// One untimed warm-up query: the benchmark measures the steady
			// state, not one-time scratch growth.
			if _, err := en.Query(context.Background(), pitex.Request{User: u, K: 3}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := en.Query(context.Background(), pitex.Request{User: u, K: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The index rows are warmed over warmUsers users (timeWarmed). For
	// DelayMat the warm-up also hides each user's Algo 4 recovery — a
	// per-query cost of every first touch, not a build cost — so these
	// rows are its re-queries; the DELAYMAT-cold row below times the
	// recovery.
	for _, s := range []pitex.Strategy{pitex.StrategyIndex, pitex.StrategyIndexPruned, pitex.StrategyDelay} {
		b.Run(s.String(), func(b *testing.B) {
			en, err := pitex.NewEngine(net, model, pitex.Options{
				Strategy: s, Epsilon: 0.7, Delta: 1000, MaxK: 5, Seed: 1,
				MaxSamples: 500, MaxIndexSamples: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			timeWarmed(b, en, users)
		})
	}
	// First touch: round-robin over 256 distinct users, the cost the
	// warmed rows above cannot see. DelayMat's one-user recovery cache
	// never hits, so every op pays a recovery; an index query scans
	// posting lists and explores a search no earlier op has seen.
	for _, s := range []pitex.Strategy{pitex.StrategyIndexPruned, pitex.StrategyDelay} {
		b.Run(s.String()+"-cold", func(b *testing.B) {
			en, err := pitex.NewEngine(net, model, pitex.Options{
				Strategy: s, Epsilon: 0.7, Delta: 1000, MaxK: 5, Seed: 1,
				MaxSamples: 500, MaxIndexSamples: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			const distinct = 256
			if _, err := en.Query(context.Background(), pitex.Request{User: distinct, K: 3}); err != nil { // untimed: scratch growth, the firing table
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := en.Query(context.Background(), pitex.Request{User: i % distinct, K: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Sharded variants (S=4) for the index strategies, so BENCH_query.json
	// tracks the scatter-gather layout's trajectory next to the monolithic
	// one.
	for _, s := range []pitex.Strategy{
		pitex.StrategyIndex, pitex.StrategyIndexPruned, pitex.StrategyDelay,
	} {
		b.Run(s.String()+"-S4", func(b *testing.B) {
			en, err := pitex.NewEngine(net, model, pitex.Options{
				Strategy: s, Epsilon: 0.7, Delta: 1000, MaxK: 5, Seed: 1,
				MaxSamples: 500, MaxIndexSamples: 20000,
				IndexShards: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			timeWarmed(b, en, users)
		})
	}
}

// BenchmarkBuild times NewEngine's offline phase on dataset A's shape
// (bench/'s diggs spec: 15 000 users, 200 000 edges) with
// cmd/pitexserve's defaults: INDEXEST+ and DELAYMAT at the θ cap of
// 200 000, and INDEXEST+ at Eq. 7's θ (2 555 787, no cap). The engine
// builds on every core, so the rows track the machine's core count.
func BenchmarkBuild(b *testing.B) {
	net, model, err := pitex.GenerateDatasetSpec(pitex.DatasetSpec{
		Name: "diggs", Users: 15000, Edges: 200000,
		Topics: 20, Tags: 50, TopicsPerEdge: 2, MaxProb: 0.4, Reciprocity: 0.25,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name     string
		strategy pitex.Strategy
		maxTheta int64
	}{
		{"INDEXEST+", pitex.StrategyIndexPruned, 200000},
		{"DELAYMAT", pitex.StrategyDelay, 200000},
		{"INDEXEST+-uncapped", pitex.StrategyIndexPruned, 0},
	} {
		b.Run(row.name, func(b *testing.B) {
			opts := pitex.Options{
				Strategy: row.strategy, Epsilon: 0.7, Delta: 1000, MaxK: 10, Seed: 1,
				MaxSamples: 5000, MaxIndexSamples: row.maxTheta,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pitex.NewEngine(net, model, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
