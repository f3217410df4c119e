package experiments

import (
	"context"
	"fmt"
	"time"

	"pitex"
	"pitex/internal/graph"
)

// Table2 reproduces the dataset-statistics table: |V|, |E|, |E|/|V|, |Z|,
// |Ω| per dataset, plus the tag-topic density the paper quotes in Sec. 7.3
// and the paper's original corpus sizes for reference.
func Table2(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:      "table2",
		Title:   "Statistics of datasets (synthetic stand-ins; paper sizes for reference)",
		Columns: []string{"dataset", "V", "E", "E/V", "Z", "tags", "density", "paperV", "paperE"},
	}
	for _, name := range cfg.Datasets {
		_, model, data, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		st := graph.Summarize(data.Graph)
		rep.AddRow(name, st.NumVertices, st.NumEdges,
			fmt.Sprintf("%.1f", st.AvgOutDegree), st.NumTopics,
			model.NumTags(), fmt.Sprintf("%.2f", model.Density()),
			data.PaperV, data.PaperE)
	}
	return rep, nil
}

// Table3 reproduces the index-size and construction-time table: the
// RR-Graphs index versus delay materialization, per dataset.
func Table3(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:      "table3",
		Title:   "Index sizes (MB) and construction time (s)",
		Columns: []string{"dataset", "dataMB", "rrIndexMB", "rrBuildS", "delayMB", "delayBuildS"},
	}
	for _, name := range cfg.Datasets {
		net, model, data, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		idxEngine, err := pitex.NewEngine(net, model, cfg.engineOptions(pitex.StrategyIndex))
		if err != nil {
			return nil, err
		}
		delayEngine, err := pitex.NewEngine(net, model, cfg.engineOptions(pitex.StrategyDelay))
		if err != nil {
			return nil, err
		}
		rep.AddRow(name,
			mb(data.Graph.MemoryFootprint()),
			mb(idxEngine.IndexMemoryBytes()),
			secs(idxEngine.IndexBuildTime),
			mb(delayEngine.IndexMemoryBytes()),
			secs(delayEngine.IndexBuildTime))
	}
	return rep, nil
}

func mb(bytes int64) string { return fmt.Sprintf("%.3f", float64(bytes)/(1<<20)) }
func secs(d time.Duration) string {
	return fmt.Sprintf("%.4f", d.Seconds())
}

// Table4 reproduces the case study: a k=5 PITEX query per planted
// researcher, the returned tags, and the planted-accuracy proxy for the
// paper's annotator score.
func Table4(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	net, model, rs, err := pitex.GenerateCaseStudy(cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts := cfg.engineOptions(pitex.StrategyIndexPruned)
	en, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "table4",
		Title:   "Case study: inferred selling-point tags and planted accuracy",
		Columns: []string{"researcher", "tags", "accuracy"},
	}
	total := 0.0
	for _, r := range rs {
		res, err := en.Query(context.Background(), pitex.Request{User: r.User, K: 5})
		if err != nil {
			return nil, err
		}
		acc := pitex.CaseAccuracy(model, r, res.Tags)
		total += acc
		rep.AddRow(r.Name, joinNames(res.TagNames), fmt.Sprintf("%.2f", acc))
	}
	rep.AddRow("average", "", fmt.Sprintf("%.2f", total/float64(len(rs))))
	return rep, nil
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}
