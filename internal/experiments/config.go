// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 7 and Appendix D) on the synthetic datasets. Each
// experiment is a Runner producing a Report whose rows mirror what the
// paper plots; cmd/pitexbench prints them and bench_test.go wraps each in a
// testing.B benchmark. EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"pitex"
	"pitex/internal/datasets"
	"pitex/internal/rng"
)

// Config scopes an experiment run. The zero value is not usable; start
// from Quick (CI-sized) or Full (paper-sized) and adjust.
type Config struct {
	// Seed drives dataset generation and query selection.
	Seed uint64
	// Scale multiplies dataset |V| and |E| (1 = Table 2 sizes).
	Scale float64
	// Datasets restricts which datasets run (default: all four).
	Datasets []string
	// QueriesPerGroup is how many query users are drawn per degree group
	// (the paper uses 100).
	QueriesPerGroup int
	// Epsilon, Delta, K are the paper's query parameters (defaults 0.7,
	// 1000, 3).
	Epsilon float64
	Delta   float64
	K       int
	// MaxK bounds supported query sizes (paper's K = 10).
	MaxK int
	// MaxSamples / MaxIndexSamples cap the online and offline sample
	// budgets (0 = theoretical; see DESIGN.md Sec. 6).
	MaxSamples      int64
	MaxIndexSamples int64
	// IndexShards hash-partitions the offline index of the index
	// strategies into this many shards (0/1 = monolithic), so experiment
	// runs can compare the scatter-gather layout against the single-arena
	// one.
	IndexShards int
}

// Quick returns a CI-sized configuration: datasets scaled to ~5%, few
// queries, tight sample caps. Experiment shapes (who wins, by roughly what
// factor) survive the scaling; absolute numbers do not.
func Quick() Config {
	return Config{
		Seed:            1,
		Scale:           0.05,
		QueriesPerGroup: 2,
		Epsilon:         0.7,
		Delta:           1000,
		K:               3,
		MaxK:            10,
		MaxSamples:      2000,
		MaxIndexSamples: 20000,
	}
}

// Full returns the paper-parameter configuration (still sample-capped;
// uncapped theoretical budgets are impractical on one machine).
func Full() Config {
	return Config{
		Seed:            1,
		Scale:           1,
		QueriesPerGroup: 20,
		Epsilon:         0.7,
		Delta:           1000,
		K:               3,
		MaxK:            10,
		MaxSamples:      5000,
		MaxIndexSamples: 200000,
	}
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datasets.Names()
	}
	if c.QueriesPerGroup == 0 {
		c.QueriesPerGroup = 10
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.7
	}
	if c.Delta == 0 {
		c.Delta = 1000
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.MaxK == 0 {
		c.MaxK = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// engineOptions assembles pitex.Options for a strategy under this config.
func (c Config) engineOptions(s pitex.Strategy) pitex.Options {
	return pitex.Options{
		Strategy:        s,
		Epsilon:         c.Epsilon,
		Delta:           c.Delta,
		MaxK:            c.MaxK,
		Seed:            c.Seed,
		MaxSamples:      c.MaxSamples,
		MaxIndexSamples: c.MaxIndexSamples,
		IndexShards:     c.IndexShards,
	}
}

var (
	specCacheMu sync.Mutex
	specCache   = map[string]*cachedDataset{}
)

type cachedDataset struct {
	net   *pitex.Network
	model *pitex.TagModel
	data  *datasets.Dataset
}

// load builds (with caching) the named dataset at the config's scale,
// returning both the public-API view and the internal dataset (needed by
// the counter-based experiments).
func (c Config) load(name string) (*pitex.Network, *pitex.TagModel, *datasets.Dataset, error) {
	key := fmt.Sprintf("%s/%d/%g", name, c.Seed, c.Scale)
	specCacheMu.Lock()
	defer specCacheMu.Unlock()
	if d, ok := specCache[key]; ok {
		return d.net, d.model, d.data, nil
	}
	spec, ok := datasets.Specs()[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	spec.V = int(float64(spec.V) * c.Scale)
	spec.E = int(float64(spec.E) * c.Scale)
	if spec.V < 64 {
		spec.V = 64
	}
	if spec.E < spec.V {
		spec.E = spec.V
	}
	data, err := datasets.BuildSpec(spec, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	pubSpec, err := pitex.BaseDatasetSpec(name)
	if err != nil {
		return nil, nil, nil, err
	}
	pubSpec.Users, pubSpec.Edges = spec.V, spec.E
	net, model, err := pitex.GenerateDatasetSpec(pubSpec, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	d := &cachedDataset{net: net, model: model, data: data}
	specCache[key] = d
	return d.net, d.model, d.data, nil
}

// queryUsers picks n deterministic users from the named degree group.
func queryUsers(net *pitex.Network, group string, n int, seed uint64) []int {
	groups := net.UsersByGroup()
	users := append([]int(nil), groups[group]...)
	sort.Ints(users)
	r := rng.New(seed ^ 0xbeef)
	r.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	if n > len(users) {
		n = len(users)
	}
	return users[:n]
}

// Runner is one experiment: it produces a printable report.
type Runner func(cfg Config) (*Report, error)

// Registry maps experiment IDs (the paper's table/figure numbers) to
// runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table2": Table2,
		"table3": Table3,
		"table4": Table4,
		"fig6":   Fig6,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"fig9":   Fig9,
		"fig10":  Fig10,
		"fig11":  Fig11,
		"fig12":  Fig12,
		"fig13":  Fig13,
		"fig14":  Fig14,
	}
}

// ExperimentIDs lists registry keys in paper order.
func ExperimentIDs() []string {
	return []string{
		"table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "table4",
	}
}
