// Command pitexquery answers a single PITEX query: the k most influential
// tags for a user, either on a generated dataset or on files produced by
// pitexgen.
//
// Usage:
//
//	pitexquery -dataset lastfm -user 42 -k 3 -strategy indexest+
//	pitexquery -network g.network -model g.model -user 42 -k 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pitex"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "generate this dataset (lastfm, diggs, dblp, twitter)")
		network  = flag.String("network", "", "network file (alternative to -dataset)")
		model    = flag.String("model", "", "tag model file (required with -network)")
		seed     = flag.Uint64("seed", 1, "generation / sampling seed")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (with -dataset)")
		user     = flag.Int("user", 0, "query user ID")
		k        = flag.Int("k", 3, "number of tags to select")
		strategy = flag.String("strategy", "lazy", "lazy, mc, rr, tim, indexest, indexest+, delaymat")
		epsilon  = flag.Float64("epsilon", 0.7, "relative error bound")
		delta    = flag.Float64("delta", 1000, "failure probability control (1/delta)")
		maxSamp  = flag.Int64("max-samples", 5000, "per-estimation sample cap (0 = theoretical)")
		maxIdx   = flag.Int64("max-index-samples", 200000, "offline sample cap (0 = theoretical)")
		top      = flag.Int("top", 1, "return the m best tag sets")
		prefix   = flag.String("prefix", "", "comma-separated tag IDs the answer must contain")
		audience = flag.Int("audience", 0, "also print the top-N most likely influenced users")
	)
	flag.Parse()
	if err := run(*dataset, *network, *model, *seed, *scale, *user, *k, *strategy, *epsilon, *delta, *maxSamp, *maxIdx, *top, *prefix, *audience); err != nil {
		fmt.Fprintln(os.Stderr, "pitexquery:", err)
		os.Exit(1)
	}
}

func run(dataset, networkPath, modelPath string, seed uint64, scale float64, user, k int, strategyName string, epsilon, delta float64, maxSamp, maxIdx int64, top int, prefixArg string, audienceN int) error {
	strategy, err := pitex.ParseStrategy(strategyName)
	if err != nil {
		return err
	}
	var prefix []int
	if prefixArg != "" {
		for _, f := range strings.Split(prefixArg, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad -prefix entry %q", f)
			}
			prefix = append(prefix, w)
		}
	}

	var net *pitex.Network
	var model *pitex.TagModel
	switch {
	case dataset != "":
		spec, err := pitex.BaseDatasetSpec(dataset)
		if err != nil {
			return err
		}
		if scale != 1.0 {
			spec = spec.Scaled(scale)
		}
		net, model, err = pitex.GenerateDatasetSpec(spec, seed)
		if err != nil {
			return err
		}
	case networkPath != "" && modelPath != "":
		nf, err := os.Open(networkPath)
		if err != nil {
			return err
		}
		defer nf.Close()
		net, err = pitex.ReadNetwork(nf)
		if err != nil {
			return err
		}
		mf, err := os.Open(modelPath)
		if err != nil {
			return err
		}
		defer mf.Close()
		model, err = pitex.ReadTagModel(mf)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need either -dataset or both -network and -model")
	}

	maxK := k
	if maxK < 10 {
		maxK = 10
	}
	en, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        strategy,
		Epsilon:         epsilon,
		Delta:           delta,
		MaxK:            maxK,
		Seed:            seed,
		MaxSamples:      maxSamp,
		MaxIndexSamples: maxIdx,
	})
	if err != nil {
		return err
	}
	if en.IndexBuildTime > 0 {
		fmt.Printf("index built in %v (%.2f MB)\n", en.IndexBuildTime,
			float64(en.IndexMemoryBytes())/(1<<20))
	}

	var res pitex.Result
	switch {
	case len(prefix) > 0:
		res, err = en.QueryWithPrefix(user, prefix, k)
	case top > 1:
		res, err = en.QueryTop(user, k, top)
	default:
		res, err = en.Query(user, k)
	}
	if err != nil {
		return err
	}
	fmt.Printf("user %d, k=%d, strategy %s\n", user, k, strategy)
	fmt.Printf("selling points: %s\n", strings.Join(res.TagNames, ", "))
	fmt.Printf("tag IDs:        %v\n", res.Tags)
	fmt.Printf("est. influence: %.3f users\n", res.Influence)
	fmt.Printf("query time:     %v\n", res.Elapsed)
	fmt.Printf("work: %d full sets estimated, %d bound estimates, %d pruned unsupported, %d pruned by bound\n",
		res.FullSetsEstimated, res.PartialBoundsEstimated, res.PrunedUnsupported, res.PrunedByBound)
	for i, alt := range res.Alternatives {
		if i == 0 {
			continue // repeats the headline answer
		}
		fmt.Printf("  #%d: %s (influence %.3f)\n", i+1, strings.Join(alt.TagNames, ", "), alt.Influence)
	}
	if audienceN > 0 {
		aud, err := en.Audience(user, res.Tags, audienceN, 5000)
		if err != nil {
			return err
		}
		fmt.Println("most likely influenced users:")
		for _, a := range aud {
			fmt.Printf("  user %d (p=%.3f)\n", a.User, a.Probability)
		}
	}
	return nil
}
