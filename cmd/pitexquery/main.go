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
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pitex"
	"pitex/internal/cli"
)

// config is pitexquery's flag set.
type config struct {
	cli.Inputs
	cli.Engine
	user, k, top, audience int
	prefix                 string
}

func (c *config) register(fs *flag.FlagSet) {
	c.Inputs.Register(fs)
	// MaxK follows -k (at least 10), and the index is never partitioned.
	c.Engine.Register(fs, "lazy", "index-shards", "max-k")
	fs.IntVar(&c.user, "user", 0, "query user ID")
	fs.IntVar(&c.k, "k", 3, "number of tags to select")
	fs.IntVar(&c.top, "top", 1, "return the m best tag sets")
	fs.StringVar(&c.prefix, "prefix", "", "comma-separated tag IDs the answer must contain")
	fs.IntVar(&c.audience, "audience", 0, "also print the top-N most likely influenced users")
}

func main() {
	var c config
	c.register(flag.CommandLine)
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "pitexquery:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	opts, err := c.Options(c.Seed)
	if err != nil {
		return err
	}
	opts.MaxK = max(c.k, 10)
	if c.top < 1 {
		return fmt.Errorf("-top = %d, want >= 1", c.top)
	}
	req := pitex.Request{User: c.user, K: c.k, M: c.top}
	if c.prefix != "" {
		for _, f := range strings.Split(c.prefix, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad -prefix entry %q", f)
			}
			req.Prefix = append(req.Prefix, w)
		}
	}
	net, model, err := c.Load()
	if err != nil {
		return err
	}
	en, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		return err
	}
	if en.IndexBuildTime > 0 {
		fmt.Printf("index built in %v (%.2f MB)\n", en.IndexBuildTime,
			float64(en.IndexMemoryBytes())/(1<<20))
	}

	res, err := en.Query(context.Background(), req)
	if err != nil {
		return err
	}
	fmt.Printf("user %d, k=%d, strategy %s\n", c.user, c.k, opts.Strategy)
	fmt.Printf("selling points: %s\n", strings.Join(res.TagNames, ", "))
	fmt.Printf("tag IDs:        %v\n", res.Tags)
	fmt.Printf("est. influence: %.3f users\n", res.Influence)
	fmt.Printf("query time:     %v\n", res.Elapsed)
	fmt.Printf("work: %d full sets estimated, %d bound estimates, %d pruned unsupported, %d pruned by bound\n",
		res.Explain.FullSetsEstimated, res.Explain.PartialBoundsEstimated,
		res.Explain.PrunedUnsupported, res.Explain.PrunedByBound)
	for i, alt := range res.Alternatives {
		if i == 0 {
			continue // repeats the headline answer
		}
		fmt.Printf("  #%d: %s (influence %.3f)\n", i+1, strings.Join(alt.TagNames, ", "), alt.Influence)
	}
	if c.audience > 0 {
		aud, err := en.Audience(c.user, res.Tags, c.audience, 5000)
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
