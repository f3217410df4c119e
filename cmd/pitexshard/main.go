// Command pitexshard runs one shard server of the distributed PITEX
// serving topology: it builds the RR-index slices for the shard ids it
// owns and answers the /shard/* HTTP protocol (partial estimates, layout
// info, generation-keyed repairs and resyncs) that a pitexserve
// coordinator started with -shards scatters to. Only the index strategies
// (indexest, indexest+) distribute.
//
// Usage (a two-server layout over four index shards):
//
//	pitexshard -dataset lastfm -index-shards 4 -own 0,1 -addr :8501
//	pitexshard -dataset lastfm -index-shards 4 -own 2,3 -addr :8502
//	pitexserve -dataset lastfm -index-shards 4 -shards localhost:8501,localhost:8502
//
// Every server generates or loads the same network and tag model (the
// graph is shared; only the index is partitioned) and derives the same θ
// from Eq. 7, so the input flags (-dataset/-scale or -network/-model,
// -seed) and the engine flags (-strategy, -epsilon, -delta, -max-k,
// -max-index-samples, -index-shards) must match across the fleet and the
// coordinator. Both commands take these from one front end,
// pitex/internal/cli, as they take -log-format, -debug-addr, -faults and
// -drain-timeout: SIGINT or SIGTERM drains in-flight requests for at most
// -drain-timeout, then closes the server.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pitex/internal/cli"
	"pitex/serve"
)

// config is pitexshard's flag set.
type config struct {
	cli.Inputs
	cli.Engine
	cli.Process
	own   string
	addr  string
	shard serve.ShardConfig
}

func (c *config) register(fs *flag.FlagSet) {
	c.Inputs.Register(fs)
	// A shard server builds index slices only, so it has no per-estimation
	// sample cap.
	c.Engine.Register(fs, "indexest+", "max-samples")
	c.Process.Register(fs)
	for name, usage := range map[string]string{
		"seed":         "generation / sampling seed (must match the coordinator)",
		"strategy":     "indexest or indexest+ (the strategies a fleet can serve)",
		"index-shards": "total shard count S of the cluster layout",
		"max-k":        "largest supported query size k (must match the coordinator)",
		"faults":       "deterministic fault-injection spec for chaos testing, e.g. 'serve/shard/estimate:error:p=0.05' (never enable in production)",
	} {
		fs.Lookup(name).Usage = usage
	}
	fs.StringVar(&c.own, "own", "", "comma-separated shard ids this server holds (default: all of [0,S))")
	fs.StringVar(&c.addr, "addr", "localhost:8501", "listen address")
	fs.IntVar(&c.shard.Workers, "workers", 0, "concurrent estimation workers (0 = default)")
	fs.IntVar(&c.shard.QueueDepth, "queue", 0, "admission queue depth behind the workers (0 = default)")
	fs.DurationVar(&c.shard.QueueTimeout, "queue-timeout", 0, "max wait for a free worker (0 = default)")
}

func main() {
	var c config
	c.register(flag.CommandLine)
	flag.Parse()
	logger, err := c.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitexshard:", err)
		os.Exit(1)
	}
	srv, err := setup(c, func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	})
	if err == nil {
		// Serve closes srv on every path, the error path included.
		err = c.Serve(logger, c.addr, srv)
	}
	if err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

func setup(c config, logf func(string, ...any)) (*serve.ShardServer, error) {
	opts, err := c.Options(c.Seed)
	if err != nil {
		return nil, err
	}
	net, model, err := c.Load()
	if err != nil {
		return nil, err
	}
	owned, err := parseOwned(c.own)
	if err != nil {
		return nil, err
	}
	cfg := c.shard
	cfg.TotalShards, cfg.Owned = c.IndexShards, owned
	ss, err := serve.NewShardServer(net, model, opts, cfg)
	if err != nil {
		return nil, err
	}
	if len(owned) == 0 {
		logf("building all %d shard slices for %s over %d users", max(1, c.IndexShards), opts.Strategy, net.NumUsers())
	} else {
		logf("building shard slices %v of %d for %s over %d users", owned, c.IndexShards, opts.Strategy, net.NumUsers())
	}
	return ss, nil
}

// parseOwned splits "-own 0,2,5" into shard ids; empty means all.
func parseOwned(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("-own: bad shard id %q", f)
		}
		out = append(out, id)
	}
	return out, nil
}
