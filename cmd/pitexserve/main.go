// Command pitexserve runs the production PITEX query-serving subsystem
// (package pitex/serve): an engine-clone pool with admission control, a
// sharded result cache with in-flight deduplication, and an HTTP/JSON
// surface with latency histograms on /statsz.
//
// Usage:
//
//	pitexserve -dataset lastfm -strategy indexest+ -addr :8437
//	curl 'localhost:8437/selling-points?user=12&k=3'
//	curl 'localhost:8437/audience?user=12&tags=1,4&m=5'
//	curl 'localhost:8437/statsz'
//
// The input, engine and process flags come from pitex/internal/cli, shared
// with pitexshard, pitexquery and pitexsweep. With -shards, pitexserve
// coordinates a pitexshard fleet, and its input and engine flags must match
// the fleet's. SIGINT or SIGTERM drains in-flight requests for at most
// -drain-timeout, then shuts the pool down and cancels sweep jobs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/cli"
	"pitex/serve"
)

// config is pitexserve's flag set.
type config struct {
	cli.Inputs
	cli.Engine
	cli.Process
	index, saveIndex string
	// shards switches setup into coordinator mode: a distrib client is
	// dialed over the groups and the server scatters to them instead of
	// holding a local index.
	shards            string
	shardDeadline     time.Duration
	journalHorizon    int
	reconcileInterval time.Duration
	addr              string
	serve             pitex.ServeOptions
}

func (c *config) register(fs *flag.FlagSet) {
	c.Inputs.Register(fs)
	c.Engine.Register(fs, "indexest+")
	c.Process.Register(fs)
	fs.StringVar(&c.index, "index", "", "offline index file written by SaveIndex (skips construction)")
	fs.StringVar(&c.saveIndex, "save-index", "", "write the offline index here after construction, so the next restart can -index it")

	fs.StringVar(&c.shards, "shards", "", "coordinator mode: shard-server groups, comma-separated; replicas within a group separated by '|' (e.g. 'h1:8501|h1b:8501,h2:8502')")
	fs.DurationVar(&c.shardDeadline, "shard-deadline", 2*time.Second, "per-shard-group fetch deadline in coordinator mode (hedges included)")
	fs.IntVar(&c.journalHorizon, "journal-horizon", 0, "update-journal depth in generations for endpoint catch-up replay (0 = default)")
	fs.DurationVar(&c.reconcileInterval, "reconcile-interval", 0, "anti-entropy reconciler poll interval (0 = default, negative disables)")

	fs.StringVar(&c.addr, "addr", "localhost:8437", "listen address")
	fs.IntVar(&c.serve.PoolSize, "pool", 0, "engine pool size (0 = GOMAXPROCS)")
	fs.IntVar(&c.serve.QueueDepth, "queue", 0, "admission queue depth beyond the pool (0 = 4x pool, negative = no queue)")
	fs.DurationVar(&c.serve.QueueTimeout, "queue-timeout", 5*time.Second, "max wait for a free engine (0 = 5s default, negative = none)")
	fs.DurationVar(&c.serve.QueryTimeout, "query-timeout", 0, "per-query deadline (0 = 30s default, negative = none)")
	fs.IntVar(&c.serve.CacheCapacity, "cache", 4096, "result cache capacity in entries (negative disables)")
	fs.StringVar(&c.serve.SweepCheckpointDir, "sweep-checkpoint-dir", "", "directory for POST /admin/jobs checkpoint files (empty rejects checkpointed jobs over HTTP)")
}

func main() {
	var c config
	c.register(flag.CommandLine)
	flag.Parse()
	logger, err := c.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitexserve:", err)
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

// setup builds the engine (running or loading the offline phase) and wraps
// it in the serving subsystem. logf receives progress lines.
func setup(c config, logf func(string, ...any)) (*serve.Server, error) {
	opts, err := c.Options(c.Seed)
	if err != nil {
		return nil, err
	}
	net, model, err := c.Load()
	if err != nil {
		return nil, err
	}
	if c.shards != "" {
		if c.index != "" || c.saveIndex != "" {
			return nil, fmt.Errorf("-index/-save-index do not apply in coordinator mode (-shards)")
		}
		groups, err := parseShardGroups(c.shards)
		if err != nil {
			return nil, err
		}
		dialCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		client, err := distrib.Dial(dialCtx, groups, distrib.Options{
			ShardDeadline:     c.shardDeadline,
			JournalHorizon:    c.journalHorizon,
			ReconcileInterval: c.reconcileInterval,
			JitterSeed:        c.Seed,
		})
		if err != nil {
			return nil, err
		}
		srv, err := coordinate(net, model, opts, client, c.serve)
		if err != nil {
			// Nothing took ownership of the client: stop its reconciler.
			client.Close()
			return nil, err
		}
		eff := c.serve.WithDefaults()
		logf("coordinating %d index shards over %d groups; %d workers, queue depth %d, cache %d entries",
			client.TotalShards(), len(groups), eff.PoolSize, eff.QueueDepth, eff.CacheCapacity)
		return srv, nil
	}

	var en *pitex.Engine
	if c.index != "" {
		f, err := os.Open(c.index)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		en, err = pitex.NewEngineWithIndex(net, model, opts, f)
		if err != nil {
			return nil, err
		}
		logf("index loaded in %v (%.2f MB) over %d users",
			en.IndexBuildTime, float64(en.IndexMemoryBytes())/(1<<20), net.NumUsers())
	} else {
		en, err = pitex.NewEngine(net, model, opts)
		if err != nil {
			return nil, err
		}
		if en.IndexBuildTime > 0 {
			logf("index built in %v (%.2f MB) over %d users",
				en.IndexBuildTime, float64(en.IndexMemoryBytes())/(1<<20), net.NumUsers())
		}
	}
	// Outside the build branch so -index input.idx -save-index output.idx
	// re-persists a loaded index instead of silently skipping the write.
	if c.saveIndex != "" {
		if err := saveIndexFile(en, c.saveIndex); err != nil {
			return nil, err
		}
		logf("index saved to %s", c.saveIndex)
	}
	srv, err := serve.New(en, c.serve)
	if err != nil {
		return nil, err
	}
	eff := c.serve.WithDefaults()
	logf("serving %s with %d engine workers, queue depth %d, cache %d entries",
		en.Strategy(), eff.PoolSize, eff.QueueDepth, eff.CacheCapacity)
	return srv, nil
}

// coordinate wraps a dialed fleet in a coordinator server, refusing a
// fleet that runs another strategy or serves another network.
func coordinate(net *pitex.Network, model *pitex.TagModel, opts pitex.Options, client *distrib.Client, sopts pitex.ServeOptions) (*serve.Server, error) {
	if got := client.Strategy(); got != opts.Strategy.String() {
		return nil, fmt.Errorf("shard servers run strategy %s, coordinator asked for %s", got, opts.Strategy)
	}
	en, err := pitex.NewRemoteEngine(net, model, opts, client)
	if err != nil {
		return nil, err
	}
	return serve.NewCoordinator(en, client, sopts)
}

// parseShardGroups splits the -shards syntax: groups separated by commas,
// replica endpoints within a group by '|'.
func parseShardGroups(spec string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(spec, ",") {
		var reps []string
		for _, r := range strings.Split(g, "|") {
			if r = strings.TrimSpace(r); r != "" {
				reps = append(reps, r)
			}
		}
		if len(reps) > 0 {
			groups = append(groups, reps)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("-shards %q names no endpoints", spec)
	}
	return groups, nil
}

// saveIndexFile writes the engine's offline structure atomically enough
// for a restart workflow: to a temp file first, synced, then renamed into
// place, so a crash or power loss mid-write never leaves a truncated index
// where -index expects a good one. A failed save removes its temp file.
func saveIndexFile(en *pitex.Engine, path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = en.SaveIndex(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
