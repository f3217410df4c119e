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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr mux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/internal/faultinject"
	"pitex/obsv"
	"pitex/serve"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "generate this dataset (lastfm, diggs, dblp, twitter)")
		network  = flag.String("network", "", "network file (alternative to -dataset)")
		model    = flag.String("model", "", "tag model file (required with -network)")
		index    = flag.String("index", "", "offline index file written by SaveIndex (skips construction)")
		saveIdx  = flag.String("save-index", "", "write the offline index here after construction, so the next restart can -index it")
		track    = flag.Bool("track-updates", true, "keep incremental-repair bookkeeping for /admin/update (DelayMat pays extra memory)")
		seed     = flag.Uint64("seed", 1, "generation / sampling seed")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (with -dataset)")
		strategy = flag.String("strategy", "indexest+", "lazy, mc, rr, tim, indexest, indexest+, delaymat")
		epsilon  = flag.Float64("epsilon", 0.7, "relative error bound")
		delta    = flag.Float64("delta", 1000, "failure probability control (1/delta)")
		maxSamp  = flag.Int64("max-samples", 5000, "per-estimation sample cap (0 = theoretical)")
		maxIdx   = flag.Int64("max-index-samples", 200000, "offline sample cap (0 = theoretical)")
		idxShard = flag.Int("index-shards", 0, "hash-partition the offline index into this many shards (0/1 = monolithic)")
		cheap    = flag.Bool("cheap-bounds", true, "use one-BFS upper bounds in best-effort exploration (online strategies only; index and coordinator engines always bound through the frontier batch)")
		maxK     = flag.Int("max-k", 10, "largest supported query size k")

		shardsFl = flag.String("shards", "", "coordinator mode: shard-server groups, comma-separated; replicas within a group separated by '|' (e.g. 'h1:8501|h1b:8501,h2:8502')")
		shardTO  = flag.Duration("shard-deadline", 2*time.Second, "per-shard-group fetch deadline in coordinator mode (hedges included)")
		horizon  = flag.Int("journal-horizon", 0, "update-journal depth in generations for endpoint catch-up replay (0 = default)")
		healIntv = flag.Duration("reconcile-interval", 0, "anti-entropy reconciler poll interval (0 = default, negative disables)")

		addr     = flag.String("addr", "localhost:8437", "listen address")
		pool     = flag.Int("pool", 0, "engine pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admission queue depth beyond the pool (0 = 4x pool, negative = no queue)")
		queueTO  = flag.Duration("queue-timeout", 5*time.Second, "max wait for a free engine (0 = 5s default, negative = none)")
		queryTO  = flag.Duration("query-timeout", 0, "per-query deadline (0 = 30s default, negative = none)")
		cacheCap = flag.Int("cache", 4096, "result cache capacity in entries (negative disables)")
		shards   = flag.Int("cache-shards", 16, "cache shard count")
		sweepDir = flag.String("sweep-checkpoint-dir", "", "directory for POST /admin/jobs checkpoint files (empty rejects checkpointed jobs over HTTP)")
		drainTO  = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight HTTP requests on shutdown")

		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")

		faults    = flag.String("faults", "", "deterministic fault-injection spec for chaos testing, e.g. 'distrib/roundtrip:latency=50ms:p=0.1' (never enable in production)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed of the fault-injection schedule (with -faults)")
	)
	flag.Parse()
	logger, err := obsv.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitexserve:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	if *faults != "" {
		rules, err := faultinject.Parse(*faults)
		if err == nil {
			err = faultinject.Enable(*faultSeed, rules)
		}
		if err != nil {
			logger.Error("bad -faults", "err", err)
			os.Exit(1)
		}
		logger.Warn("fault injection ENABLED", "spec", *faults, "seed", *faultSeed)
	}
	// All the work lives in run so cleanup (pool shutdown, job
	// cancellation) executes on the error path too — os.Exit straight
	// from main after ListenAndServe fails would skip it.
	if err := run(logger, buildConfig{
		dataset: *dataset, network: *network, model: *model, index: *index,
		saveIndex: *saveIdx, trackUpdates: *track,
		seed: *seed, scale: *scale, strategy: *strategy,
		epsilon: *epsilon, delta: *delta, maxSamples: *maxSamp,
		maxIndexSamples: *maxIdx, indexShards: *idxShard, cheapBounds: *cheap, maxK: *maxK,
		shards: *shardsFl, shardDeadline: *shardTO,
		journalHorizon: *horizon, reconcileInterval: *healIntv,
	}, pitex.ServeOptions{
		PoolSize: *pool, QueueDepth: *queue,
		QueueTimeout: *queueTO, QueryTimeout: *queryTO,
		CacheCapacity: *cacheCap, CacheShards: *shards,
		SweepCheckpointDir: *sweepDir,
	}, *debugAddr, *addr, *drainTO); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger, cfg buildConfig, sopts pitex.ServeOptions, debugAddr, addr string, drainTO time.Duration) error {
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
	srv, err := setup(cfg, sopts, logf)
	if err != nil {
		return err
	}
	defer srv.Close()
	if debugAddr != "" {
		// The pprof import registers on http.DefaultServeMux; keep that
		// mux off the main listener so profiling stays on its own port.
		go func() {
			logger.Info("debug server listening", "addr", debugAddr)
			if err := http.ListenAndServe(debugAddr, nil); err != nil {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// SIGINT/SIGTERM drain in-flight requests, then the pool shuts down.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		// A bounded drain: Shutdown with a background context would wait
		// forever on a stuck client holding its connection open. Past the
		// timeout, remaining connections are force-closed.
		ctx, cancel := context.WithTimeout(context.Background(), drainTO)
		if err := httpSrv.Shutdown(ctx); err != nil {
			_ = httpSrv.Close()
		}
		cancel()
		close(idle)
	}()
	logger.Info("listening", "addr", addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-idle
	logger.Info("shutdown complete")
	return nil
}

// buildConfig collects the engine-construction flags.
type buildConfig struct {
	dataset, network, model, index string
	saveIndex                      string
	trackUpdates                   bool
	seed                           uint64
	scale                          float64
	strategy                       string
	epsilon, delta                 float64
	maxSamples, maxIndexSamples    int64
	indexShards                    int
	cheapBounds                    bool
	maxK                           int
	// shards switches setup into coordinator mode: a distrib client is
	// dialed over the groups and the server scatters to them instead of
	// holding a local index.
	shards            string
	shardDeadline     time.Duration
	journalHorizon    int
	reconcileInterval time.Duration
}

// setup builds the engine (running or loading the offline phase) and wraps
// it in the serving subsystem. logf receives progress lines.
func setup(cfg buildConfig, sopts pitex.ServeOptions, logf func(string, ...any)) (*serve.Server, error) {
	strategy, err := pitex.ParseStrategy(cfg.strategy)
	if err != nil {
		return nil, err
	}

	var net *pitex.Network
	var model *pitex.TagModel
	switch {
	case cfg.dataset != "":
		spec, err := pitex.BaseDatasetSpec(cfg.dataset)
		if err != nil {
			return nil, err
		}
		if cfg.scale != 1.0 {
			spec = spec.Scaled(cfg.scale)
		}
		net, model, err = pitex.GenerateDatasetSpec(spec, cfg.seed)
		if err != nil {
			return nil, err
		}
	case cfg.network != "" && cfg.model != "":
		nf, err := os.Open(cfg.network)
		if err != nil {
			return nil, err
		}
		defer nf.Close()
		net, err = pitex.ReadNetwork(nf)
		if err != nil {
			return nil, err
		}
		mf, err := os.Open(cfg.model)
		if err != nil {
			return nil, err
		}
		defer mf.Close()
		model, err = pitex.ReadTagModel(mf)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("need either -dataset or both -network and -model")
	}

	opts := pitex.Options{
		Strategy:        strategy,
		Epsilon:         cfg.epsilon,
		Delta:           cfg.delta,
		MaxK:            cfg.maxK,
		Seed:            cfg.seed,
		MaxSamples:      cfg.maxSamples,
		MaxIndexSamples: cfg.maxIndexSamples,
		IndexShards:     cfg.indexShards,
		CheapBounds:     cfg.cheapBounds,
		TrackUpdates:    cfg.trackUpdates,
	}
	if cfg.shards != "" {
		if cfg.index != "" || cfg.saveIndex != "" {
			return nil, fmt.Errorf("-index/-save-index do not apply in coordinator mode (-shards)")
		}
		groups, err := parseShardGroups(cfg.shards)
		if err != nil {
			return nil, err
		}
		dialCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		client, err := distrib.Dial(dialCtx, groups, distrib.Options{
			ShardDeadline:     cfg.shardDeadline,
			JournalHorizon:    cfg.journalHorizon,
			ReconcileInterval: cfg.reconcileInterval,
			JitterSeed:        cfg.seed,
		})
		if err != nil {
			return nil, err
		}
		srv, err := coordinate(net, model, opts, client, sopts)
		if err != nil {
			// Nothing took ownership of the client: stop its reconciler.
			client.Close()
			return nil, err
		}
		eff := sopts.WithDefaults()
		logf("coordinating %d index shards over %d groups; %d workers, queue depth %d, cache %d entries",
			client.TotalShards(), len(groups), eff.PoolSize, eff.QueueDepth, eff.CacheCapacity)
		return srv, nil
	}

	var en *pitex.Engine
	if cfg.index != "" {
		f, err := os.Open(cfg.index)
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
	if cfg.saveIndex != "" {
		if err := saveIndexFile(en, cfg.saveIndex); err != nil {
			return nil, err
		}
		logf("index saved to %s", cfg.saveIndex)
	}
	srv, err := serve.New(en, sopts)
	if err != nil {
		return nil, err
	}
	eff := sopts.WithDefaults()
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
