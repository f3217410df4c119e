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
// graph is shared; only the index is partitioned), so the -dataset/-seed
// or -network/-model flags must match across the fleet.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"pitex"
	"pitex/internal/faultinject"
	"pitex/obsv"
	"pitex/serve"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "generate this dataset (lastfm, diggs, dblp, twitter)")
		network  = flag.String("network", "", "network file (alternative to -dataset)")
		model    = flag.String("model", "", "tag model file (required with -network)")
		seed     = flag.Uint64("seed", 1, "generation / sampling seed (must match the coordinator)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (with -dataset)")
		strategy = flag.String("strategy", "indexest+", "indexest or indexest+ (the strategies a fleet can serve)")
		epsilon  = flag.Float64("epsilon", 0.7, "relative error bound")
		delta    = flag.Float64("delta", 1000, "failure probability control (1/delta)")
		maxSamp  = flag.Int64("max-samples", 5000, "per-estimation sample cap (0 = theoretical)")
		maxIdx   = flag.Int64("max-index-samples", 200000, "offline sample cap (0 = theoretical)")
		idxShard = flag.Int("index-shards", 1, "total shard count S of the cluster layout")
		maxK     = flag.Int("max-k", 10, "largest supported query size k (must match the coordinator)")

		own     = flag.String("own", "", "comma-separated shard ids this server holds (default: all of [0,S))")
		addr    = flag.String("addr", "localhost:8501", "listen address")
		workers = flag.Int("workers", 0, "concurrent estimation workers (0 = default)")
		queue   = flag.Int("queue", 0, "admission queue depth behind the workers (0 = default)")
		queueTO = flag.Duration("queue-timeout", 0, "max wait for a free worker (0 = default)")
		drainTO = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight HTTP requests on shutdown")

		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")

		faults    = flag.String("faults", "", "deterministic fault-injection spec for chaos testing, e.g. 'serve/shard/estimate:error:p=0.05' (never enable in production)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed of the fault-injection schedule (with -faults)")
	)
	flag.Parse()
	logger, err := obsv.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitexshard:", err)
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
	if err := run(logger, shardConfig{
		dataset: *dataset, network: *network, model: *model, seed: *seed, scale: *scale,
		strategy: *strategy, epsilon: *epsilon, delta: *delta,
		maxSamples: *maxSamp, maxIndexSamples: *maxIdx,
		indexShards: *idxShard, maxK: *maxK, own: *own,
		workers: *workers, queue: *queue, queueTimeout: *queueTO,
	}, *debugAddr, *addr, *drainTO); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger, cfg shardConfig, debugAddr, addr string, drainTO time.Duration) error {
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
	ss, err := setup(cfg, logf)
	if err != nil {
		return err
	}
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
		Handler:           ss.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		// Bounded drain, same as pitexserve: never let a stuck client
		// hold shutdown hostage.
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

type shardConfig struct {
	dataset, network, model     string
	seed                        uint64
	scale                       float64
	strategy                    string
	epsilon, delta              float64
	maxSamples, maxIndexSamples int64
	indexShards                 int
	maxK                        int
	own                         string
	workers, queue              int
	queueTimeout                time.Duration
}

func setup(cfg shardConfig, logf func(string, ...any)) (*serve.ShardServer, error) {
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

	owned, err := parseOwned(cfg.own)
	if err != nil {
		return nil, err
	}
	ss, err := serve.NewShardServer(net, model, pitex.Options{
		Strategy:        strategy,
		Epsilon:         cfg.epsilon,
		Delta:           cfg.delta,
		MaxK:            cfg.maxK,
		Seed:            cfg.seed,
		MaxSamples:      cfg.maxSamples,
		MaxIndexSamples: cfg.maxIndexSamples,
		IndexShards:     cfg.indexShards,
	}, serve.ShardConfig{
		TotalShards:  cfg.indexShards,
		Owned:        owned,
		Workers:      cfg.workers,
		QueueDepth:   cfg.queue,
		QueueTimeout: cfg.queueTimeout,
	})
	if err != nil {
		return nil, err
	}
	if len(owned) == 0 {
		logf("building all %d shard slices for %s over %d users", max(1, cfg.indexShards), strategy, net.NumUsers())
	} else {
		logf("building shard slices %v of %d for %s over %d users", owned, cfg.indexShards, strategy, net.NumUsers())
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
