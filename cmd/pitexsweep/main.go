// Command pitexsweep runs a whole-population (or cohort) selling-points
// sweep: one PITEX query per user, reduced into a leaderboard of the most
// influential users and a tag-frequency histogram, written as
// deterministic JSON. With -checkpoint the sweep persists completed
// chunks and -resume picks an interrupted run back up, producing
// byte-identical output to an uninterrupted one.
//
// Usage:
//
//	pitexsweep -dataset lastfm -strategy indexest+ -k 3 -top 50 -out board.json
//	pitexsweep -dataset lastfm -checkpoint sweep.ckpt            # killed midway
//	pitexsweep -dataset lastfm -checkpoint sweep.ckpt -resume    # finishes it
//	pitexsweep -network g.network -model g.model -users 0-999 -out board.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"pitex"
	"pitex/analytics"
	"pitex/obsv"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "generate this dataset (lastfm, diggs, dblp, twitter)")
		network  = flag.String("network", "", "network file (alternative to -dataset)")
		model    = flag.String("model", "", "tag model file (required with -network)")
		seed     = flag.Uint64("seed", 1, "generation / sampling seed")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (with -dataset)")
		strategy = flag.String("strategy", "indexest+", "lazy, mc, rr, tim, indexest, indexest+, delaymat")
		epsilon  = flag.Float64("epsilon", 0.7, "relative error bound")
		delta    = flag.Float64("delta", 1000, "failure probability control (1/delta)")
		maxSamp  = flag.Int64("max-samples", 5000, "per-estimation sample cap (0 = theoretical)")
		maxIdx   = flag.Int64("max-index-samples", 200000, "offline sample cap (0 = theoretical)")
		idxShard = flag.Int("index-shards", 0, "hash-partition the offline index into this many shards")

		k        = flag.Int("k", 3, "tag-set size per user query")
		topN     = flag.Int("top", 100, "leaderboard rows to keep")
		workers  = flag.Int("workers", 4, "concurrent engine clones")
		chunk    = flag.Int("chunk", analytics.DefaultChunkSize, "users per checkpointable chunk")
		usersArg = flag.String("users", "", "cohort: comma-separated user IDs and lo-hi ranges (default: everyone)")
		ckpt     = flag.String("checkpoint", "", "persist completed chunks to this file")
		resume   = flag.Bool("resume", false, "resume from -checkpoint if it exists")
		out      = flag.String("out", "", "write the leaderboard JSON here (default stdout)")
		progress = flag.Bool("progress", false, "log per-chunk progress to stderr")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()
	logger, err := obsv.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitexsweep:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	if err := run(logger, cfg{
		dataset: *dataset, network: *network, model: *model,
		seed: *seed, scale: *scale, strategy: *strategy,
		epsilon: *epsilon, delta: *delta, maxSamples: *maxSamp, maxIndexSamples: *maxIdx,
		indexShards: *idxShard,
		k:           *k, topN: *topN, workers: *workers, chunk: *chunk,
		users: *usersArg, checkpoint: *ckpt, resume: *resume,
		out: *out, progress: *progress,
	}); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

type cfg struct {
	dataset, network, model     string
	seed                        uint64
	scale                       float64
	strategy                    string
	epsilon, delta              float64
	maxSamples, maxIndexSamples int64
	indexShards                 int

	k, topN, workers, chunk int
	users                   string
	checkpoint              string
	resume                  bool
	out                     string
	progress                bool
}

func run(logger *slog.Logger, c cfg) error {
	strategy, err := pitex.ParseStrategy(c.strategy)
	if err != nil {
		return err
	}
	cohort, err := parseUsers(c.users)
	if err != nil {
		return err
	}

	var net *pitex.Network
	var tagModel *pitex.TagModel
	switch {
	case c.dataset != "":
		spec, err := pitex.BaseDatasetSpec(c.dataset)
		if err != nil {
			return err
		}
		if c.scale != 1.0 {
			spec = spec.Scaled(c.scale)
		}
		net, tagModel, err = pitex.GenerateDatasetSpec(spec, c.seed)
		if err != nil {
			return err
		}
	case c.network != "" && c.model != "":
		nf, err := os.Open(c.network)
		if err != nil {
			return err
		}
		defer nf.Close()
		net, err = pitex.ReadNetwork(nf)
		if err != nil {
			return err
		}
		mf, err := os.Open(c.model)
		if err != nil {
			return err
		}
		defer mf.Close()
		tagModel, err = pitex.ReadTagModel(mf)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need either -dataset or both -network and -model")
	}

	maxK := c.k
	if maxK < 10 {
		maxK = 10
	}
	en, err := pitex.NewEngine(net, tagModel, pitex.Options{
		Strategy:        strategy,
		Epsilon:         c.epsilon,
		Delta:           c.delta,
		MaxK:            maxK,
		Seed:            c.seed,
		MaxSamples:      c.maxSamples,
		MaxIndexSamples: c.maxIndexSamples,
		IndexShards:     c.indexShards,
	})
	if err != nil {
		return err
	}
	if en.IndexBuildTime > 0 {
		logger.Info("index built", "elapsed", en.IndexBuildTime.String(),
			"mb", fmt.Sprintf("%.2f", float64(en.IndexMemoryBytes())/(1<<20)))
	}

	opts := analytics.Options{
		K:              c.k,
		TopN:           c.topN,
		Workers:        c.workers,
		ChunkSize:      c.chunk,
		Users:          cohort,
		CheckpointPath: c.checkpoint,
		Resume:         c.resume,
	}
	if c.progress {
		opts.OnProgress = func(p analytics.Progress) {
			logger.Info("progress",
				"chunks_done", p.ChunksDone, "chunks_total", p.ChunksTotal,
				"users_done", p.UsersDone, "users_total", p.UsersTotal)
		}
	}

	// SIGINT/SIGTERM cancel the sweep; completed chunks flush to the
	// checkpoint, so a later -resume run continues from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lb, err := analytics.Run(ctx, en, opts)
	if err != nil {
		return err
	}
	w := os.Stdout
	if c.out != "" {
		f, err := os.Create(c.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return lb.WriteJSON(w)
}

// parseUsers parses the -users cohort syntax: comma-separated user IDs
// and inclusive lo-hi ranges, e.g. "3,10-19,42".
func parseUsers(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(strings.TrimSpace(lo))
			b, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad -users range %q", part)
			}
			for u := a; u <= b; u++ {
				out = append(out, u)
			}
			continue
		}
		u, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad -users entry %q", part)
		}
		out = append(out, u)
	}
	return out, nil
}
