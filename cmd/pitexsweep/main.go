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
	"pitex/internal/cli"
	"pitex/obsv"
)

// config is pitexsweep's flag set.
type config struct {
	cli.Inputs
	cli.Engine
	k, topN, workers, chunk int
	users                   string
	checkpoint              string
	resume                  bool
	out                     string
	progress                bool
	logFormat               string
}

func (c *config) register(fs *flag.FlagSet) {
	c.Inputs.Register(fs)
	// MaxK follows -k (at least 10).
	c.Engine.Register(fs, "indexest+", "max-k")
	fs.Lookup("index-shards").Usage = "hash-partition the offline index into this many shards"
	fs.IntVar(&c.k, "k", 3, "tag-set size per user query")
	fs.IntVar(&c.topN, "top", 100, "leaderboard rows to keep")
	fs.IntVar(&c.workers, "workers", 4, "concurrent engine clones")
	fs.IntVar(&c.chunk, "chunk", analytics.DefaultChunkSize, "users per checkpointable chunk")
	fs.StringVar(&c.users, "users", "", "cohort: comma-separated user IDs and lo-hi ranges (default: everyone)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "persist completed chunks to this file")
	fs.BoolVar(&c.resume, "resume", false, "resume from -checkpoint if it exists")
	fs.StringVar(&c.out, "out", "", "write the leaderboard JSON here (default stdout)")
	fs.BoolVar(&c.progress, "progress", false, "log per-chunk progress to stderr")
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text or json")
}

func main() {
	var c config
	c.register(flag.CommandLine)
	flag.Parse()
	logger, err := obsv.NewLogger(os.Stderr, c.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitexsweep:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	if err := run(logger, c); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger, c config) error {
	opts, err := c.Options(c.Seed)
	if err != nil {
		return err
	}
	opts.MaxK = max(c.k, 10)
	net, model, err := c.Load()
	if err != nil {
		return err
	}
	// The cohort is checked against the network before any range is
	// expanded or the index is built.
	cohort, err := parseUsers(c.users, net.NumUsers())
	if err != nil {
		return err
	}
	en, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		return err
	}
	if en.IndexBuildTime > 0 {
		logger.Info("index built", "elapsed", en.IndexBuildTime.String(),
			"mb", fmt.Sprintf("%.2f", float64(en.IndexMemoryBytes())/(1<<20)))
	}

	aopts := analytics.Options{
		K:              c.k,
		TopN:           c.topN,
		Workers:        c.workers,
		ChunkSize:      c.chunk,
		Users:          cohort,
		CheckpointPath: c.checkpoint,
		Resume:         c.resume,
	}
	if c.progress {
		aopts.OnProgress = func(p analytics.Progress) {
			logger.Info("progress",
				"chunks_done", p.ChunksDone, "chunks_total", p.ChunksTotal,
				"users_done", p.UsersDone, "users_total", p.UsersTotal)
		}
	}

	// SIGINT/SIGTERM cancel the sweep; completed chunks flush to the
	// checkpoint, so a later -resume run continues from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lb, err := analytics.Run(ctx, en, aopts)
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
// and inclusive lo-hi ranges, e.g. "3,10-19,42". Every ID must lie in
// [0, n), and a range is checked before it is expanded.
func parseUsers(s string, n int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, isRange := strings.Cut(part, "-")
		if !isRange {
			hi = lo
		}
		a, err1 := strconv.Atoi(strings.TrimSpace(lo))
		b, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || a > b {
			return nil, fmt.Errorf("bad -users entry %q", part)
		}
		if b >= n {
			return nil, fmt.Errorf("-users entry %q outside [0,%d)", part, n)
		}
		for u := a; u <= b; u++ {
			out = append(out, u)
		}
	}
	return out, nil
}
