// Package cli is the command-line front end the engine commands
// (pitexserve, pitexshard, pitexquery, pitexsweep) share: the flags that
// name a network and tag model (Inputs), the engine flags every process
// of a fleet must agree on to derive the same θ from Eq. 7 (Engine), and
// a server process's logging, fault injection and signal-drained serve
// loop (Process). Each command registers these on its flag set next to
// its own flags.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr mux
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"pitex"
	"pitex/internal/faultinject"
	"pitex/obsv"
)

// Inputs holds the flags naming the network and tag model: a generated
// -dataset (at -scale) or a -network/-model file pair. -seed also seeds
// the engine (Engine.Options).
type Inputs struct {
	Dataset, Network, Model string
	Scale                   float64
	Seed                    uint64
}

// Register adds the input flags to fs.
func (in *Inputs) Register(fs *flag.FlagSet) {
	fs.StringVar(&in.Dataset, "dataset", "", "generate this dataset (lastfm, diggs, dblp, twitter)")
	fs.StringVar(&in.Network, "network", "", "network file (alternative to -dataset)")
	fs.StringVar(&in.Model, "model", "", "tag model file (required with -network)")
	fs.Float64Var(&in.Scale, "scale", 1.0, "dataset scale factor (with -dataset)")
	fs.Uint64Var(&in.Seed, "seed", 1, "generation / sampling seed")
}

// Load generates the dataset or reads the file pair. It refuses a mix
// of the two, and a -scale next to files, instead of ignoring one side.
func (in Inputs) Load() (*pitex.Network, *pitex.TagModel, error) {
	switch {
	case in.Dataset != "" && (in.Network != "" || in.Model != ""):
		return nil, nil, errors.New("-dataset conflicts with -network/-model: give one or the other")
	case in.Dataset != "":
		spec, err := pitex.BaseDatasetSpec(in.Dataset)
		if err != nil {
			return nil, nil, err
		}
		if in.Scale != 1.0 {
			spec = spec.Scaled(in.Scale)
		}
		return pitex.GenerateDatasetSpec(spec, in.Seed)
	case in.Network == "" || in.Model == "":
		return nil, nil, errors.New("need either -dataset or both -network and -model")
	case in.Scale != 1.0:
		return nil, nil, errors.New("-scale applies to -dataset only, not to -network/-model")
	}
	net, err := readFile(in.Network, pitex.ReadNetwork)
	if err != nil {
		return nil, nil, err
	}
	model, err := readFile(in.Model, pitex.ReadTagModel)
	if err != nil {
		return nil, nil, err
	}
	return net, model, nil
}

func readFile[T any](path string, read func(io.Reader) (T, error)) (v T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return v, err
	}
	defer f.Close()
	return read(f)
}

// Engine holds the engine flags. Every process of a fleet derives the
// index's θ from -epsilon, -delta, -max-k, -max-index-samples and
// -index-shards, so they must agree fleet-wide.
type Engine struct {
	Strategy                    string
	Epsilon, Delta              float64
	MaxSamples, MaxIndexSamples int64
	IndexShards, MaxK           int
}

// Register adds the engine flags to fs, -strategy defaulting to
// strategy. A flag named in omit is left out; its field keeps the
// default.
func (e *Engine) Register(fs *flag.FlagSet, strategy string, omit ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.StringVar(&e.Strategy, "strategy", strategy, "lazy, mc, rr, tim, indexest, indexest+, delaymat")
	all.Float64Var(&e.Epsilon, "epsilon", 0.7, "relative error bound")
	all.Float64Var(&e.Delta, "delta", 1000, "failure probability control (1/delta)")
	all.Int64Var(&e.MaxSamples, "max-samples", 5000, "per-estimation sample cap (0 = theoretical)")
	all.Int64Var(&e.MaxIndexSamples, "max-index-samples", 200000, "offline sample cap (0 = theoretical)")
	all.IntVar(&e.IndexShards, "index-shards", 0, "hash-partition the offline index into this many shards (0/1 = monolithic)")
	all.IntVar(&e.MaxK, "max-k", 10, "largest supported query size k")
	all.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(omit, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
}

// Options parses -strategy and assembles the engine options, seeded by
// the shared -seed.
func (e Engine) Options(seed uint64) (pitex.Options, error) {
	strategy, err := pitex.ParseStrategy(e.Strategy)
	if err != nil {
		return pitex.Options{}, err
	}
	return pitex.Options{
		Strategy:        strategy,
		Epsilon:         e.Epsilon,
		Delta:           e.Delta,
		MaxK:            e.MaxK,
		Seed:            seed,
		MaxSamples:      e.MaxSamples,
		MaxIndexSamples: e.MaxIndexSamples,
		IndexShards:     e.IndexShards,
	}, nil
}

// Process holds a server process's flags: log format, pprof listener,
// fault injection and the shutdown drain bound.
type Process struct {
	LogFormat, DebugAddr, Faults string
	FaultSeed                    uint64
	DrainTimeout                 time.Duration
}

// Register adds the process flags to fs.
func (p *Process) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.LogFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&p.DebugAddr, "debug-addr", "", "serve net/http/pprof on this address (empty disables)")
	fs.StringVar(&p.Faults, "faults", "", "deterministic fault-injection spec for chaos testing, e.g. 'distrib/roundtrip:latency=50ms:p=0.1' (never enable in production)")
	fs.Uint64Var(&p.FaultSeed, "fault-seed", 1, "seed of the fault-injection schedule (with -faults)")
	fs.DurationVar(&p.DrainTimeout, "drain-timeout", 10*time.Second, "max time to drain in-flight HTTP requests on shutdown")
}

// Start makes the process logger, also slog's default, and enables the
// -faults schedule.
func (p Process) Start() (*slog.Logger, error) {
	logger, err := obsv.NewLogger(os.Stderr, p.LogFormat)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(logger)
	if p.Faults == "" {
		return logger, nil
	}
	rules, err := faultinject.Parse(p.Faults)
	if err == nil {
		err = faultinject.Enable(p.FaultSeed, rules)
	}
	if err != nil {
		return nil, fmt.Errorf("bad -faults: %w", err)
	}
	logger.Warn("fault injection ENABLED", "spec", p.Faults, "seed", p.FaultSeed)
	return logger, nil
}

// Server is what Serve runs.
type Server interface {
	Handler() http.Handler
	// Close releases the server once its listener has drained.
	Close()
}

// Serve answers on addr, and with pprof on -debug-addr, until SIGINT or
// SIGTERM. It then drains in-flight requests for at most -drain-timeout,
// force-closing the connections left, and closes srv. srv is closed on
// the error path too.
func (p Process) Serve(logger *slog.Logger, addr string, srv Server) error {
	defer srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("listening", "addr", addr)
	return p.serve(ctx, logger, ln, srv.Handler())
}

// serve is Serve's loop on an open listener, stopped by ctx.
func (p Process) serve(ctx context.Context, logger *slog.Logger, ln net.Listener, h http.Handler) error {
	if p.DebugAddr != "" {
		// The pprof import registers on http.DefaultServeMux; keep that
		// mux off the main listener so profiling stays on its own port.
		go func() {
			logger.Info("debug server listening", "addr", p.DebugAddr)
			if err := http.ListenAndServe(p.DebugAddr, nil); err != nil {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	// A bounded drain: Shutdown with a background context would wait
	// forever on a stuck client holding its connection open.
	drain, cancel := context.WithTimeout(context.Background(), p.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drain); err != nil {
		_ = httpSrv.Close()
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}
