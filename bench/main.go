// Command bench is pitex's end-to-end benchmark: five closed-loop
// workloads driven against the real serving stack in one process — a
// serve.Server, or a coordinator over three shard servers, behind loopback
// net/http listeners — with six end-to-end metrics per workload and an
// outside-in layer trace. It touches no code of the program under test:
// layers are measured by timing calls into their public functions and by
// decorating the two public interfaces the stack already accepts.
//
//	go run ./bench -seed 1                 # every workload, both phases
//	go run ./bench -workload hot-cache     # one workload
//	go run ./bench -workload cold-query -seed 7 -seconds 15 -trace 0
//
// The last form is the driver contract of BENCHMARK.json: with -trace 0
// or 1 and a single workload, the last line of standard output is one JSON
// object with the end-to-end (0) or per-layer (1) metrics. README.md in
// this directory explains the workloads, the metrics and how they map to
// layers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p95_ms", "live_heap_mb", "alloc_kb_per_op"}

// config is the parsed command line.
type config struct {
	seed     uint64
	workload string  // "" = all
	scale    string  // full | tiny
	out      string  // directory for trace-*.json and results.json; "" writes nothing
	seconds  float64 // measured time per workload, split across the passes
	trace    int     // -1 both phases, 0 end-to-end only, 1 per-layer only
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Name      string            `json:"name"`
	Digest    string            `json:"answers_digest,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// PassSpreadShare is (max-min)/median of ops_per_s over the passes: a
	// noise indicator, not a metric of the system.
	PassSpreadShare float64 `json:"harness.pass_spread_share,omitempty"`
}

func main() {
	var cfg config
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the request sequence (users, Zipf draws, hot keys, update batches); the dataset and engine seed are pinned")
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all five)")
	flag.StringVar(&cfg.scale, "scale", "full", "full, or tiny (smoke-test sizes, not for measurement)")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for trace-<workload>.json and results.json")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per workload, split over the passes")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end passes only; 1: traced per-layer phase only; -1: both")
	flag.Parse()
	reports, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, r := range reports {
		if r.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed or answered wrongly\n", r.Name, r.Failed, r.Attempted)
			os.Exit(1)
		}
	}
}

// run executes the selected workloads and phases, prints the report to
// out, and returns it. An error means the benchmark could not run; wrong
// answers are reported through Failed.
func run(ctx context.Context, cfg config, out io.Writer) ([]workloadReport, error) {
	if cfg.seed == 0 {
		cfg.seed = 1 // the engine's own default for a zero seed
	}
	if cfg.seconds <= 0 || cfg.trace < -1 || cfg.trace > 1 {
		return nil, fmt.Errorf("bad -seconds %v or -trace %d", cfg.seconds, cfg.trace)
	}
	all, err := workloads(cfg.scale)
	if err != nil {
		return nil, err
	}
	var selected []workload
	var names []string
	for _, w := range all {
		names = append(names, w.name)
		if cfg.workload == "" || cfg.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown -workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	var reports []workloadReport
	for i := range selected {
		w := &selected[i]
		rep := workloadReport{Name: w.name}
		fmt.Fprintf(out, "== %s (seed %d, scale %s)\n", w.name, cfg.seed, cfg.scale)
		if cfg.trace != 1 {
			res, err := runEndToEnd(ctx, w, cfg.seed, cfg.seconds)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.EndToEnd = res.metrics
			rep.Attempted += res.attempted
			rep.Failed += res.failed
			rep.PassSpreadShare = ratio(spread(res.passOpsPerS), res.metrics["ops_per_s"].Value)
			if w.deterministic() {
				rep.Digest = fmt.Sprintf("%016x", res.digest)
			}
			printMetrics(out, endToEnd, res.metrics)
			fmt.Fprintf(out, "  %-36s %14.6g %-6s (attempted %d)\n", "failed_share",
				ratio(float64(res.failed), float64(res.attempted)), "ratio", res.attempted)
			fmt.Fprintf(out, "  %-36s %14.6g %-6s (n=%d passes)\n", "harness.pass_spread_share",
				rep.PassSpreadShare, "ratio", numPasses)
			if rep.Digest == "" {
				fmt.Fprintf(out, "  answers_digest n/a: DELAYMAT answers depend on which pool clone served the request\n")
			} else {
				fmt.Fprintf(out, "  answers_digest %s (first %d ops)\n", rep.Digest, w.digestOps)
			}
		}
		if cfg.trace != 0 {
			res, err := runTraced(ctx, w, cfg.seed)
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", w.name, err)
			}
			rep.PerLayer = res.metrics
			rep.Attempted += res.attempted
			rep.Failed += res.failed
			var order []string
			for _, pl := range perLayer {
				order = append(order, pl.name)
			}
			printMetrics(out, order, res.metrics)
			if cfg.out != "" {
				if err := res.tr.write(cfg.out, w.name); err != nil {
					return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
				}
			}
		}
		reports = append(reports, rep)
	}
	if cfg.out != "" && cfg.trace == -1 {
		if err := writeResults(cfg, reports); err != nil {
			return nil, err
		}
	}
	if len(reports) == 1 && cfg.trace >= 0 {
		if err := printResultLine(out, reports[0], cfg.trace); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

func spread(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Max(vals) - slices.Min(vals)
}

// printMetrics prints one "name value unit (n=samples)" row per metric.
func printMetrics(out io.Writer, order []string, metrics map[string]metric) {
	for _, name := range order {
		m := metrics[name]
		fmt.Fprintf(out, "  %-36s %14.6g %-6s (n=%d)\n", name, m.Value, m.Unit, m.N)
	}
}

// printResultLine prints the driver's result object as the last line.
func printResultLine(out io.Writer, rep workloadReport, trace int) error {
	metrics := rep.EndToEnd
	if trace == 1 {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// writeResults saves the full report next to the traces.
func writeResults(cfg config, reports []workloadReport) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"seed": cfg.seed, "scale": cfg.scale, "seconds": cfg.seconds, "workloads": reports,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "results.json"), append(data, '\n'), 0o644)
}
