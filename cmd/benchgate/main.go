// Command benchgate fails CI when a fresh benchmark run regresses
// against the committed baseline:
//
//	benchgate -baseline BENCH_query.json -baseline-run sharded_pr4 \
//	          -fresh bench-artifacts/BENCH_query.json
//
// The baseline is either a flat array of rows (the cmd/benchjson output
// shape) or the repository's curated BENCH_query.json, whose runs map
// holds one row list per recorded run (-baseline-run selects which). Rows
// are matched per strategy; a match fails the gate when ns_per_op exceeds
// baseline·-max-ns-ratio (default 1.25, i.e. >25% slower) or
// allocs_per_op exceeds baseline·-max-allocs-ratio (default 1.10). A
// baseline row with no fresh counterpart fails the gate too, named — a
// gated benchmark that was renamed, moved or filtered out would otherwise
// read as a pass.
//
// Baselines are recorded on whatever machine cut the PR, while CI runners
// have their own (and varying) speed, so raw wall-clock comparisons would
// gate on hardware rather than code. With four or more matched rows the
// ns check therefore self-calibrates: the median fresh/baseline ns ratio
// is taken as the machine-speed factor (floored at 1 so a fast runner
// never tightens the gate), and a strategy fails only when it is >25%
// slower than that shared drift — i.e. it regressed relative to its
// peers. A uniform slowdown across every strategy hides inside the
// factor; the allocation gate (machine-independent) is the backstop for
// those. Pass -no-ns-calibrate to compare raw wall-clock instead.
//
// Multi-threaded benchmarks (e.g. the Sweep/* rows, which fan work over
// worker goroutines) scale with the runner's core count rather than its
// single-thread speed, so neither the raw comparison nor the calibration
// factor fits them: exempt such rows from the ns gate with
// -ns-skip '^Sweep/' — their allocation counts are still gated.
//
// Rows that report scatters_per_op (the BENCH_distrib.json shape written
// by cmd/benchjson -distrib) are also gated on it, with no tolerance: a
// query's scatter count is a deterministic count of best-first rounds, so
// any increase is a change in the search, not noise.
//
//	benchgate -baseline BENCH_distrib.json -baseline-run pr31_round_batched \
//	          -fresh bench-artifacts/BENCH_distrib.json -ns-skip '^DistribScatter/'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// row is one benchmark measurement, shared by both baseline formats.
type row struct {
	Name        string   `json:"name"`
	Strategy    string   `json:"strategy"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// ScattersPerOp is set on distributed rows only.
	ScattersPerOp *float64 `json:"scatters_per_op"`
}

// curatedFile is the committed BENCH_query.json shape: named runs, each
// with a result list.
type curatedFile struct {
	Runs map[string]struct {
		Results []row `json:"results"`
	} `json:"runs"`
}

var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// key identifies a row across runs: the strategy when present, otherwise
// the benchmark name with the GOMAXPROCS suffix stripped.
func (r row) key() string {
	if r.Strategy != "" {
		return r.Strategy
	}
	return procSuffix.ReplaceAllString(r.Name, "")
}

// loadRows reads a baseline or fresh file, resolving the curated runs-map
// format through runName (required for that format, ignored for flat
// arrays).
func loadRows(path, runName string) ([]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var flat []row
	if err := json.Unmarshal(data, &flat); err == nil {
		return flat, nil
	}
	var curated curatedFile
	if err := json.Unmarshal(data, &curated); err != nil || len(curated.Runs) == 0 {
		return nil, fmt.Errorf("%s: neither a row array nor a runs map", path)
	}
	if runName == "" {
		return nil, fmt.Errorf("%s holds runs %v; pick one with -baseline-run", path, runNames(curated))
	}
	run, ok := curated.Runs[runName]
	if !ok {
		return nil, fmt.Errorf("%s has no run %q (have %v)", path, runName, runNames(curated))
	}
	return run.Results, nil
}

func runNames(c curatedFile) []string {
	names := make([]string, 0, len(c.Runs))
	for n := range c.Runs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// minRowsForCalibration is how many matched rows the ns check needs
// before the median fresh/baseline ratio is a usable machine-speed
// estimate; below it the factor would be dominated by the very rows it
// is supposed to judge.
const minRowsForCalibration = 4

// machineFactor estimates how much slower the fresh machine is than the
// baseline one: the median fresh/baseline ns ratio over matched rows,
// floored at 1 (a faster runner keeps the raw gate — everything sits
// below threshold anyway unless genuinely regressed). Rows exempted from
// the ns gate (nsSkip) are excluded: they run multi-threaded, so their
// ratio tracks core count, not the single-thread speed the factor models.
func machineFactor(baseline map[string]row, fresh []row, nsSkip *regexp.Regexp) float64 {
	var ratios []float64
	for _, f := range fresh {
		if nsSkip != nil && nsSkip.MatchString(f.key()) {
			continue
		}
		if b, ok := baseline[f.key()]; ok && b.NsPerOp > 0 && f.NsPerOp > 0 {
			ratios = append(ratios, f.NsPerOp/b.NsPerOp)
		}
	}
	if len(ratios) < minRowsForCalibration {
		return 1
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	median := ratios[mid]
	if len(ratios)%2 == 0 {
		median = (ratios[mid-1] + ratios[mid]) / 2
	}
	if median < 1 {
		return 1
	}
	return median
}

// gate compares fresh rows against the baseline and returns one message
// per regression plus how many rows matched. calibrate enables the
// median-ratio machine-speed correction on the ns check (see the package
// comment). Rows whose key matches nsSkip are held to the (machine-
// independent) allocation gate only: multi-threaded benchmarks scale
// with the runner's core count, which neither the raw ns comparison nor
// the single-thread calibration factor models.
func gate(baseline, fresh []row, maxNsRatio, maxAllocsRatio float64, calibrate bool, nsSkip *regexp.Regexp) (regressions []string, matched int) {
	base := make(map[string]row, len(baseline))
	for _, b := range baseline {
		base[b.key()] = b
	}
	factor := 1.0
	if calibrate {
		factor = machineFactor(base, fresh, nsSkip)
	}
	for _, f := range fresh {
		b, ok := base[f.key()]
		if !ok {
			continue
		}
		matched++
		nsGated := nsSkip == nil || !nsSkip.MatchString(f.key())
		if limit := b.NsPerOp * maxNsRatio * factor; nsGated && b.NsPerOp > 0 && f.NsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: ns_per_op %.0f exceeds baseline %.0f by %.1f%% (limit %.0f%%, machine factor %.2f)",
				f.key(), f.NsPerOp, b.NsPerOp, 100*(f.NsPerOp/b.NsPerOp-1), 100*(maxNsRatio-1), factor))
		}
		if b.AllocsPerOp != nil && f.AllocsPerOp != nil && *b.AllocsPerOp > 0 &&
			*f.AllocsPerOp > *b.AllocsPerOp*maxAllocsRatio {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs_per_op %.0f exceeds baseline %.0f by %.1f%% (limit %.0f%%)",
				f.key(), *f.AllocsPerOp, *b.AllocsPerOp, 100*(*f.AllocsPerOp / *b.AllocsPerOp - 1), 100*(maxAllocsRatio-1)))
		}
		if b.ScattersPerOp != nil && f.ScattersPerOp != nil && *f.ScattersPerOp > *b.ScattersPerOp {
			regressions = append(regressions, fmt.Sprintf(
				"%s: scatters_per_op %g exceeds baseline %g (a deterministic count; any increase fails)",
				f.key(), *f.ScattersPerOp, *b.ScattersPerOp))
		}
	}
	return regressions, matched
}

// missing returns, sorted, the baseline keys that no fresh row matches.
func missing(baseline, fresh []row) []string {
	have := make(map[string]bool, len(fresh))
	for _, f := range fresh {
		have[f.key()] = true
	}
	var keys []string
	for _, b := range baseline {
		if !have[b.key()] {
			keys = append(keys, b.key())
		}
	}
	sort.Strings(keys)
	return keys
}

func run(baselinePath, baselineRun, freshPath string, maxNsRatio, maxAllocsRatio float64, calibrate bool, nsSkipPat string) error {
	baseline, err := loadRows(baselinePath, baselineRun)
	if err != nil {
		return err
	}
	fresh, err := loadRows(freshPath, "")
	if err != nil {
		return err
	}
	var nsSkip *regexp.Regexp
	if nsSkipPat != "" {
		if nsSkip, err = regexp.Compile(nsSkipPat); err != nil {
			return fmt.Errorf("bad -ns-skip pattern: %w", err)
		}
	}
	if gone := missing(baseline, fresh); len(gone) > 0 {
		return fmt.Errorf("no fresh row for %d baseline row(s): %s — benchmark names drifted or a gated benchmark did not run",
			len(gone), strings.Join(gone, ", "))
	}
	regressions, matched := gate(baseline, fresh, maxNsRatio, maxAllocsRatio, calibrate, nsSkip)
	if matched == 0 {
		return fmt.Errorf("no fresh row matched the baseline — benchmark names drifted?")
	}
	fmt.Printf("benchgate: %d rows compared against %s", matched, baselinePath)
	if baselineRun != "" {
		fmt.Printf(" (run %s)", baselineRun)
	}
	fmt.Println()
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Println("REGRESSION:", r)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(regressions))
	}
	fmt.Println("benchgate: no regressions")
	return nil
}

func main() {
	var (
		baseline    = flag.String("baseline", "BENCH_query.json", "committed baseline (flat rows or curated runs map)")
		baselineRun = flag.String("baseline-run", "", "run name inside a curated baseline")
		fresh       = flag.String("fresh", "bench-artifacts/BENCH_query.json", "fresh benchmark rows (cmd/benchjson output)")
		nsRatio     = flag.Float64("max-ns-ratio", 1.25, "fail when ns_per_op exceeds baseline times this")
		allocsRatio = flag.Float64("max-allocs-ratio", 1.10, "fail when allocs_per_op exceeds baseline times this")
		noCal       = flag.Bool("no-ns-calibrate", false, "compare raw wall-clock instead of machine-drift-corrected ns")
		nsSkip      = flag.String("ns-skip", "", "regex of row keys exempt from the ns gate (allocs still gated); use for multi-threaded benchmarks whose speed tracks core count")
	)
	flag.Parse()
	if err := run(*baseline, *baselineRun, *fresh, *nsRatio, *allocsRatio, !*noCal, *nsSkip); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
