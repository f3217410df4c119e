package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

func baselineRows() []row {
	return []row{
		{Name: "BenchmarkQuerySingle/LAZY", Strategy: "LAZY", NsPerOp: 1000000, AllocsPerOp: f(300)},
		{Name: "BenchmarkQuerySingle/INDEXEST", Strategy: "INDEXEST", NsPerOp: 500000, AllocsPerOp: f(100)},
		{Name: "BenchmarkServe/cached", NsPerOp: 100, AllocsPerOp: f(0)},
	}
}

// TestGatePassesWithinTolerance: mild drift below the thresholds passes.
func TestGatePassesWithinTolerance(t *testing.T) {
	fresh := []row{
		{Name: "BenchmarkQuerySingle/LAZY-4", Strategy: "LAZY", NsPerOp: 1200000, AllocsPerOp: f(320)},
		{Name: "BenchmarkQuerySingle/INDEXEST-4", Strategy: "INDEXEST", NsPerOp: 400000, AllocsPerOp: f(100)},
	}
	regressions, matched := gate(baselineRows(), fresh, 1.25, 1.10, false, nil)
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
	if len(regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", regressions)
	}
}

// TestGateFailsOnFabricatedSlowResult is the acceptance-criterion probe:
// a synthetic 2x slowdown and a 20% alloc growth must both trip.
func TestGateFailsOnFabricatedSlowResult(t *testing.T) {
	fresh := []row{
		{Name: "BenchmarkQuerySingle/LAZY-4", Strategy: "LAZY", NsPerOp: 2000000, AllocsPerOp: f(300)},
		{Name: "BenchmarkQuerySingle/INDEXEST-4", Strategy: "INDEXEST", NsPerOp: 500000, AllocsPerOp: f(120)},
	}
	regressions, matched := gate(baselineRows(), fresh, 1.25, 1.10, false, nil)
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
	if len(regressions) != 2 {
		t.Fatalf("regressions = %v, want one ns and one allocs failure", regressions)
	}
	if !strings.Contains(regressions[0], "ns_per_op") || !strings.Contains(regressions[1], "allocs_per_op") {
		t.Fatalf("unexpected regression messages: %v", regressions)
	}
}

// TestGateMatchesByStrategyAcrossProcSuffixes: baseline rows without a
// strategy still match on the proc-stripped name.
func TestGateMatchesByStrategyAcrossProcSuffixes(t *testing.T) {
	fresh := []row{{Name: "BenchmarkServe/cached-8", NsPerOp: 90, AllocsPerOp: f(0)}}
	regressions, matched := gate(baselineRows(), fresh, 1.25, 1.10, false, nil)
	if matched != 1 || len(regressions) != 0 {
		t.Fatalf("matched %d, regressions %v", matched, regressions)
	}
}

// TestRunAgainstCuratedBaseline: end-to-end against the committed
// runs-map format, including the run-selection error path and the
// no-match failure.
func TestRunAgainstCuratedBaseline(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_query.json")
	curated := `{
  "benchmark": "go test -bench ...",
  "runs": {
    "older": {"results": [{"name": "BenchmarkQuerySingle/LAZY", "strategy": "LAZY", "ns_per_op": 9000000, "allocs_per_op": 400}]},
    "newer": {"results": [{"name": "BenchmarkQuerySingle/LAZY", "strategy": "LAZY", "ns_per_op": 1000000, "allocs_per_op": 300}]}
  }
}`
	if err := os.WriteFile(baseline, []byte(curated), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.json")
	if err := os.WriteFile(fresh, []byte(`[{"name": "BenchmarkQuerySingle/LAZY-4", "strategy": "LAZY", "ns_per_op": 1100000, "allocs_per_op": 310}]`), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(baseline, "newer", fresh, 1.25, 1.10, false, ""); err != nil {
		t.Fatalf("gate against curated run failed: %v", err)
	}
	// 1.1ms vs the "older" 9ms baseline passes trivially; vs "newer" with a
	// tightened ns ratio it must fail.
	if err := run(baseline, "newer", fresh, 1.05, 1.10, false, ""); err == nil {
		t.Fatal("tightened gate did not fail")
	}
	if err := run(baseline, "", fresh, 1.25, 1.10, false, ""); err == nil || !strings.Contains(err.Error(), "-baseline-run") {
		t.Fatalf("missing -baseline-run not diagnosed: %v", err)
	}
	if err := run(baseline, "bogus", fresh, 1.25, 1.10, false, ""); err == nil {
		t.Fatal("unknown run accepted")
	}

	// A fresh file sharing no rows with the baseline must fail loudly.
	disjoint := filepath.Join(dir, "disjoint.json")
	if err := os.WriteFile(disjoint, []byte(`[{"name": "BenchmarkOther-4", "ns_per_op": 1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(baseline, "newer", disjoint, 1.25, 1.10, false, ""); err == nil {
		t.Fatal("disjoint comparison passed")
	}
}

// TestGateCalibratesMachineDrift: a uniformly slower machine must not
// trip the ns gate, while a strategy regressing relative to its peers
// must — and a fabricated slowdown still fails even under calibration.
func TestGateCalibratesMachineDrift(t *testing.T) {
	var baseline, uniform, skewed []row
	for i, strat := range []string{"A", "B", "C", "D", "E"} {
		ns := float64(1000000 * (i + 1))
		baseline = append(baseline, row{Name: "BenchmarkQuerySingle/" + strat, Strategy: strat, NsPerOp: ns})
		uniform = append(uniform, row{Name: "BenchmarkQuerySingle/" + strat + "-4", Strategy: strat, NsPerOp: 2 * ns})
		factor := 2.0
		if strat == "C" {
			factor = 3.2 // regressed ~60% beyond the shared drift
		}
		skewed = append(skewed, row{Name: "BenchmarkQuerySingle/" + strat + "-4", Strategy: strat, NsPerOp: factor * ns})
	}
	if regressions, _ := gate(baseline, uniform, 1.25, 1.10, true, nil); len(regressions) != 0 {
		t.Fatalf("uniform 2x machine drift tripped the calibrated gate: %v", regressions)
	}
	if regressions, _ := gate(baseline, uniform, 1.25, 1.10, false, nil); len(regressions) != 5 {
		t.Fatalf("raw gate should flag all 5 uniform-drift rows, got %v", regressions)
	}
	regressions, _ := gate(baseline, skewed, 1.25, 1.10, true, nil)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "C:") {
		t.Fatalf("calibrated gate missed the relative regression: %v", regressions)
	}
	// Fewer than minRowsForCalibration matched rows: no calibration.
	if regressions, _ := gate(baseline[:2], uniform[:2], 1.25, 1.10, true, nil); len(regressions) != 2 {
		t.Fatalf("small-sample gate should stay raw, got %v", regressions)
	}
}

// TestGateNsSkip: rows matching -ns-skip (multi-threaded benchmarks whose
// wall-clock tracks core count) are exempt from the ns gate — and from
// the calibration median — but still held to the allocation gate.
func TestGateNsSkip(t *testing.T) {
	baseline := []row{
		{Strategy: "A", NsPerOp: 1e6, AllocsPerOp: f(100)},
		{Strategy: "Sweep/A-W4", NsPerOp: 1e8, AllocsPerOp: f(5000)},
	}
	fresh := []row{
		{Strategy: "A", NsPerOp: 1e6, AllocsPerOp: f(100)},
		// 3x slower wall-clock (fewer cores on the runner), allocs equal.
		{Strategy: "Sweep/A-W4", NsPerOp: 3e8, AllocsPerOp: f(5000)},
	}
	skip := regexp.MustCompile(`^Sweep/`)
	if regressions, matched := gate(baseline, fresh, 1.25, 1.10, false, skip); len(regressions) != 0 || matched != 2 {
		t.Fatalf("ns-skipped core-count slowdown tripped the gate: %v (matched %d)", regressions, matched)
	}
	// Without the skip it trips, proving the exemption is what saved it.
	if regressions, _ := gate(baseline, fresh, 1.25, 1.10, false, nil); len(regressions) != 1 {
		t.Fatalf("unskipped slowdown should trip: %v", regressions)
	}
	// Allocation regressions in skipped rows still gate.
	fresh[1].AllocsPerOp = f(9000)
	if regressions, _ := gate(baseline, fresh, 1.25, 1.10, false, skip); len(regressions) != 1 ||
		!strings.Contains(regressions[0], "allocs_per_op") {
		t.Fatalf("alloc regression in a ns-skipped row missed: %v", regressions)
	}
}

// TestGateScattersPerOp: a distributed row's scatter count is gated with
// no tolerance — one extra scatter fails even with ns and allocs flat —
// while fewer scatters, or a row without the field, pass.
func TestGateScattersPerOp(t *testing.T) {
	baseline := []row{
		{Name: "BenchmarkDistribScatter/S3-k3-2", Strategy: "DistribScatter/S3-k3", NsPerOp: 2e6, AllocsPerOp: f(1700), ScattersPerOp: f(4)},
		{Name: "BenchmarkDistribScatter/S1-2", Strategy: "DistribScatter/S1", NsPerOp: 7e5, AllocsPerOp: f(350), ScattersPerOp: f(2)},
	}
	fresh := []row{
		{Name: "BenchmarkDistribScatter/S3-k3-2", Strategy: "DistribScatter/S3-k3", NsPerOp: 2e6, AllocsPerOp: f(1700), ScattersPerOp: f(5)},
		{Name: "BenchmarkDistribScatter/S1-2", Strategy: "DistribScatter/S1", NsPerOp: 7e5, AllocsPerOp: f(350), ScattersPerOp: f(1)},
	}
	regressions, matched := gate(baseline, fresh, 1.25, 1.10, false, regexp.MustCompile(`^DistribScatter/`))
	if matched != 2 || len(regressions) != 1 || !strings.Contains(regressions[0], "DistribScatter/S3-k3: scatters_per_op 5 exceeds baseline 4") {
		t.Fatalf("matched %d, regressions %v; want exactly the S3-k3 scatter increase", matched, regressions)
	}
	fresh[0].ScattersPerOp = nil
	if regressions, _ := gate(baseline, fresh, 1.25, 1.10, false, nil); len(regressions) != 0 {
		t.Fatalf("a row without scatters_per_op regressed: %v", regressions)
	}
}

// TestRunFailsOnMissingBaselineRow: a baseline row with no fresh
// counterpart fails the gate and is named, even when every row that did
// run is within tolerance — a gated benchmark that stopped running must
// not pass by silence.
func TestRunFailsOnMissingBaselineRow(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(`[
  {"name": "BenchmarkX/a-2", "strategy": "a", "ns_per_op": 100, "allocs_per_op": 10},
  {"name": "BenchmarkX/b-2", "strategy": "b", "ns_per_op": 100, "allocs_per_op": 10},
  {"name": "BenchmarkX/c-2", "strategy": "c", "ns_per_op": 100, "allocs_per_op": 10}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.json")
	if err := os.WriteFile(fresh, []byte(`[
  {"name": "BenchmarkX/a-4", "strategy": "a", "ns_per_op": 100, "allocs_per_op": 10},
  {"name": "BenchmarkX/b-4", "strategy": "b", "ns_per_op": 100, "allocs_per_op": 10}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(baseline, "", fresh, 1.25, 1.10, false, "")
	if err == nil || !strings.Contains(err.Error(), "1 baseline row(s): c ") {
		t.Fatalf("missing baseline row c: err = %v", err)
	}
}
