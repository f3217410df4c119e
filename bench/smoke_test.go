package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of the root BENCHMARK.json the smoke test
// holds the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// unrepeatable are the count-unit metrics that depend on goroutine
// scheduling or the runtime rather than on the seed alone.
var unrepeatable = map[string]bool{
	"engine.allocs_per_query":        true, // includes runtime-internal allocations
	"serve.refill_misses_per_update": true, // two racing clients split misses and dedups
}

// TestSmoke runs all five workloads at tiny scale, twice with one seed,
// and checks the contract BENCHMARK.json states: every declared metric is
// emitted with its unit, no answer is wrong, counts and digests repeat.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) || len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}

	runOnce := func() []workloadReport {
		t.Helper()
		out := t.TempDir()
		reports, err := run(context.Background(), config{seed: 1, scale: "tiny", out: out, seconds: 1, trace: -1}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			var tf struct {
				Spans []span `json:"spans"`
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+r.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
				t.Errorf("%s: trace file has %d spans (err %v)", r.Name, len(tf.Spans), err)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "results.json")); err != nil {
			t.Error(err)
		}
		return reports
	}
	first, second := runOnce(), runOnce()

	if len(first) != len(spec.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json names %d", len(first), len(spec.Workloads))
	}
	for i, r := range first {
		if r.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, r.Name, spec.Workloads[i].Name)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", r.Name, r.Failed, r.Attempted)
		}
		check := func(kind string, declared []specMetric, got map[string]metric) {
			for _, m := range declared {
				g, ok := got[m.Name]
				if !ok || g.Unit != m.Unit {
					t.Errorf("%s: %s metric %s: emitted %v with unit %q, want unit %q", r.Name, kind, m.Name, ok, g.Unit, m.Unit)
				}
			}
		}
		check("end-to-end", spec.EndToEnd, r.EndToEnd)
		check("per-layer", spec.PerLayer, r.PerLayer)

		again := second[i]
		if r.Digest != again.Digest {
			t.Errorf("%s: answers_digest %s, then %s with the same seed", r.Name, r.Digest, again.Digest)
		}
		if r.Attempted != again.Attempted {
			t.Errorf("%s: attempted %d ops, then %d with the same seed", r.Name, r.Attempted, again.Attempted)
		}
		for _, m := range spec.PerLayer {
			if m.Unit != "count" || unrepeatable[m.Name] {
				continue
			}
			if a, b := r.PerLayer[m.Name].Value, again.PerLayer[m.Name].Value; a != b {
				t.Errorf("%s: count %s = %v, then %v with the same seed", r.Name, m.Name, a, b)
			}
		}
	}
}

// TestDriverResultLine checks the driver contract on one workload: the
// last line of output is the result object with exactly the declared
// metrics, and bad arguments are refused.
func TestDriverResultLine(t *testing.T) {
	for trace, want := range map[int]int{0: len(endToEnd), 1: len(perLayer)} {
		var out bytes.Buffer
		if _, err := run(context.Background(), config{seed: 2, workload: "hot-cache", scale: "tiny", seconds: 1, trace: trace}, &out); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != want {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d with %d metrics, want %d",
				trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
		}
	}
	for _, bad := range []config{
		{workload: "no-such", scale: "tiny", seconds: 1, trace: 0},
		{scale: "huge", seconds: 1, trace: 0},
		{scale: "tiny", seconds: 0, trace: 0},
		{scale: "tiny", seconds: 1, trace: 2},
	} {
		if _, err := run(context.Background(), bad, io.Discard); err == nil {
			t.Errorf("config %+v was accepted", bad)
		}
	}
}
