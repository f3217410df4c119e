// Command benchjson converts `go test -bench` text output into the
// repository's benchmark JSON artifacts, replacing the inline awk
// converters the CI workflow used to carry:
//
//	go test -bench=. -benchtime=1x -benchmem -run '^$' ./... |
//	    benchjson -serve BENCH_serve.json -query bench-artifacts/BENCH_query.json
//
// -serve writes every benchmark line ({name, iterations, ns_per_op, plus
// one key per reported unit, e.g. "B/op", "allocs/op", "edgevisits/op"}).
// -query writes only the BenchmarkQuerySingle/* and BenchmarkSweep/*
// lines in the per-strategy shape cmd/benchgate compares ({name,
// strategy, ns_per_op, bytes_per_op, allocs_per_op}; -distrib writes the
// BenchmarkDistrib* lines in that shape plus scatters_per_op and
// siblings_per_op where the benchmark reports them); the strategy is the
// sub-benchmark name with the GOMAXPROCS suffix stripped (so sharded
// variants keep their -S4 marker), namespaced "Sweep/<name>" for the
// population-sweep rows.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine is one parsed benchmark result.
type benchLine struct {
	Name       string
	Iterations int64
	NsPerOp    float64
	// Extra maps unit → value for everything after ns/op, in input order.
	ExtraUnits  []string
	ExtraValues []float64
}

// extra returns the value reported for unit, or (0, false).
func (b benchLine) extra(unit string) (float64, bool) {
	for i, u := range b.ExtraUnits {
		if u == unit {
			return b.ExtraValues[i], true
		}
	}
	return 0, false
}

// parseBench scans `go test -bench` output for benchmark result lines:
// name, iteration count, ns/op, then (value, unit) pairs.
func parseBench(r io.Reader) ([]benchLine, error) {
	var out []benchLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		b := benchLine{Name: f[0], Iterations: iters, NsPerOp: ns}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			b.ExtraUnits = append(b.ExtraUnits, f[i+1])
			b.ExtraValues = append(b.ExtraValues, v)
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// jsonNumber renders v without scientific notation (matching the raw
// bench output awk used to pass through).
func jsonNumber(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// serveJSON renders the full benchmark list.
func serveJSON(lines []benchLine) []byte {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, b := range lines {
		if i > 0 {
			buf.WriteString(",\n")
		}
		fmt.Fprintf(&buf, "  {\"name\": %q, \"iterations\": %d, \"ns_per_op\": %s",
			b.Name, b.Iterations, jsonNumber(b.NsPerOp))
		for j, u := range b.ExtraUnits {
			fmt.Fprintf(&buf, ", %q: %s", u, jsonNumber(b.ExtraValues[j]))
		}
		buf.WriteString("}")
	}
	buf.WriteString("\n]\n")
	return buf.Bytes()
}

var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// queryEntry is the BENCH_query.json row shape shared with cmd/benchgate.
type queryEntry struct {
	Name        string   `json:"name"`
	Strategy    string   `json:"strategy"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// queryEntries extracts the per-strategy query benchmark rows: one per
// BenchmarkQuerySingle/* sub-benchmark (strategy = the bare sub-name, the
// historical key) and one per BenchmarkSweep/* sub-benchmark (strategy =
// "Sweep/<sub-name>", so the population-sweep rows can never collide with
// a per-query strategy key in cmd/benchgate).
func queryEntries(lines []benchLine) []queryEntry {
	var out []queryEntry
	for _, b := range lines {
		var strategy string
		switch {
		case strings.HasPrefix(b.Name, "BenchmarkQuerySingle/"):
			strategy = strings.TrimPrefix(b.Name, "BenchmarkQuerySingle/")
		case strings.HasPrefix(b.Name, "BenchmarkSweep/"):
			strategy = "Sweep/" + strings.TrimPrefix(b.Name, "BenchmarkSweep/")
		default:
			continue
		}
		e := queryEntry{
			Name:     b.Name,
			Strategy: procSuffix.ReplaceAllString(strategy, ""),
			NsPerOp:  b.NsPerOp,
		}
		if v, ok := b.extra("B/op"); ok {
			e.BytesPerOp = &v
		}
		if v, ok := b.extra("allocs/op"); ok {
			e.AllocsPerOp = &v
		}
		out = append(out, e)
	}
	return out
}

// distribEntry is a BENCH_distrib.json row: the -query row shape plus how
// the query crossed the wire — scatters per op and the siblings per op
// that rode in frontier batches (their ratio is the mean batch width).
type distribEntry struct {
	queryEntry
	ScattersPerOp *float64 `json:"scatters_per_op,omitempty"`
	SiblingsPerOp *float64 `json:"siblings_per_op,omitempty"`
}

// distribEntries extracts the BenchmarkDistrib* rows (the distributed
// scatter-gather benchmarks), keyed by the sub-benchmark name under a
// "Distrib/" namespace.
func distribEntries(lines []benchLine) []distribEntry {
	var out []distribEntry
	for _, b := range lines {
		if !strings.HasPrefix(b.Name, "BenchmarkDistrib") {
			continue
		}
		key := strings.TrimPrefix(b.Name, "Benchmark")
		opt := func(unit string) *float64 {
			if v, ok := b.extra(unit); ok {
				return &v
			}
			return nil
		}
		e := distribEntry{
			queryEntry: queryEntry{
				Name:        b.Name,
				Strategy:    procSuffix.ReplaceAllString(key, ""),
				NsPerOp:     b.NsPerOp,
				BytesPerOp:  opt("B/op"),
				AllocsPerOp: opt("allocs/op"),
			},
			ScattersPerOp: opt("scatters/op"),
			SiblingsPerOp: opt("siblings/op"),
		}
		out = append(out, e)
	}
	return out
}

func run(in io.Reader, servePath, queryPath, distribPath string) error {
	if servePath == "" && queryPath == "" && distribPath == "" {
		return fmt.Errorf("nothing to do: pass -serve, -query and/or -distrib")
	}
	lines, err := parseBench(in)
	if err != nil {
		return fmt.Errorf("parse bench output: %w", err)
	}
	if len(lines) == 0 {
		return fmt.Errorf("no benchmark result lines found in input")
	}
	if servePath != "" {
		if err := os.WriteFile(servePath, serveJSON(lines), 0o644); err != nil {
			return err
		}
	}
	if queryPath != "" {
		entries := queryEntries(lines)
		if len(entries) == 0 {
			return fmt.Errorf("no BenchmarkQuerySingle results in input")
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(queryPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if distribPath != "" {
		entries := distribEntries(lines)
		if len(entries) == 0 {
			return fmt.Errorf("no BenchmarkDistrib results in input")
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(distribPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var (
		in      = flag.String("in", "", "bench output file (default: stdin)")
		serve   = flag.String("serve", "", "write the full benchmark list here (BENCH_serve.json)")
		query   = flag.String("query", "", "write the per-strategy query rows here (BENCH_query.json)")
		distrib = flag.String("distrib", "", "write the BenchmarkDistrib* rows here (BENCH_distrib.json)")
	)
	flag.Parse()
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	if err := run(r, *serve, *query, *distrib); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
