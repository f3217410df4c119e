package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: pitex
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkQuerySingle/LAZY-4         	       1	18267846 ns/op	   30051 B/op	     333 allocs/op
BenchmarkQuerySingle/INDEXEST-4     	       1	11877107 ns/op	   30578 B/op	     324 allocs/op
BenchmarkQuerySingle/INDEXEST-S4-4  	       1	 9877107 ns/op	   31000 B/op	     350 allocs/op
BenchmarkQuerySingle/DELAYMAT-S4    	       1	 9999999 ns/op	   32000 B/op	     360 allocs/op
BenchmarkSweep/INDEXEST+-W4-4       	       3	712345678 ns/op	        64.00 users/op	 2030051 B/op	   21333 allocs/op
BenchmarkAblationLazyVsBernoulli/lazy-geometric-4 	       1	  501234 ns/op	        4096 edgevisits/op
BenchmarkServe/cached-4             	12345678	     103.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkDistribScatter/S3-4        	     100	  1234567 ns/op	   45678 B/op	     512 allocs/op
BenchmarkDistribScatter/S3-k3-4     	      20	 46522527 ns/op	       144.0 scatters/op	       297.0 siblings/op	 6801464 B/op	   80239 allocs/op
PASS
ok  	pitex	12.345s
`

func TestParseBench(t *testing.T) {
	lines, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	if len(lines) != 9 {
		t.Fatalf("parsed %d lines, want 9", len(lines))
	}
	if lines[0].Name != "BenchmarkQuerySingle/LAZY-4" || lines[0].NsPerOp != 18267846 {
		t.Fatalf("first line parsed as %+v", lines[0])
	}
	if v, ok := lines[0].extra("allocs/op"); !ok || v != 333 {
		t.Fatalf("allocs/op = %v (%v)", v, ok)
	}
	if v, ok := lines[4].extra("users/op"); !ok || v != 64 {
		t.Fatalf("sweep users/op lost: %v (%v)", v, ok)
	}
	if v, ok := lines[5].extra("edgevisits/op"); !ok || v != 4096 {
		t.Fatalf("custom metric lost: %v (%v)", v, ok)
	}
	if lines[6].Iterations != 12345678 || lines[6].NsPerOp != 103.1 {
		t.Fatalf("fractional ns line parsed as %+v", lines[6])
	}
}

func TestQueryEntriesStrategyNames(t *testing.T) {
	lines, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	entries := queryEntries(lines)
	if len(entries) != 5 {
		t.Fatalf("query entries = %d, want 5", len(entries))
	}
	// The DELAYMAT row has no GOMAXPROCS suffix (go test omits it at
	// GOMAXPROCS=1); the -S4 and -W4 markers must survive either way, and
	// sweep rows carry the Sweep/ namespace so their keys never collide
	// with per-query strategies.
	want := []string{"LAZY", "INDEXEST", "INDEXEST-S4", "DELAYMAT-S4", "Sweep/INDEXEST+-W4"}
	for i, e := range entries {
		if e.Strategy != want[i] {
			t.Errorf("entry %d strategy = %q, want %q", i, e.Strategy, want[i])
		}
		if e.BytesPerOp == nil || e.AllocsPerOp == nil {
			t.Errorf("entry %d lost benchmem metrics", i)
		}
	}
}

// TestQueryEntriesRepairRows: the incremental-repair sub-benchmarks
// become Repair/* rows and the offline-build ones Build/* rows, with
// their benchmem columns; the unsplit rebuild benchmark beside them is
// not a gated row.
func TestQueryEntriesRepairRows(t *testing.T) {
	lines, err := parseBench(strings.NewReader(`pkg: pitex
BenchmarkIncrementalRepair/S1-2   	       3	  23723360 ns/op	         0.03360 repaired-fraction	23261626 B/op	    8212 allocs/op
BenchmarkIncrementalRepair/S3-2   	       3	  19876543 ns/op	         0.01120 repaired-fraction	12345678 B/op	    9001 allocs/op
BenchmarkFullRebuild-2            	       3	 301234567 ns/op	99999999 B/op	   50000 allocs/op
BenchmarkBuild/INDEXEST+-uncapped-2	       1	 712345678 ns/op	88888888 B/op	    4321 allocs/op
`))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	entries := queryEntries(lines)
	if len(entries) != 3 || entries[0].Strategy != "Repair/S1" || entries[1].Strategy != "Repair/S3" ||
		entries[2].Strategy != "Build/INDEXEST+-uncapped" {
		t.Fatalf("repair entries: %+v", entries)
	}
	if a := entries[1].AllocsPerOp; a == nil || *a != 9001 || entries[1].BytesPerOp == nil {
		t.Fatalf("repair row lost benchmem metrics: %+v", entries[1])
	}
}

func TestRunWritesValidJSON(t *testing.T) {
	dir := t.TempDir()
	servePath := filepath.Join(dir, "serve.json")
	queryPath := filepath.Join(dir, "query.json")
	distribPath := filepath.Join(dir, "distrib.json")
	if err := run(strings.NewReader(sampleBench), servePath, queryPath, distribPath); err != nil {
		t.Fatalf("run: %v", err)
	}
	var serveDoc []map[string]any
	data, err := os.ReadFile(servePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &serveDoc); err != nil {
		t.Fatalf("serve JSON invalid: %v\n%s", err, data)
	}
	if len(serveDoc) != 9 {
		t.Fatalf("serve JSON has %d rows, want 9", len(serveDoc))
	}
	if serveDoc[0]["ns_per_op"].(float64) != 18267846 {
		t.Fatalf("serve row 0: %v", serveDoc[0])
	}
	if serveDoc[5]["edgevisits/op"].(float64) != 4096 {
		t.Fatalf("serve row 5 lost custom metric: %v", serveDoc[5])
	}
	var queryDoc []queryEntry
	data, err = os.ReadFile(queryPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &queryDoc); err != nil {
		t.Fatalf("query JSON invalid: %v", err)
	}
	if len(queryDoc) != 5 || queryDoc[2].Strategy != "INDEXEST-S4" || queryDoc[4].Strategy != "Sweep/INDEXEST+-W4" {
		t.Fatalf("query JSON rows: %+v", queryDoc)
	}
	var distribDoc []distribEntry
	data, err = os.ReadFile(distribPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &distribDoc); err != nil {
		t.Fatalf("distrib JSON invalid: %v", err)
	}
	if len(distribDoc) != 2 || distribDoc[0].Strategy != "DistribScatter/S3" || distribDoc[1].Strategy != "DistribScatter/S3-k3" {
		t.Fatalf("distrib JSON rows: %+v", distribDoc)
	}
	if distribDoc[0].BytesPerOp == nil || *distribDoc[0].BytesPerOp != 45678 {
		t.Fatalf("distrib row lost benchmem metrics: %+v", distribDoc[0])
	}
	// The wire columns ride along where the benchmark reports them and
	// stay absent (not zero) where it does not.
	k3 := distribDoc[1]
	if k3.ScattersPerOp == nil || *k3.ScattersPerOp != 144 || k3.SiblingsPerOp == nil || *k3.SiblingsPerOp != 297 ||
		k3.AllocsPerOp == nil || *k3.AllocsPerOp != 80239 {
		t.Fatalf("distrib k3 row lost its wire columns: %+v", k3)
	}
	if distribDoc[0].ScattersPerOp != nil || distribDoc[0].SiblingsPerOp != nil {
		t.Fatalf("row without wire metrics grew wire columns: %+v", distribDoc[0])
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(strings.NewReader("no benchmarks here\n"), "", filepath.Join(t.TempDir(), "q.json"), ""); err == nil {
		t.Fatal("empty bench output accepted")
	}
	if err := run(strings.NewReader(sampleBench), "", "", ""); err == nil {
		t.Fatal("no-output invocation accepted")
	}
}
