package main

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testCfg(dir string) cfg {
	return cfg{
		dataset: "lastfm", scale: 0.02, seed: 1, strategy: "indexest+",
		epsilon: 0.7, delta: 1000, maxSamples: 300, maxIndexSamples: 4000,
		k: 2, topN: 10, workers: 2, chunk: 8,
		out: filepath.Join(dir, "board.json"),
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	dir := t.TempDir()
	c := testCfg(dir)
	if err := run(testLogger(), c); err != nil {
		t.Fatalf("run: %v", err)
	}
	first, err := os.ReadFile(c.out)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || first[0] != '{' {
		t.Fatalf("output does not look like JSON: %q", first[:min(len(first), 40)])
	}
	// A second run (different worker count) is byte-identical.
	c2 := c
	c2.workers = 4
	c2.out = filepath.Join(dir, "board2.json")
	if err := run(testLogger(), c2); err != nil {
		t.Fatalf("second run: %v", err)
	}
	second, err := os.ReadFile(c2.out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("sweep output depends on -workers")
	}
}

func TestRunSweepResume(t *testing.T) {
	dir := t.TempDir()
	c := testCfg(dir)
	if err := run(testLogger(), c); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want, err := os.ReadFile(c.out)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpointed run, then a -resume run over the completed checkpoint:
	// both must reproduce the baseline bytes.
	c.checkpoint = filepath.Join(dir, "sweep.ckpt")
	c.out = filepath.Join(dir, "board-ckpt.json")
	if err := run(testLogger(), c); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	c.resume = true
	c.out = filepath.Join(dir, "board-resumed.json")
	if err := run(testLogger(), c); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for _, path := range []string{filepath.Join(dir, "board-ckpt.json"), c.out} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s diverged from the uncheckpointed baseline", path)
		}
	}
}

func TestRunSweepCohort(t *testing.T) {
	dir := t.TempDir()
	c := testCfg(dir)
	c.users = "0,2,4-6"
	if err := run(testLogger(), c); err != nil {
		t.Fatalf("cohort run: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(testLogger(), cfg{strategy: "bogus"}); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	if err := run(testLogger(), cfg{strategy: "lazy"}); err == nil {
		t.Fatal("missing dataset accepted")
	}
	if err := run(testLogger(), cfg{strategy: "lazy", users: "9-1"}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := run(testLogger(), cfg{strategy: "lazy", users: "x"}); err == nil {
		t.Fatal("non-numeric cohort accepted")
	}
}

func TestParseUsers(t *testing.T) {
	got, err := parseUsers(" 3, 10-12 ,42")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 10, 11, 12, 42}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseUsers = %v, want %v", got, want)
	}
	if got, err := parseUsers(""); err != nil || got != nil {
		t.Fatalf("empty = %v, %v", got, err)
	}
	for _, bad := range []string{"1-", "-2-3", "a-b", "1,,2"} {
		if _, err := parseUsers(bad); err == nil {
			t.Fatalf("parseUsers(%q) accepted", bad)
		}
	}
}
