package main

import (
	"bytes"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// parse builds a config from command-line arguments, as main does.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("pitexsweep", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func testCfg(t *testing.T, dir string) config {
	return parse(t, "-dataset", "lastfm", "-scale", "0.02", "-max-samples", "300",
		"-max-index-samples", "4000", "-k", "2", "-top", "10", "-workers", "2", "-chunk", "8",
		"-out", filepath.Join(dir, "board.json"))
}

// TestFlags pins every flag's name and default.
func TestFlags(t *testing.T) {
	want := map[string]string{
		"checkpoint": "", "chunk": "64", "dataset": "", "delta": "1000", "epsilon": "0.7",
		"index-shards": "0", "k": "3", "log-format": "text", "max-index-samples": "200000",
		"max-samples": "5000", "model": "", "network": "", "out": "", "progress": "false",
		"resume": "false", "scale": "1", "seed": "1", "strategy": "indexest+", "top": "100",
		"users": "", "workers": "4",
	}
	var c config
	fs := flag.NewFlagSet("pitexsweep", flag.ContinueOnError)
	c.register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults:\n got  %v\n want %v", got, want)
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	dir := t.TempDir()
	c := testCfg(t, dir)
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
	c := testCfg(t, dir)
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
	c := testCfg(t, dir)
	c.users = "0,2,4-6"
	if err := run(testLogger(), c); err != nil {
		t.Fatalf("cohort run: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	dir := t.TempDir()
	if err := run(testLogger(), parse(t, "-dataset", "lastfm", "-scale", "0.02", "-strategy", "bogus")); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	if err := run(testLogger(), parse(t, "-strategy", "lazy")); err == nil {
		t.Fatal("missing dataset accepted")
	}
	for _, users := range []string{"9-1", "x"} {
		c := testCfg(t, dir)
		c.users = users
		if err := run(testLogger(), c); err == nil || !strings.Contains(err.Error(), "-users") {
			t.Fatalf("-users %q: err = %v, want a refusal naming -users", users, err)
		}
	}
}

// TestRunRefusesOutOfRangeCohort: a range past the network is refused,
// naming -users, before it is expanded or the index is built.
func TestRunRefusesOutOfRangeCohort(t *testing.T) {
	c := testCfg(t, t.TempDir())
	c.users = "0-5000000"
	if err := run(testLogger(), c); err == nil || !strings.Contains(err.Error(), "-users") {
		t.Fatalf("err = %v, want a refusal naming -users", err)
	}
}

func TestParseUsers(t *testing.T) {
	got, err := parseUsers(" 3, 10-12 ,42", 43)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 10, 11, 12, 42}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseUsers = %v, want %v", got, want)
	}
	if got, err := parseUsers("", 43); err != nil || got != nil {
		t.Fatalf("empty = %v, %v", got, err)
	}
	for _, bad := range []string{"1-", "-2-3", "a-b", "1,,2", "43", "40-43"} {
		if _, err := parseUsers(bad, 43); err == nil {
			t.Fatalf("parseUsers(%q) accepted", bad)
		}
	}
}
