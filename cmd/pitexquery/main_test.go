package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pitex"
)

// parse builds a config from command-line arguments, as main does.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("pitexquery", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParseStrategy: every strategy name given to -strategy reaches
// the engine options, and an unknown one is refused.
func TestParseStrategy(t *testing.T) {
	cases := map[string]pitex.Strategy{
		"lazy": pitex.StrategyLazy, "LAZY": pitex.StrategyLazy,
		"mc": pitex.StrategyMC, "rr": pitex.StrategyRR, "tim": pitex.StrategyTIM,
		"indexest": pitex.StrategyIndex, "index": pitex.StrategyIndex,
		"indexest+": pitex.StrategyIndexPruned, "index+": pitex.StrategyIndexPruned,
		"delaymat": pitex.StrategyDelay, "delay": pitex.StrategyDelay,
	}
	for in, want := range cases {
		opts, err := parse(t, "-strategy", in).Options(1)
		if err != nil || opts.Strategy != want {
			t.Errorf("-strategy %q: got %v, %v; want %v", in, opts.Strategy, err, want)
		}
	}
	if _, err := parse(t, "-strategy", "bogus").Options(1); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

// TestFlags pins every flag's name and default.
func TestFlags(t *testing.T) {
	want := map[string]string{
		"audience": "0", "dataset": "", "delta": "1000", "epsilon": "0.7", "k": "3",
		"max-index-samples": "200000", "max-samples": "5000", "model": "", "network": "",
		"prefix": "", "scale": "1", "seed": "1", "strategy": "lazy", "top": "1", "user": "0",
	}
	var c config
	fs := flag.NewFlagSet("pitexquery", flag.ContinueOnError)
	c.register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults:\n got  %v\n want %v", got, want)
	}
}

func TestRunOnGeneratedDataset(t *testing.T) {
	err := run(parse(t, "-dataset", "lastfm", "-scale", "0.02", "-k", "2", "-strategy", "indexest+",
		"-max-samples", "500", "-max-index-samples", "4000", "-top", "2", "-audience", "3"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunOnFiles(t *testing.T) {
	dir := t.TempDir()
	// Produce files through the public API.
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.02), 1)
	if err != nil {
		t.Fatal(err)
	}
	np := filepath.Join(dir, "g.network")
	mp := filepath.Join(dir, "g.model")
	nf, err := os.Create(np)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Write(nf); err != nil {
		t.Fatal(err)
	}
	nf.Close()
	mf, err := os.Create(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Write(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	if err := run(parse(t, "-network", np, "-model", mp, "-k", "2", "-max-samples", "500", "-prefix", "0")); err != nil {
		t.Fatalf("run on files: %v", err)
	}
}

func TestRunBadPrefix(t *testing.T) {
	if err := run(parse(t, "-dataset", "lastfm", "-scale", "0.02", "-k", "2", "-prefix", "x,y")); err == nil {
		t.Fatal("bad prefix accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(parse(t)); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if err := run(parse(t, "-dataset", "lastfm", "-scale", "0.02", "-strategy", "bogus")); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	if err := run(parse(t, "-network", "/does/not/exist", "-model", "/nope")); err == nil {
		t.Fatal("missing files accepted")
	}
}

// TestRunRefusesConflictingInputs: files named next to -dataset are an
// error, not silently ignored in favour of the dataset.
func TestRunRefusesConflictingInputs(t *testing.T) {
	err := run(parse(t, "-dataset", "lastfm", "-scale", "0.02", "-network", "/nonexistent", "-model", "/nonexistent"))
	if err == nil || !strings.Contains(err.Error(), "-dataset") || !strings.Contains(err.Error(), "-network") {
		t.Fatalf("err = %v, want a refusal naming -dataset and -network", err)
	}
}
