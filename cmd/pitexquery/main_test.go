package main

import (
	"os"
	"path/filepath"
	"testing"

	"pitex"
)

func TestParseStrategy(t *testing.T) {
	cases := map[string]pitex.Strategy{
		"lazy": pitex.StrategyLazy, "LAZY": pitex.StrategyLazy,
		"mc": pitex.StrategyMC, "rr": pitex.StrategyRR, "tim": pitex.StrategyTIM,
		"indexest": pitex.StrategyIndex, "index": pitex.StrategyIndex,
		"indexest+": pitex.StrategyIndexPruned, "index+": pitex.StrategyIndexPruned,
		"delaymat": pitex.StrategyDelay, "delay": pitex.StrategyDelay,
	}
	for in, want := range cases {
		got, err := pitex.ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := pitex.ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestRunOnGeneratedDataset(t *testing.T) {
	err := run("lastfm", "", "", 1, 0.02, 0, 2, "indexest+", 0.7, 1000, 500, 4000, 2, "", 3)
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

	if err := run("", np, mp, 1, 1, 0, 2, "lazy", 0.7, 1000, 500, 0, 1, "0", 0); err != nil {
		t.Fatalf("run on files: %v", err)
	}
}

func TestRunBadPrefix(t *testing.T) {
	if err := run("lastfm", "", "", 1, 0.02, 0, 2, "lazy", 0.7, 1000, 500, 0, 1, "x,y", 0); err == nil {
		t.Fatal("bad prefix accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("", "", "", 1, 1, 0, 2, "lazy", 0.7, 1000, 0, 0, 1, "", 0); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if err := run("lastfm", "", "", 1, 0.02, 0, 2, "bogus", 0.7, 1000, 0, 0, 1, "", 0); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	if err := run("", "/does/not/exist", "/nope", 1, 1, 0, 2, "lazy", 0.7, 1000, 0, 0, 1, "", 0); err == nil {
		t.Fatal("missing files accepted")
	}
}
