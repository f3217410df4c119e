package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pitex"
	"pitex/serve"
)

func testServeOptions() pitex.ServeOptions {
	return pitex.ServeOptions{PoolSize: 2, QueueTimeout: 10 * time.Second}
}

func discardf(string, ...any) {}

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

func TestSetupAndServe(t *testing.T) {
	srv, err := setup(buildConfig{
		dataset: "lastfm", seed: 1, scale: 0.02, strategy: "indexest+",
		epsilon: 0.7, delta: 1000, maxSamples: 500, maxIndexSamples: 4000,
		cheapBounds: true, maxK: 10,
	}, testServeOptions(), discardf)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer srv.Close()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, url := range []string{
		"/selling-points?user=0&k=2",
		"/audience?user=0&tags=0,1&m=3&samples=500",
		"/healthz",
		"/statsz",
	} {
		resp, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d, want 200", url, resp.StatusCode)
		}
	}
}

func TestSetupFromFilesWithSavedIndex(t *testing.T) {
	dir := t.TempDir()
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.02), 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := pitex.Options{Strategy: pitex.StrategyIndexPruned, Seed: 1,
		MaxSamples: 500, MaxIndexSamples: 4000, CheapBounds: true}
	en, err := pitex.NewEngine(net, model, opts)
	if err != nil {
		t.Fatal(err)
	}

	np := filepath.Join(dir, "g.network")
	mp := filepath.Join(dir, "g.model")
	ip := filepath.Join(dir, "g.index")
	for _, w := range []struct {
		path  string
		write func(f io.Writer) error
	}{
		{np, net.Write},
		{mp, model.Write},
		{ip, en.SaveIndex},
	} {
		f, err := os.Create(w.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.write(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	srv, err := setup(buildConfig{
		network: np, model: mp, index: ip, seed: 1, strategy: "indexest+",
		epsilon: 0.7, delta: 1000, maxSamples: 500, maxIndexSamples: 4000,
		cheapBounds: true, maxK: 10,
	}, testServeOptions(), discardf)
	if err != nil {
		t.Fatalf("setup with saved index: %v", err)
	}
	srv.Close()
}

// TestSaveIndexFlagRoundTrip covers the -save-index → -index restart
// workflow: the first setup pays offline construction and persists the
// index; the second loads it instead of rebuilding.
func TestSaveIndexFlagRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ip := filepath.Join(dir, "saved.index")
	base := buildConfig{
		dataset: "lastfm", seed: 1, scale: 0.02, strategy: "delaymat",
		epsilon: 0.7, delta: 1000, maxSamples: 500, maxIndexSamples: 4000,
		cheapBounds: true, maxK: 10,
	}

	cfg := base
	cfg.saveIndex = ip
	srv, err := setup(cfg, testServeOptions(), discardf)
	if err != nil {
		t.Fatalf("setup with -save-index: %v", err)
	}
	srv.Close()
	if st, err := os.Stat(ip); err != nil || st.Size() == 0 {
		t.Fatalf("index file not written: %v", err)
	}
	// No stray temp files from the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory has %d entries (err %v), want only the index", len(entries), err)
	}

	cfg = base
	cfg.index = ip
	srv, err = setup(cfg, testServeOptions(), discardf)
	if err != nil {
		t.Fatalf("setup with -index: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/selling-points?user=0&k=2")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query over loaded index: status %d", resp.StatusCode)
	}

	// Saving an online strategy's (nonexistent) index must fail loudly.
	cfg = base
	cfg.strategy, cfg.saveIndex = "lazy", filepath.Join(dir, "nope.index")
	if _, err := setup(cfg, testServeOptions(), discardf); err == nil {
		t.Fatal("-save-index with an online strategy accepted")
	}
}

// TestSaveIndexFailureLeavesNoTemp: a save whose final rename fails —
// the target is a non-empty directory — is an error and leaves no temp
// file behind.
func TestSaveIndexFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "saved.index")
	if err := os.MkdirAll(filepath.Join(target, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := buildConfig{
		dataset: "lastfm", seed: 1, scale: 0.02, strategy: "indexest+",
		epsilon: 0.7, delta: 1000, maxSamples: 500, maxIndexSamples: 4000,
		maxK: 10, saveIndex: target,
	}
	if srv, err := setup(cfg, testServeOptions(), discardf); err == nil {
		srv.Close()
		t.Fatal("saving onto a non-empty directory succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) > 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

func TestSetupValidation(t *testing.T) {
	base := buildConfig{epsilon: 0.7, delta: 1000, maxK: 10}

	cfg := base
	if _, err := setup(cfg, testServeOptions(), discardf); err == nil {
		t.Error("missing inputs accepted")
	}
	cfg = base
	cfg.dataset, cfg.strategy = "lastfm", "bogus"
	if _, err := setup(cfg, testServeOptions(), discardf); err == nil {
		t.Error("bogus strategy accepted")
	}
	cfg = base
	cfg.dataset, cfg.strategy, cfg.scale = "nope", "lazy", 1
	if _, err := setup(cfg, testServeOptions(), discardf); err == nil {
		t.Error("unknown dataset accepted")
	}
	cfg = base
	cfg.network, cfg.model, cfg.strategy = "/does/not/exist", "/nope", "lazy"
	if _, err := setup(cfg, testServeOptions(), discardf); err == nil {
		t.Error("missing files accepted")
	}
}

func TestParseShardGroups(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
		ok   bool
	}{
		{"h1:8501", [][]string{{"h1:8501"}}, true},
		{"h1:8501,h2:8502", [][]string{{"h1:8501"}, {"h2:8502"}}, true},
		{"h1:8501|h1b:8501,h2:8502", [][]string{{"h1:8501", "h1b:8501"}, {"h2:8502"}}, true},
		{" h1:8501 , , h2:8502 ", [][]string{{"h1:8501"}, {"h2:8502"}}, true},
		{"", nil, false},
		{",|,", nil, false},
	}
	for _, c := range cases {
		got, err := parseShardGroups(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseShardGroups(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseShardGroups(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// coordinatorConfig is the fleet-matching flag set for coordinator tests
// (the shard server below is built from the same dataset recipe).
func coordinatorConfig(shards string) buildConfig {
	return buildConfig{
		dataset: "lastfm", seed: 1, scale: 0.02, strategy: "indexest+",
		epsilon: 0.7, delta: 1000, maxSamples: 500, maxIndexSamples: 4000,
		cheapBounds: true, maxK: 10,
		shards: shards, shardDeadline: 2 * time.Second,
	}
}

// TestSetupCoordinator dials a real in-process shard server and serves a
// query through the scatter path end to end.
func TestSetupCoordinator(t *testing.T) {
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.02), 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := serve.NewShardServer(net, model, pitex.Options{
		Strategy: pitex.StrategyIndexPruned, Epsilon: 0.7, Delta: 1000, MaxK: 10,
		Seed: 1, MaxSamples: 500, MaxIndexSamples: 4000,
	}, serve.ShardConfig{TotalShards: 1})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	shard := httptest.NewServer(ss.Handler())
	defer shard.Close()

	srv, err := setup(coordinatorConfig(shard.URL), testServeOptions(), discardf)
	if err != nil {
		t.Fatalf("coordinator setup: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/selling-points?user=0&k=2")
	if err != nil {
		t.Fatalf("GET selling-points: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scattered query = %d", resp.StatusCode)
	}
}

func TestSetupCoordinatorErrors(t *testing.T) {
	cfg := coordinatorConfig("localhost:1") // nothing listens on port 1
	cfg.index = "index.bin"
	if _, err := setup(cfg, testServeOptions(), discardf); err == nil {
		t.Error("-index accepted in coordinator mode")
	}
	cfg = coordinatorConfig("")
	cfg.shards = " , "
	if _, err := setup(cfg, testServeOptions(), discardf); err == nil {
		t.Error("empty -shards spec accepted")
	}
}

// TestSetupCoordinatorStrategyMismatch: the fleet's strategy is part of
// the wire contract; a coordinator asking for a different one must fail
// fast at dial time.
func TestSetupCoordinatorStrategyMismatch(t *testing.T) {
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.02), 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := serve.NewShardServer(net, model, pitex.Options{
		Strategy: pitex.StrategyIndex, Epsilon: 0.7, Delta: 1000, MaxK: 10,
		Seed: 1, MaxSamples: 500, MaxIndexSamples: 4000,
	}, serve.ShardConfig{TotalShards: 1})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	shard := httptest.NewServer(ss.Handler())
	defer shard.Close()
	if _, err := setup(coordinatorConfig(shard.URL), testServeOptions(), discardf); err == nil {
		t.Error("strategy mismatch accepted")
	}
}

// TestSetupCoordinatorUserMismatch: a fleet built over another network
// (here a larger scale of the same dataset) must be refused at start-up,
// naming both user counts, rather than answer from the wrong graph.
func TestSetupCoordinatorUserMismatch(t *testing.T) {
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.03), 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := serve.NewShardServer(net, model, pitex.Options{
		Strategy: pitex.StrategyIndexPruned, Epsilon: 0.7, Delta: 1000, MaxK: 10,
		Seed: 1, MaxSamples: 500, MaxIndexSamples: 4000,
	}, serve.ShardConfig{TotalShards: 1})
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	defer ss.Close()
	shard := httptest.NewServer(ss.Handler())
	defer shard.Close()
	local, _, err := pitex.GenerateDatasetSpec(spec.Scaled(0.02), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = setup(coordinatorConfig(shard.URL), testServeOptions(), discardf)
	for _, n := range []int{net.NumUsers(), local.NumUsers()} {
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Fatalf("coordinator over %d users, fleet over %d: err = %v, want both counts named",
				local.NumUsers(), net.NumUsers(), err)
		}
	}
}
