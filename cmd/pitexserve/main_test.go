package main

import (
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pitex"
	"pitex/serve"
)

// parse builds a config from command-line arguments, as main does.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("pitexserve", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// small is the engine and pool every test builds, in flag form.
var small = []string{"-seed", "1", "-max-samples", "500", "-max-index-samples", "4000",
	"-pool", "2", "-queue-timeout", "10s"}

// parseSmall is parse over small plus args.
func parseSmall(t *testing.T, args ...string) config {
	t.Helper()
	return parse(t, append(append([]string(nil), small...), args...)...)
}

func discardf(string, ...any) {}

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
		"addr": "localhost:8437", "cache": "4096", "dataset": "",
		"debug-addr": "", "delta": "1000", "drain-timeout": "10s", "epsilon": "0.7",
		"fault-seed": "1", "faults": "", "index": "", "index-shards": "0",
		"journal-horizon": "0", "log-format": "text", "max-index-samples": "200000",
		"max-k": "10", "max-samples": "5000", "model": "", "network": "", "pool": "0",
		"query-timeout": "0s", "queue": "0", "queue-timeout": "5s", "reconcile-interval": "0s",
		"save-index": "", "scale": "1", "seed": "1", "shard-deadline": "2s", "shards": "",
		"strategy": "indexest+", "sweep-checkpoint-dir": "", "track-updates": "true",
	}
	var c config
	fs := flag.NewFlagSet("pitexserve", flag.ContinueOnError)
	c.register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults:\n got  %v\n want %v", got, want)
	}
}

func TestSetupAndServe(t *testing.T) {
	srv, err := setup(parseSmall(t, "-dataset", "lastfm", "-scale", "0.02"), discardf)
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
		MaxSamples: 500, MaxIndexSamples: 4000}
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

	srv, err := setup(parseSmall(t, "-network", np, "-model", mp, "-index", ip), discardf)
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
	base := parseSmall(t, "-dataset", "lastfm", "-scale", "0.02", "-strategy", "delaymat")

	cfg := base
	cfg.saveIndex = ip
	srv, err := setup(cfg, discardf)
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
	srv, err = setup(cfg, discardf)
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
	cfg.Strategy, cfg.saveIndex = "lazy", filepath.Join(dir, "nope.index")
	if _, err := setup(cfg, discardf); err == nil {
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
	cfg := parseSmall(t, "-dataset", "lastfm", "-scale", "0.02", "-save-index", target)
	if srv, err := setup(cfg, discardf); err == nil {
		srv.Close()
		t.Fatal("saving onto a non-empty directory succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) > 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

func TestSetupValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"missing inputs":  {},
		"bogus strategy":  {"-dataset", "lastfm", "-strategy", "bogus"},
		"unknown dataset": {"-dataset", "nope", "-strategy", "lazy"},
		"missing files":   {"-network", "/does/not/exist", "-model", "/nope", "-strategy", "lazy"},
		"conflicting inputs": {"-dataset", "lastfm", "-scale", "0.02",
			"-network", "/does/not/exist", "-model", "/nope"},
	} {
		if srv, err := setup(parseSmall(t, args...), discardf); err == nil {
			srv.Close()
			t.Errorf("%s accepted", name)
		}
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
func coordinatorConfig(t *testing.T, shards string) config {
	return parseSmall(t, "-dataset", "lastfm", "-scale", "0.02", "-shards", shards)
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

	srv, err := setup(coordinatorConfig(t, shard.URL), discardf)
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
	cfg := coordinatorConfig(t, "localhost:1") // nothing listens on port 1
	cfg.index = "index.bin"
	if _, err := setup(cfg, discardf); err == nil {
		t.Error("-index accepted in coordinator mode")
	}
	cfg = coordinatorConfig(t, " , ")
	if _, err := setup(cfg, discardf); err == nil {
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
	if _, err := setup(coordinatorConfig(t, shard.URL), discardf); err == nil {
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
	_, err = setup(coordinatorConfig(t, shard.URL), discardf)
	for _, n := range []int{net.NumUsers(), local.NumUsers()} {
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Fatalf("coordinator over %d users, fleet over %d: err = %v, want both counts named",
				local.NumUsers(), net.NumUsers(), err)
		}
	}
}
