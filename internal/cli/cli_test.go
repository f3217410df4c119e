package cli

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pitex"
	"pitex/internal/faultinject"
)

// parseInputs registers Inputs on a fresh flag set and parses args.
func parseInputs(t *testing.T, args ...string) Inputs {
	t.Helper()
	var in Inputs
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	in.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return in
}

// writeFiles writes a small generated network and tag model and returns
// their paths.
func writeFiles(t *testing.T) (networkPath, modelPath string) {
	t.Helper()
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.02), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	networkPath, modelPath = filepath.Join(dir, "g.network"), filepath.Join(dir, "g.model")
	for path, write := range map[string]func(io.Writer) error{networkPath: net.Write, modelPath: model.Write} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return networkPath, modelPath
}

func TestLoad(t *testing.T) {
	np, mp := writeFiles(t)
	gen, _, err := parseInputs(t, "-dataset", "lastfm", "-scale", "0.02").Load()
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	read, _, err := parseInputs(t, "-network", np, "-model", mp).Load()
	if err != nil {
		t.Fatalf("files: %v", err)
	}
	if gen.NumUsers() != read.NumUsers() || gen.NumEdges() != read.NumEdges() {
		t.Fatalf("files hold %d users / %d edges, the dataset %d / %d",
			read.NumUsers(), read.NumEdges(), gen.NumUsers(), gen.NumEdges())
	}
}

func TestLoadRefusals(t *testing.T) {
	np, mp := writeFiles(t)
	for _, c := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{nil, []string{"need either -dataset or both -network and -model"}},
		{[]string{"-network", np}, []string{"need either"}},
		{[]string{"-dataset", "lastfm", "-network", np, "-model", mp}, []string{"-dataset", "-network"}},
		{[]string{"-dataset", "lastfm", "-model", mp}, []string{"-dataset", "-model"}},
		{[]string{"-network", np, "-model", mp, "-scale", "0.5"}, []string{"-scale"}},
		{[]string{"-network", "/does/not/exist", "-model", mp}, []string{"/does/not/exist"}},
		{[]string{"-dataset", "nope"}, []string{"nope"}},
	} {
		_, _, err := parseInputs(t, c.args...).Load()
		for _, w := range c.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("Load(%q) = %v, want an error containing %q", c.args, err, w)
			}
		}
	}
}

func TestEngineRegisterAndOptions(t *testing.T) {
	var e Engine
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e.Register(fs, "lazy", "max-k", "index-shards")
	for _, name := range []string{"max-k", "index-shards"} {
		if fs.Lookup(name) != nil {
			t.Errorf("omitted flag -%s registered", name)
		}
	}
	if err := fs.Parse([]string{"-strategy", "delaymat", "-epsilon", "0.5", "-max-samples", "7"}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Options(9)
	if err != nil {
		t.Fatal(err)
	}
	want := pitex.Options{Strategy: pitex.StrategyDelay, Epsilon: 0.5, Delta: 1000, MaxK: 10,
		Seed: 9, MaxSamples: 7, MaxIndexSamples: 200000}
	if got != want {
		t.Fatalf("Options = %+v, want %+v", got, want)
	}
	e.Strategy = "bogus"
	if _, err := e.Options(1); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestProcessStart(t *testing.T) {
	defer slog.SetDefault(slog.Default())
	defer faultinject.Disable()
	if _, err := (Process{LogFormat: "xml"}).Start(); err == nil {
		t.Error("bad -log-format accepted")
	}
	if _, err := (Process{LogFormat: "text", Faults: "nowhere:bogus"}).Start(); err == nil || !strings.Contains(err.Error(), "-faults") {
		t.Errorf("bad -faults: err = %v, want one naming -faults", err)
	}
	if faultinject.Enabled() {
		t.Fatal("a refused -faults spec left injection enabled")
	}
	if _, err := (Process{LogFormat: "json", Faults: "serve/shard/estimate:error:count=1", FaultSeed: 3}).Start(); err != nil {
		t.Fatalf("good -faults: %v", err)
	}
	if !faultinject.Enabled() {
		t.Fatal("-faults did not enable injection")
	}
}

// fakeServer answers 200 until closed, 503 after.
type fakeServer struct{ closed atomic.Bool }

func (f *fakeServer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.closed.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
}

func (f *fakeServer) Close() { f.closed.Store(true) }

// syncBuffer is a log sink safe to read while Serve writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeStopsOnSIGTERM drives the whole loop: Serve answers until the
// process gets SIGTERM, then drains, logs "shutdown complete" and closes
// the server.
func TestServeStopsOnSIGTERM(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var logs syncBuffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	srv := &fakeServer{}
	done := make(chan error, 1)
	go func() { done <- (Process{DrainTimeout: time.Second}).Serve(logger, addr, srv) }()
	// A 200 means Serve is past signal registration.
	for i := 0; ; i++ {
		resp, err := http.Get("http://" + addr)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET = %d before shutdown", resp.StatusCode)
			}
			break
		}
		if i == 200 {
			t.Fatalf("Serve never answered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not stop on SIGTERM")
	}
	if !srv.closed.Load() {
		t.Error("server not closed after the drain")
	}
	for _, want := range []string{"listening", "shutting down", "shutdown complete"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
}

// TestServeBoundsTheDrain: a request that outlives -drain-timeout does
// not hold shutdown hostage.
func TestServeBoundsTheDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	go func() { done <- (Process{DrainTimeout: 50 * time.Millisecond}).serve(ctx, logger, ln, stuck) }()
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String()); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a stuck request held the drain past -drain-timeout")
	}
}

func TestServeListenError(t *testing.T) {
	srv := &fakeServer{}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := (Process{}).Serve(logger, "256.0.0.1:bad", srv); err == nil {
		t.Fatal("bad address accepted")
	}
	if !srv.closed.Load() {
		t.Fatal("server left open on the error path")
	}
}
