package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func discardf(string, ...any) {}

// parse builds a config from command-line arguments, as main does, over
// a small index.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("pitexshard", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(append([]string{"-max-index-samples", "4000"}, args...)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFlags pins every flag's name and default.
func TestFlags(t *testing.T) {
	want := map[string]string{
		"addr": "localhost:8501", "dataset": "", "debug-addr": "", "delta": "1000",
		"drain-timeout": "10s", "epsilon": "0.7", "fault-seed": "1", "faults": "",
		"index-shards": "0", "log-format": "text", "max-index-samples": "200000",
		"max-k": "10", "model": "", "network": "", "own": "", "queue": "0",
		"queue-timeout": "0s", "scale": "1", "seed": "1", "strategy": "indexest+",
		"workers": "0",
	}
	var c config
	fs := flag.NewFlagSet("pitexshard", flag.ContinueOnError)
	c.register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults:\n got  %v\n want %v", got, want)
	}
}

func TestParseOwned(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"  ", nil, true},
		{"0", []int{0}, true},
		{"0,2,5", []int{0, 2, 5}, true},
		{" 1 , 3 ", []int{1, 3}, true},
		{"0,,2", []int{0, 2}, true},
		{"x", nil, false},
		{"0,two", nil, false},
	}
	for _, c := range cases {
		got, err := parseOwned(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseOwned(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseOwned(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSetupAndServeShard(t *testing.T) {
	ss, err := setup(parse(t, "-dataset", "lastfm", "-scale", "0.02", "-index-shards", "2", "-own", "0"), discardf)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer ss.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ss.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()
	for _, url := range []string{"/healthz", "/readyz", "/shard/info", "/statsz"} {
		resp, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
	}
}

func TestSetupErrors(t *testing.T) {
	cases := map[string][]string{
		"no input":     {},
		"bad strategy": {"-dataset", "lastfm", "-scale", "0.02", "-strategy", "bogus"},
		"bad own":      {"-dataset", "lastfm", "-scale", "0.02", "-own", "zero"},
		"own outside layout": {"-dataset", "lastfm", "-scale", "0.02",
			"-index-shards", "2", "-own", "7"},
		"online strategy": {"-dataset", "lastfm", "-scale", "0.02", "-strategy", "lazy"},
		"conflicting inputs": {"-dataset", "lastfm", "-scale", "0.02",
			"-network", "x", "-model", "y"},
	}
	for name, args := range cases {
		if ss, err := setup(parse(t, args...), discardf); err == nil {
			ss.Close()
			t.Errorf("%s: setup succeeded", name)
		}
	}
}
