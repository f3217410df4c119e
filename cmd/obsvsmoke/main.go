// Command obsvsmoke drives the observability surface of a running PITEX
// fleet end to end and exits non-zero when any check fails. It is the CI
// companion of the distrib smoke test:
//
//  1. /metrics on the coordinator and every shard server must parse as
//     strict Prometheus text, carry a pitex_build_info sample and a
//     positive pitex_index_effective_epsilon (the error budget the index
//     delivers); every shard's must also carry its shedding counters
//     (pitex_shard_rejected_total, pitex_shard_timeouts_total).
//  2. A traced query (?trace=1) against the coordinator must return a
//     span tree containing a shard-rpc span.
//  3. The trace ID of that query must appear in at least one shard
//     server's /tracez ring — proving the X-Pitex-Trace header
//     propagated across the RPC boundary.
//
// Usage:
//
//	obsvsmoke -coordinator localhost:8437 -shards localhost:8501,localhost:8502
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pitex/obsv"
)

func main() {
	var (
		coord  = flag.String("coordinator", "localhost:8437", "coordinator host:port")
		shards = flag.String("shards", "", "comma-separated shard-server host:port list")
		user   = flag.Int("user", 1, "user ID for the traced query")
		k      = flag.Int("k", 2, "tag-set size for the traced query")
	)
	flag.Parse()
	var shardAddrs []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shardAddrs = append(shardAddrs, s)
		}
	}
	if err := run(*coord, shardAddrs, *user, *k); err != nil {
		fmt.Fprintln(os.Stderr, "obsvsmoke:", err)
		os.Exit(1)
	}
	fmt.Println("obsvsmoke: all checks passed")
}

func run(coord string, shards []string, user, k int) error {
	client := &http.Client{Timeout: 10 * time.Second}

	// Check 1: strict-parse /metrics everywhere; build info must be there,
	// and on a shard the counters that say whether it is shedding.
	for i, addr := range append([]string{coord}, shards...) {
		fams, err := scrapeMetrics(client, addr)
		if err != nil {
			return fmt.Errorf("%s: %w", addr, err)
		}
		want := []string{"pitex_build_info"}
		if i > 0 {
			want = append(want, shardFamilies...)
		}
		for _, name := range want {
			if _, ok := fams[name]; !ok {
				return fmt.Errorf("%s: /metrics has no %s", addr, name)
			}
		}
		if err := checkEffectiveEpsilon(fams); err != nil {
			return fmt.Errorf("%s: %w", addr, err)
		}
		fmt.Printf("%s: /metrics parsed, %d families\n", addr, len(fams))
	}

	// Check 2: a traced query returns a span tree with a shard-rpc span.
	var out struct {
		Trace *obsv.TraceData `json:"trace"`
	}
	url := fmt.Sprintf("http://%s/selling-points?user=%d&k=%d&trace=1", coord, user, k)
	if err := getJSON(client, url, &out); err != nil {
		return err
	}
	if out.Trace == nil {
		return fmt.Errorf("traced query returned no trace field")
	}
	if out.Trace.TraceID == "" {
		return fmt.Errorf("traced query returned an empty trace ID")
	}
	var sawRPC bool
	for _, sp := range out.Trace.Spans {
		if sp.Name == "shard-rpc" {
			sawRPC = true
			break
		}
	}
	if !sawRPC {
		names := make([]string, 0, len(out.Trace.Spans))
		for _, sp := range out.Trace.Spans {
			names = append(names, sp.Name)
		}
		return fmt.Errorf("trace %s has no shard-rpc span (spans: %s)",
			out.Trace.TraceID, strings.Join(names, ", "))
	}
	fmt.Printf("%s: trace %s carries %d spans incl. shard-rpc\n",
		coord, out.Trace.TraceID, len(out.Trace.Spans))

	// Check 3: the same trace ID shows up on a shard's /tracez, i.e. the
	// wire header propagated and the shard joined the trace.
	found := false
	for _, addr := range shards {
		var tz struct {
			Traces []obsv.TraceData `json:"traces"`
		}
		if err := getJSON(client, "http://"+addr+"/tracez", &tz); err != nil {
			return err
		}
		for _, tr := range tz.Traces {
			if tr.TraceID == out.Trace.TraceID {
				fmt.Printf("%s: /tracez holds trace %s (%d spans)\n", addr, tr.TraceID, len(tr.Spans))
				found = true
				break
			}
		}
	}
	if len(shards) > 0 && !found {
		return fmt.Errorf("trace %s not found in any shard /tracez", out.Trace.TraceID)
	}
	return nil
}

// shardFamilies are the families every shard server's /metrics must carry
// beyond build info: its admission gate's shed and queue-timeout counts.
var shardFamilies = []string{"pitex_shard_rejected_total", "pitex_shard_timeouts_total"}

// checkEffectiveEpsilon requires one positive pitex_index_effective_epsilon
// sample: every coordinator and shard server of a fleet serves an index.
func checkEffectiveEpsilon(fams map[string]*obsv.ParsedFamily) error {
	f, ok := fams["pitex_index_effective_epsilon"]
	if !ok || len(f.Samples) != 1 {
		return fmt.Errorf("/metrics has no pitex_index_effective_epsilon sample")
	}
	if v := f.Samples[0].Value; !(v > 0) {
		return fmt.Errorf("pitex_index_effective_epsilon = %v, want > 0", v)
	}
	return nil
}

// scrapeMetrics fetches and strictly parses an endpoint's /metrics.
func scrapeMetrics(client *http.Client, addr string) (map[string]*obsv.ParsedFamily, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("/metrics content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obsv.ParseText(string(body))
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
