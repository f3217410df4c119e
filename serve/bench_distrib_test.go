package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pitex"
	"pitex/distrib"
)

// benchCluster assembles an in-process scatter-gather deployment over the
// lastfm recipe: S single-shard servers behind httptest listeners and a
// coordinator dialed over loopback HTTP. The numbers include the full
// wire cost (JSON marshalling, HTTP round trips, hedging machinery), so
// they sit well above the in-process sharded baseline — that gap is the
// distribution tax BENCH_distrib.json tracks.
func benchCluster(b *testing.B, S int) (*Server, *distrib.Client) {
	b.Helper()
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		b.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.05), 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := pitex.Options{
		Strategy:        pitex.StrategyIndexPruned,
		Seed:            1,
		MaxSamples:      5000,
		MaxIndexSamples: 50000,
		IndexShards:     S,
	}
	groups := make([][]string, S)
	for s := 0; s < S; s++ {
		ss, err := NewShardServer(net, model, opts, ShardConfig{TotalShards: S, Owned: []int{s}})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(ss.Handler())
		b.Cleanup(ts.Close)
		groups[s] = []string{ts.URL}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client, err := distrib.Dial(ctx, groups, distrib.Options{ShardDeadline: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	en, err := pitex.NewRemoteEngine(net, model, opts, client)
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewCoordinator(en, client, pitex.ServeOptions{PoolSize: 2, CacheCapacity: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	return coord, client
}

// scatterUsers are the users BenchmarkDistribScatter round-robins over:
// a fixed list, so a row's counts are a mean over users rather than the
// search one user's re-drawn sample happens to need.
var scatterUsers = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// BenchmarkDistribScatter measures one uncached selling-points query
// through the full distributed path (coordinator exploration → HTTP
// scatter → shard-server estimation → gather) at increasing shard counts
// and query sizes, and reports how the query crossed the wire: scatters/op
// and the siblings/op that rode in frontier batches (their ratio is the
// mean batch width; k=3 explores many more sibling groups than k=2). Op i
// queries scatterUsers[i mod 10], each user queried once untimed first.
func BenchmarkDistribScatter(b *testing.B) {
	for _, row := range []struct {
		name string
		S, k int
	}{{"S1", 1, 2}, {"S3", 3, 2}, {"S1-k3", 1, 3}, {"S3-k3", 3, 3}} {
		b.Run(row.name, func(b *testing.B) {
			coord, client := benchCluster(b, row.S)
			for _, u := range scatterUsers {
				if _, _, err := coord.SellingPoints(context.Background(), u, row.k, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			before := client.Status()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := coord.SellingPoints(context.Background(), scatterUsers[i%len(scatterUsers)], row.k, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := client.Status()
			b.ReportMetric(float64(after.Scatters-before.Scatters)/float64(b.N), "scatters/op")
			b.ReportMetric(float64(after.FrontierSiblings-before.FrontierSiblings)/float64(b.N), "siblings/op")
		})
	}
}
