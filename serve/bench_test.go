package serve

import (
	"context"
	"testing"

	"pitex"
)

// benchEngine builds a small-but-real dataset engine: the lastfm recipe at
// 5% scale with the IndexEst+ strategy, the recommended serving setup.
func benchEngine(b *testing.B) *pitex.Engine {
	b.Helper()
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		b.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec.Scaled(0.05), 1)
	if err != nil {
		b.Fatal(err)
	}
	en, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        pitex.StrategyIndexPruned,
		Seed:            1,
		MaxSamples:      5000,
		MaxIndexSamples: 50000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return en
}

// BenchmarkServe compares the serving subsystem's three cost tiers for an
// identical query: a full estimation on every request (cache disabled), a
// first-touch estimation amortized over a rotating user set, and pure
// cache hits. The acceptance bar is cached >= 10x faster than uncached;
// in practice a hit is a mutex-guarded map lookup and runs ~1000x faster.
func BenchmarkServe(b *testing.B) {
	en := benchEngine(b)

	b.Run("uncached", func(b *testing.B) {
		srv, err := New(en, pitex.ServeOptions{PoolSize: 2, CacheCapacity: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		if _, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached-parallel", func(b *testing.B) {
		srv, err := New(en, pitex.ServeOptions{PoolSize: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		if _, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := srv.SellingPoints(context.Background(), 0, 2, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
