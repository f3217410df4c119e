package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
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

// BenchmarkServe compares the serving subsystem's cost tiers for an
// identical query: a full estimation on every request (cache disabled), a
// cache hit through SellingPoints, the same hit through the HTTP handler,
// and hits from parallel callers. The acceptance bar is cached >= 10x faster than uncached;
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

	// http-hit is a warmed hit through Handler() into an httptest
	// recorder: the request pipeline's own cost around the lookup (query
	// parsing, the trace, the answer document), the recorder included.
	b.Run("http-hit", func(b *testing.B) {
		srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodGet, "/selling-points?user=0&k=2", nil)
		for i := 0; i <= b.N; i++ {
			if i == 1 {
				b.ReportAllocs()
				b.ResetTimer() // the first request warms the cache
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
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
