package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pitex"
)

// TestStatszReportsIndexShards: /statsz must expose the per-shard index
// breakdown (bytes and cumulative repair counts) for a sharded engine,
// and the rows must survive a hot-swap with their repair counters moving.
func TestStatszReportsIndexShards(t *testing.T) {
	en := fig2EngineSharded(t, pitex.StrategyIndexPruned, 3)
	srv, err := New(en, pitex.ServeOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readShards := func() []pitex.IndexShardStat {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatalf("GET /statsz: %v", err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if st.IndexBytes <= 0 {
			t.Fatalf("index_bytes = %d, want > 0", st.IndexBytes)
		}
		return st.IndexShards
	}

	shards := readShards()
	if len(shards) != 3 {
		t.Fatalf("index_shards rows = %d, want 3", len(shards))
	}
	var bytesSum int64
	users, singletons, inStars := 0, 0, 0
	for _, s := range shards {
		bytesSum += s.IndexBytes
		users += s.Users
		singletons += s.Singletons
		inStars += s.InStars
		if s.Singletons < 0 || s.InStars < 0 || s.Singletons+s.InStars > s.Graphs {
			t.Errorf("shard %d reports %d singletons and %d in-stars of %d graphs", s.Shard, s.Singletons, s.InStars, s.Graphs)
		}
		if s.GraphsRepaired != 0 {
			t.Errorf("shard %d reports %d repairs before any update", s.Shard, s.GraphsRepaired)
		}
	}
	if users != 7 {
		t.Errorf("shard partitions cover %d users, want 7", users)
	}
	if singletons == 0 || inStars == 0 {
		t.Errorf("shards report %d one-vertex graphs and %d in-stars, want some of each", singletons, inStars)
	}
	if bytesSum != srv.Stats().IndexBytes {
		t.Errorf("per-shard bytes %d != index_bytes %d", bytesSum, srv.Stats().IndexBytes)
	}

	// A live update must advance the per-shard repair counters.
	var batch pitex.UpdateBatch
	batch.SetEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.9})
	stats, err := srv.ApplyUpdates(&batch)
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	after := readShards()
	if len(after) != 3 {
		t.Fatalf("index_shards rows after swap = %d, want 3", len(after))
	}
	var repaired int64
	for _, s := range after {
		repaired += s.GraphsRepaired
	}
	if repaired != int64(stats.GraphsRepaired+stats.GraphsAppended) {
		t.Errorf("per-shard repairs %d != update stats %d", repaired, stats.GraphsRepaired+stats.GraphsAppended)
	}
}
