package distrib

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// updateShard is a fake shard endpoint that serves /shard/info and
// counts /shard/update deliveries, optionally failing them.
func updateShard(t *testing.T, shards []ShardInfo, totalShards int, hits *atomic.Int64, fail bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/info", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(InfoResponse{
			TotalShards: totalShards, TotalUsers: 150,
			Strategy: "INDEXEST+", Ready: true, Shards: shards,
		})
	})
	mux.HandleFunc("/shard/update", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if fail {
			http.Error(w, `{"error":"disk full"}`, http.StatusInternalServerError)
			return
		}
		var req UpdateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(UpdateResponse{
			Generation: req.Generation, GraphsRepaired: 3, GraphsAppended: 1,
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestUpdateFansToEveryEndpoint proves the delta path hits every replica
// of every group (each holds its own index copy), tolerates a minority
// failure, and that SetGeneration advances the stamp only when the
// caller says so.
func TestUpdateFansToEveryEndpoint(t *testing.T) {
	var h0a, h0b, h1 atomic.Int64
	s0 := []ShardInfo{{Shard: 0, Users: 100, Theta: 1000}}
	s1 := []ShardInfo{{Shard: 1, Users: 50, Theta: 500}}
	u0a := updateShard(t, s0, 2, &h0a, false)
	u0b := updateShard(t, s0, 2, &h0b, false)
	u1 := updateShard(t, s1, 2, &h1, true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, [][]string{{u0a.URL, u0b.URL}, {u1.URL}}, Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	if c.Generation() != 0 {
		t.Fatalf("fresh client generation = %d", c.Generation())
	}

	rows, err := c.Update(ctx, UpdateRequest{Generation: 1})
	if err != nil {
		t.Fatalf("Update with one failing endpoint should not be fatal: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d endpoint rows, want 3", len(rows))
	}
	if h0a.Load() != 1 || h0b.Load() != 1 || h1.Load() != 1 {
		t.Fatalf("delivery counts = %d/%d/%d, want 1 each", h0a.Load(), h0b.Load(), h1.Load())
	}
	okRows, failRows := 0, 0
	for _, row := range rows {
		if row.Error != "" {
			failRows++
			continue
		}
		okRows++
		if row.Generation != 1 || row.GraphsRepaired != 3 || row.GraphsAppended != 1 {
			t.Fatalf("healthy row: %+v", row)
		}
	}
	if okRows != 2 || failRows != 1 {
		t.Fatalf("rows: %d ok, %d failed; want 2/1", okRows, failRows)
	}

	// The stamp moves only via SetGeneration.
	if c.Generation() != 0 {
		t.Fatalf("generation advanced implicitly to %d", c.Generation())
	}
	c.SetGeneration(1)
	if c.Generation() != 1 {
		t.Fatalf("generation = %d after SetGeneration(1)", c.Generation())
	}
}

func TestUpdateAllEndpointsFailing(t *testing.T) {
	var h0, h1 atomic.Int64
	u0 := updateShard(t, []ShardInfo{{Shard: 0, Users: 100, Theta: 1000}}, 2, &h0, true)
	u1 := updateShard(t, []ShardInfo{{Shard: 1, Users: 50, Theta: 500}}, 2, &h1, true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, [][]string{{u0.URL}, {u1.URL}}, Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Update(ctx, UpdateRequest{Generation: 1}); err == nil {
		t.Fatal("update that reached no endpoint reported success")
	}
}
