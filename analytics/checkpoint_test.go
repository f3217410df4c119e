package analytics

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pitex"
)

// legacyCheckpoint runs a complete checkpointed sweep of en, then rewrites
// its fingerprint to carry cheap_bounds as older builds recorded it. It
// returns resume options for the file and the uninterrupted output.
func legacyCheckpoint(t *testing.T, en *pitex.Engine, cheapBounds bool) (Options, []byte) {
	t.Helper()
	opts := Options{K: 2, TopN: 5, ChunkSize: 2, CheckpointPath: filepath.Join(t.TempDir(), "sweep.ckpt")}
	want := leaderboardBytes(t, en, opts)
	data, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	var cf map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // keep users_hash exact
	if err := dec.Decode(&cf); err != nil {
		t.Fatalf("checkpoint is not JSON: %v", err)
	}
	cf["fingerprint"].(map[string]any)["cheap_bounds"] = cheapBounds
	if data, err = json.Marshal(cf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.CheckpointPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	return opts, want
}

// TestLegacyCheckpointResumes: a checkpoint written while the
// fingerprint carried cheap_bounds still resumes, whatever an index
// sweep recorded and for an online sweep recorded on the reach-count
// bound, which is the only online bound now.
func TestLegacyCheckpointResumes(t *testing.T) {
	for _, tc := range []struct {
		strategy    pitex.Strategy
		cheapBounds bool
	}{
		{pitex.StrategyIndexPruned, false},
		{pitex.StrategyIndexPruned, true},
		{pitex.StrategyLazy, true},
	} {
		en := fig2Engine(t, tc.strategy)
		opts, want := legacyCheckpoint(t, en, tc.cheapBounds)
		if got := leaderboardBytes(t, en, opts); !bytes.Equal(got, want) {
			t.Fatalf("%v cheap_bounds=%v: resumed output diverged:\n%s\nvs\n%s", tc.strategy, tc.cheapBounds, got, want)
		}
	}
}

// TestSampledBoundCheckpointRefused: an online sweep recorded with
// cheap_bounds false holds chunks of the deleted sampled bound, so resume
// refuses to merge it.
func TestSampledBoundCheckpointRefused(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyLazy)
	opts, _ := legacyCheckpoint(t, en, false)
	if _, err := Run(context.Background(), en, opts); err == nil ||
		!strings.Contains(err.Error(), "cheap_bounds false") {
		t.Fatalf("sampled-bound checkpoint: err = %v", err)
	}
}
