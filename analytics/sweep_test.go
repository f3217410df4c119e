package analytics

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pitex"
)

// fig2Engine builds an engine over the paper's Fig. 2 running example
// (7 users, 4 tags, known optimum {w3 w4} for u1 at k=2).
func fig2Engine(tb testing.TB, s pitex.Strategy) *pitex.Engine {
	tb.Helper()
	return fig2EngineEpsilon(tb, s, 0.15)
}

// fig2EngineEpsilon is fig2Engine with an explicit accuracy setting.
func fig2EngineEpsilon(tb testing.TB, s pitex.Strategy, epsilon float64) *pitex.Engine {
	tb.Helper()
	nb := pitex.NewNetworkBuilder(7, 3)
	nb.AddEdge(0, 1, pitex.TopicProb{Topic: 0, Prob: 0.4})
	nb.AddEdge(0, 2, pitex.TopicProb{Topic: 1, Prob: 0.5}, pitex.TopicProb{Topic: 2, Prob: 0.5})
	nb.AddEdge(2, 5, pitex.TopicProb{Topic: 0, Prob: 0.5})
	nb.AddEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.8})
	nb.AddEdge(3, 5, pitex.TopicProb{Topic: 2, Prob: 0.5})
	nb.AddEdge(3, 6, pitex.TopicProb{Topic: 2, Prob: 0.4})
	nb.AddEdge(5, 6, pitex.TopicProb{Topic: 2, Prob: 0.5})
	net, err := nb.Build()
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	model, err := pitex.NewTagModel(4, 3)
	if err != nil {
		tb.Fatalf("NewTagModel: %v", err)
	}
	rows := [][3]float64{{0.6, 0.4, 0}, {0.4, 0.6, 0}, {0, 0.4, 0.6}, {0, 0.4, 0.6}}
	for w, row := range rows {
		for z, p := range row {
			if err := model.SetTagTopic(w, z, p); err != nil {
				tb.Fatalf("SetTagTopic: %v", err)
			}
		}
	}
	for w, name := range []string{"w1", "w2", "w3", "w4"} {
		model.SetTagName(w, name)
	}
	en, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        s,
		Epsilon:         epsilon,
		Delta:           200,
		MaxK:            4,
		Seed:            11,
		MaxSamples:      20000,
		MaxIndexSamples: 20000,
	})
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	return en
}

// leaderboardBytes runs a sweep and renders its output.
func leaderboardBytes(t *testing.T, en *pitex.Engine, opts Options) []byte {
	t.Helper()
	lb, err := Run(context.Background(), en, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := lb.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestSweepLeaderboardMatchesDirectQueries(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	lb, err := Run(context.Background(), en, Options{K: 2, TopN: 3, ChunkSize: 2, Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lb.UsersSwept != 7 || lb.Errors != 0 {
		t.Fatalf("swept %d users with %d errors, want 7/0", lb.UsersSwept, lb.Errors)
	}
	if len(lb.TopUsers) != 3 {
		t.Fatalf("top users = %d rows, want 3", len(lb.TopUsers))
	}
	// Every row must reproduce a direct query (same seed semantics: a
	// fresh clone per chunk ⇒ same answer a fresh engine gives).
	for _, row := range lb.TopUsers {
		res, err := en.Clone().Query(context.Background(), pitex.Request{User: row.User, K: 2})
		if err != nil {
			t.Fatalf("direct query %d: %v", row.User, err)
		}
		if res.Influence != row.Influence {
			t.Errorf("user %d influence %v, direct query says %v", row.User, row.Influence, res.Influence)
		}
	}
	// Descending influence, ties by user.
	for i := 1; i < len(lb.TopUsers); i++ {
		a, b := lb.TopUsers[i-1], lb.TopUsers[i]
		if a.Influence < b.Influence || (a.Influence == b.Influence && a.User > b.User) {
			t.Fatalf("top users out of order: %+v before %+v", a, b)
		}
	}
	// u1 (user 0) reaches the most of the graph; it must lead with {w3 w4}.
	if lb.TopUsers[0].User != 0 {
		t.Errorf("leader = %+v, want user 0", lb.TopUsers[0])
	}
	if got := lb.TopUsers[0].Tags; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("leader tags = %v, want [2 3]", got)
	}
	if names := lb.TopUsers[0].TagNames; len(names) != 2 || names[0] != "w3" {
		t.Errorf("leader tag names = %v", names)
	}
	// Histogram counts sum to k * users swept.
	total := 0
	for _, tc := range lb.TagHistogram {
		total += tc.Count
	}
	if total != 2*7 {
		t.Fatalf("histogram total %d, want 14", total)
	}
	for i := 1; i < len(lb.TagHistogram); i++ {
		a, b := lb.TagHistogram[i-1], lb.TagHistogram[i]
		if a.Count < b.Count || (a.Count == b.Count && a.Tag > b.Tag) {
			t.Fatalf("histogram out of order: %+v before %+v", a, b)
		}
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyLazy)
	base := leaderboardBytes(t, en, Options{K: 2, TopN: 5, ChunkSize: 2, Workers: 1})
	for _, workers := range []int{2, 4, 7} {
		got := leaderboardBytes(t, en, Options{K: 2, TopN: 5, ChunkSize: 2, Workers: workers})
		if !bytes.Equal(base, got) {
			t.Fatalf("Workers=%d output diverged from Workers=1:\n%s\nvs\n%s", workers, got, base)
		}
	}
}

// TestSweepKillResumeEquivalence is the acceptance criterion: a sweep
// killed after ANY checkpoint boundary and resumed produces byte-identical
// leaderboard output to an uninterrupted run.
func TestSweepKillResumeEquivalence(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	opts := Options{K: 2, TopN: 5, ChunkSize: 2, Workers: 2} // 7 users → 4 chunks
	want := leaderboardBytes(t, en, opts)

	dir := t.TempDir()
	for boundary := 0; boundary <= 4; boundary++ {
		ckpt := filepath.Join(dir, "sweep.ckpt")
		os.Remove(ckpt)

		// First run: cancel as soon as `boundary` chunks are checkpointed.
		ctx, cancel := context.WithCancel(context.Background())
		interrupted := opts
		interrupted.CheckpointPath = ckpt
		var done atomic.Int64
		interrupted.OnProgress = func(p Progress) {
			done.Store(int64(p.ChunksDone))
			if p.ChunksDone >= boundary {
				cancel()
			}
		}
		_, err := Run(ctx, en, interrupted)
		cancel()
		if boundary < 4 && err == nil {
			t.Fatalf("boundary %d: interrupted run did not report cancellation", boundary)
		}

		// Resume to completion and compare bytes.
		resumed := opts
		resumed.CheckpointPath = ckpt
		resumed.Resume = true
		var restored atomic.Int64
		first := true
		resumed.OnProgress = func(p Progress) {
			if first {
				restored.Store(int64(p.ChunksDone))
				first = false
			}
		}
		got := leaderboardBytes(t, en, resumed)
		if !bytes.Equal(want, got) {
			t.Fatalf("boundary %d: resumed output diverged:\n%s\nvs uninterrupted\n%s", boundary, got, want)
		}
		// The resume must have started from persisted work, not from
		// scratch (boundary chunks were checkpointed before the kill).
		if r := restored.Load(); r < int64(boundary) {
			t.Fatalf("boundary %d: resume restored only %d chunks", boundary, r)
		}
	}
}

func TestSweepCohortAndValidation(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	lb, err := Run(context.Background(), en, Options{K: 2, TopN: 10, ChunkSize: 2, Users: []int{5, 2, 0}})
	if err != nil {
		t.Fatalf("cohort Run: %v", err)
	}
	if lb.UsersSwept != 3 {
		t.Fatalf("cohort swept %d users, want 3", lb.UsersSwept)
	}
	seen := map[int]bool{}
	for _, row := range lb.TopUsers {
		seen[row.User] = true
	}
	if !seen[0] || !seen[2] || !seen[5] || len(seen) != 3 {
		t.Fatalf("cohort rows = %v, want users {0,2,5}", seen)
	}

	if _, err := Run(context.Background(), en, Options{Users: []int{0, 0}}); err == nil ||
		!strings.Contains(err.Error(), "duplicate cohort user") {
		t.Fatalf("duplicate cohort: err = %v", err)
	}
	if _, err := Run(context.Background(), en, Options{Users: []int{99}}); err == nil ||
		!strings.Contains(err.Error(), "outside [0,7)") {
		t.Fatalf("out-of-range cohort: err = %v", err)
	}
	if _, err := Run(context.Background(), nil, Options{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := Run(context.Background(), en, Options{K: -1}); err == nil {
		t.Fatal("negative K accepted")
	}
	// A K the engine can never answer must fail upfront, not produce an
	// empty "done" leaderboard after one error per user. fig2's engine has
	// MaxK = 4 over a 4-tag vocabulary, so K = 9 trips the MaxK bound.
	if _, err := Run(context.Background(), en, Options{K: 9}); err == nil ||
		!strings.Contains(err.Error(), "MaxK") {
		t.Fatalf("K beyond MaxK: err = %v", err)
	}
	if _, err := Run(context.Background(), en, Options{TopN: -1}); err == nil {
		t.Fatal("negative TopN accepted")
	}
}

func TestSweepCheckpointRejectsForeignFiles(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	opts := Options{K: 2, TopN: 5, ChunkSize: 2, CheckpointPath: ckpt}
	if _, err := Run(context.Background(), en, opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatalf("checkpoint is not JSON: %v", err)
	}
	if cf.Version != CheckpointVersion || len(cf.Chunks) != 4 {
		t.Fatalf("checkpoint = version %d, %d chunks; want %d, 4", cf.Version, len(cf.Chunks), CheckpointVersion)
	}

	// A different k is a different sweep: resume must refuse.
	bad := opts
	bad.Resume = true
	bad.K = 1
	if _, err := Run(context.Background(), en, bad); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("fingerprint mismatch: err = %v", err)
	}
	// A different cohort likewise.
	bad = opts
	bad.Resume = true
	bad.Users = []int{0, 1, 2}
	if _, err := Run(context.Background(), en, bad); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("cohort mismatch: err = %v", err)
	}
	// An engine with different accuracy options is a different sweep too:
	// its chunk results are not interchangeable with the checkpoint's.
	resumeOpts := opts
	resumeOpts.Resume = true
	looser := fig2EngineEpsilon(t, pitex.StrategyIndexPruned, 0.7)
	if _, err := Run(context.Background(), looser, resumeOpts); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("engine-options mismatch: err = %v", err)
	}
	// An unknown version must be rejected, not misparsed.
	cf.Version = 99
	raw, _ := json.Marshal(cf)
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	good := opts
	good.Resume = true
	if _, err := Run(context.Background(), en, good); err == nil ||
		!strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version: err = %v", err)
	}
	// Corrupt JSON must be rejected.
	if err := os.WriteFile(ckpt, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), en, good); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	// A missing file under Resume is a fresh start, not an error.
	os.Remove(ckpt)
	if _, err := Run(context.Background(), en, good); err != nil {
		t.Fatalf("missing checkpoint under Resume: %v", err)
	}
}

// TestSweepAbortsOnCheckpointWriteError: a fatal persistence error must
// stop the sweep at once (not grind through every remaining chunk
// re-failing the write) and surface the original cause.
func TestSweepAbortsOnCheckpointWriteError(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	var progressed int
	_, err := Run(context.Background(), en, Options{
		K: 2, ChunkSize: 1, Workers: 1,
		CheckpointPath: filepath.Join(t.TempDir(), "missing-dir", "sweep.ckpt"),
		OnProgress:     func(Progress) { progressed++ },
	})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want a checkpoint error", err)
	}
	// Chunk 1's commit fails; the internal abort must stop the other six
	// chunks from being swept (progress reports: one initial + one for
	// the poisoned commit, nothing after).
	if progressed > 2 {
		t.Fatalf("sweep kept running after a fatal checkpoint error (%d progress reports)", progressed)
	}
}

func TestSweepCancellation(t *testing.T) {
	en := fig2Engine(t, pitex.StrategyIndexPruned)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, en, Options{K: 2, ChunkSize: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run: err = %v, want context.Canceled", err)
	}
}
