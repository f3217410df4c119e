package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"

	"pitex/analytics"
)

// Sweep-job endpoint limits. A sweep occupies Workers engine clones for
// its whole runtime and retains a TopN-row leaderboard per job, so both
// are capped against hostile (or fat-fingered) admin requests.
const (
	// MaxJobWorkers caps the engine clones one sweep job may run on.
	MaxJobWorkers = 64
	// MaxJobTopN caps the leaderboard rows one sweep job may retain.
	MaxJobTopN = 10000
	// maxJobBody bounds the POST /admin/jobs request body. Large cohorts
	// (1 MiB is ~100k users) should sweep by range server-side instead.
	maxJobBody = 1 << 20
)

// jobRequest is the POST /admin/jobs JSON body. Example:
//
//	{"k": 3, "top_n": 50, "workers": 8,
//	 "users": [1, 5, 9],
//	 "checkpoint_path": "weekly.ckpt", "resume": true}
//
// Omitted fields take the analytics package defaults; omitted users sweep
// the whole population. checkpoint_path must be a bare file name and is
// stored under the server's configured SweepCheckpointDir (requests
// naming one are rejected when no directory is configured).
type jobRequest struct {
	K               int    `json:"k"`
	TopN            int    `json:"top_n"`
	Workers         int    `json:"workers"`
	ChunkSize       int    `json:"chunk_size"`
	Users           []int  `json:"users"`
	CheckpointPath  string `json:"checkpoint_path"`
	CheckpointEvery int    `json:"checkpoint_every"`
	Resume          bool   `json:"resume"`
}

// jobResponse is the GET /admin/jobs/{id} payload: the status snapshot,
// plus the leaderboard once the job is done.
type jobResponse struct {
	analytics.JobStatus
	Leaderboard *analytics.Leaderboard `json:"leaderboard,omitempty"`
}

// Jobs exposes the server's sweep-job manager for programmatic use; the
// HTTP surface below wraps the same instance.
func (s *Server) Jobs() *analytics.Manager { return s.jobs }

// StartSweep launches a population sweep pinned to the server's current
// engine generation. The job runs on its own engine clones — it does not
// occupy the query engines or their gate — and keeps answering over its pinned generation
// even if ApplyUpdates hot-swaps the serving engine mid-sweep (the job is
// then reported stale; see analytics.Manager.MarkStale).
func (s *Server) StartSweep(opts analytics.Options) (*analytics.Job, error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if err := s.gate.open(); err != nil {
		return nil, err
	}
	// Count recovered sweep panics in pitex_panics_total alongside query
	// panics, chaining any observer the caller installed.
	userPanic := opts.OnPanic
	opts.OnPanic = func(v any) {
		s.panics.Inc()
		if userPanic != nil {
			userPanic(v)
		}
	}
	return s.jobs.Start(s.Engine(), opts)
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) error {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("bad job body: %w", err)
	}
	if req.Workers > MaxJobWorkers {
		return fmt.Errorf("workers = %d exceeds limit %d", req.Workers, MaxJobWorkers)
	}
	if req.TopN > MaxJobTopN {
		return fmt.Errorf("top_n = %d exceeds limit %d", req.TopN, MaxJobTopN)
	}
	// checkpoint_path is confined to the operator-configured directory: a
	// request body must never pick an arbitrary server path to overwrite
	// (the checkpoint writer renames over its target).
	if req.CheckpointPath != "" {
		dir := s.opts.SweepCheckpointDir
		if dir == "" {
			return fmt.Errorf("checkpoint_path rejected: the server has no SweepCheckpointDir configured")
		}
		name := req.CheckpointPath
		// filepath.Base("/") is "/" itself, so the separator check is not
		// redundant: without it a bare "/" would resolve to the checkpoint
		// directory.
		if name != filepath.Base(name) || name == "." || name == ".." ||
			strings.ContainsAny(name, `/\`) {
			return fmt.Errorf("checkpoint_path %q must be a bare file name (stored under the server's checkpoint directory)", name)
		}
		req.CheckpointPath = filepath.Join(dir, name)
	}
	job, err := s.StartSweep(analytics.Options{
		K:               req.K,
		TopN:            req.TopN,
		Workers:         req.Workers,
		ChunkSize:       req.ChunkSize,
		Users:           req.Users,
		CheckpointPath:  req.CheckpointPath,
		CheckpointEvery: req.CheckpointEvery,
		Resume:          req.Resume,
	})
	if err != nil {
		return err
	}
	writeJSONStatus(w, http.StatusAccepted, job.Status())
	return nil
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) error {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		return withStatus(http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
	}
	resp := jobResponse{JobStatus: job.Status()}
	resp.Leaderboard, _ = job.Result()
	writeJSON(w, resp)
	return nil
}

// handleJobCancel implements DELETE /admin/jobs/{id}: a running job is
// cancelled (asynchronously — poll GET for the terminal state), a
// terminal one is removed from the manager along with its retained
// leaderboard. The response's "removed" field tells which happened.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		return withStatus(http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	st := job.Status()
	removed := false
	if st.State == analytics.JobRunning {
		job.Cancel()
		st = job.Status()
	} else if ok, err := s.jobs.Remove(id); err == nil && ok {
		removed = true
	}
	writeJSON(w, struct {
		analytics.JobStatus
		Removed bool `json:"removed"`
	}{st, removed})
	return nil
}
