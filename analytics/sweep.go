package analytics

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"pitex"
	"pitex/internal/fanout"
)

// DefaultTopN is the leaderboard size used when Options.TopN is 0.
const DefaultTopN = 100

// DefaultChunkSize is the per-chunk user count used when Options.ChunkSize
// is 0. A chunk is the sweep's unit of work, checkpointing and resumption.
const DefaultChunkSize = 64

// Options configures one sweep. The zero value sweeps the whole population
// with k=3 queries into a 100-row leaderboard, unchunked persistence off.
type Options struct {
	// K is the tag-set size of the per-user query (default 3).
	K int
	// TopN is how many leaderboard rows to keep (default DefaultTopN).
	TopN int
	// Workers is how many chunks are processed concurrently, each on its
	// own engine clone (default 4). The final output is independent of
	// Workers: chunks are deterministic in isolation (fresh clone each)
	// and merged in chunk order, so Workers only changes wall-clock time.
	Workers int
	// ChunkSize is how many users form one checkpointable chunk (default
	// DefaultChunkSize). Part of the checkpoint fingerprint: resuming with
	// a different ChunkSize is rejected.
	ChunkSize int
	// Users restricts the sweep to a cohort (processed in the given
	// order); nil sweeps every user of the engine's network. Duplicates
	// and out-of-range users are rejected.
	Users []int
	// CheckpointPath persists completed chunks to this file (written
	// atomically: temp file + rename); empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is how many completed chunks accumulate between
	// checkpoint writes (default 1: write after every chunk).
	CheckpointEvery int
	// Resume loads CheckpointPath if it exists and skips its completed
	// chunks. The checkpoint's fingerprint (seed, strategy, generation,
	// k, top-n, chunk size, cohort) must match, or Run fails rather than
	// silently mixing sweeps.
	Resume bool
	// OnProgress, when non-nil, observes the sweep after every completed
	// chunk (including chunks restored from a checkpoint, reported once
	// up front). Called with the collector lock held: keep it fast and
	// never call back into the sweep from it.
	OnProgress func(Progress)
	// OnPanic, when non-nil, observes a recovered panic from a chunk
	// worker before the sweep fails with it. Not part of the checkpoint
	// fingerprint. Servers hook a panic counter here; every call is a bug.
	OnPanic func(v any)
}

// Progress is a point-in-time view of a running sweep.
type Progress struct {
	ChunksDone  int `json:"chunks_done"`
	ChunksTotal int `json:"chunks_total"`
	UsersDone   int `json:"users_done"`
	UsersTotal  int `json:"users_total"`
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 3
	}
	if o.TopN == 0 {
		o.TopN = DefaultTopN
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	return o
}

// validate rejects unusable options against the engine — including a K
// the engine can never answer, which would otherwise "succeed" as a
// leaderboard of zero users and a population-sized error count.
func (o Options) validate(en *pitex.Engine) error {
	if o.K < 1 {
		return fmt.Errorf("analytics: K = %d, want >= 1", o.K)
	}
	if maxK := en.Options().MaxK; o.K > maxK {
		return fmt.Errorf("analytics: K = %d exceeds the engine's MaxK = %d", o.K, maxK)
	}
	if tags := en.Model().NumTags(); o.K > tags {
		return fmt.Errorf("analytics: K = %d exceeds the vocabulary size %d", o.K, tags)
	}
	if o.TopN < 1 {
		return fmt.Errorf("analytics: TopN = %d, want >= 1", o.TopN)
	}
	numUsers := en.Network().NumUsers()
	seen := make(map[int]bool, len(o.Users))
	for _, u := range o.Users {
		if u < 0 || u >= numUsers {
			return fmt.Errorf("analytics: cohort user %d outside [0,%d)", u, numUsers)
		}
		if seen[u] {
			return fmt.Errorf("analytics: duplicate cohort user %d", u)
		}
		seen[u] = true
	}
	return nil
}

// UserScore is one leaderboard row: a user with their best size-k tag set
// and its estimated influence spread E[I(u|W*)].
type UserScore struct {
	User      int      `json:"user"`
	Tags      []int    `json:"tags"`
	TagNames  []string `json:"tag_names,omitempty"`
	Influence float64  `json:"influence"`
}

// TagCount is one row of the tag-frequency histogram: how many swept users
// carry Tag in their optimal selling-point set.
type TagCount struct {
	Tag   int    `json:"tag"`
	Name  string `json:"name,omitempty"`
	Count int    `json:"count"`
}

// LeaderboardVersion is the version stamp of the Leaderboard JSON shape.
const LeaderboardVersion = 1

// Leaderboard is a sweep's final output: the population's most influential
// users and the tag frequencies across their optimal selling points. It is
// deterministic per (engine Seed, Options) — independent of Workers and of
// any kill/resume history — and WriteJSON renders it byte-identically.
type Leaderboard struct {
	Version    int    `json:"version"`
	Strategy   string `json:"strategy"`
	Seed       uint64 `json:"seed"`
	Generation uint64 `json:"generation"`
	K          int    `json:"k"`
	TopN       int    `json:"top_n"`
	// UsersSwept counts users whose query completed; Errors counts users
	// whose query failed (their rows are absent, the sweep continues).
	UsersSwept int `json:"users_swept"`
	Errors     int `json:"errors"`
	// TopUsers is sorted by influence descending, ties by user ascending.
	TopUsers []UserScore `json:"top_users"`
	// TagHistogram is sorted by count descending, ties by tag ascending.
	TagHistogram []TagCount `json:"tag_histogram"`
}

// WriteJSON renders the leaderboard as indented JSON with a trailing
// newline. Equal leaderboards produce byte-identical output (the struct
// holds no maps and no timestamps), which is what the kill/restart
// equivalence guarantee is stated over.
func (l *Leaderboard) WriteJSON(w io.Writer) error {
	data, err := marshalIndent(l)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// chunkResult is one completed chunk's contribution: its local top-N, its
// sparse tag counts, and its error tally. Chunks are the checkpoint unit.
type chunkResult struct {
	Chunk int `json:"chunk"`
	// Users counts completed queries in the chunk; Errors failed ones.
	Users  int `json:"users"`
	Errors int `json:"errors"`
	// Top is the chunk-local leaderboard (at most TopN rows): the global
	// top-N is a subset of the union of chunk top-Ns, so nothing beyond
	// it needs to survive the chunk.
	Top []UserScore `json:"top"`
	// Tags holds the chunk's tag counts sorted by tag ascending.
	Tags []TagCount `json:"tags"`
}

// Run executes a sweep to completion (or ctx cancellation) and returns the
// merged leaderboard. The engine is used as a clone prototype only — every
// chunk is processed on a fresh Engine.Clone, which is what makes a
// chunk's result a pure function of (chunk users, engine seed) and the
// whole sweep deterministic per (Seed, Options) regardless of Workers,
// scheduling, or how many times it was killed and resumed.
//
// On cancellation Run flushes completed-but-unwritten chunks to the
// checkpoint (when checkpointing is on) and returns ctx.Err(); a later
// call with Resume set picks up from there.
func Run(ctx context.Context, en *pitex.Engine, opts Options) (*Leaderboard, error) {
	if en == nil {
		return nil, fmt.Errorf("analytics: nil engine")
	}
	opts = opts.withDefaults()
	if err := opts.validate(en); err != nil {
		return nil, err
	}
	users := opts.Users
	if users == nil {
		users = make([]int, en.Network().NumUsers())
		for i := range users {
			users[i] = i
		}
	}
	numChunks := (len(users) + opts.ChunkSize - 1) / opts.ChunkSize

	st := &sweepState{
		opts:      opts,
		users:     users,
		numChunks: numChunks,
		completed: make(map[int]chunkResult, numChunks),
		fp:        fingerprintFor(en, opts, users),
	}
	if opts.CheckpointPath != "" && opts.Resume {
		if err := st.loadCheckpoint(); err != nil {
			return nil, err
		}
	}
	st.reportProgress()

	// Fan the pending chunks out over the shared fan-out, which always
	// drains: once runCtx is dead the remaining chunks are skipped, so
	// cancellation leaks nothing. runCtx also aborts the sweep internally
	// on a fatal commit error — a full disk at chunk 1 of a 10k-chunk
	// sweep must stop the sweep there, not burn hours of queries retrying
	// the write per chunk.
	pending := make([]int, 0, numChunks)
	for c := 0; c < numChunks; c++ {
		if _, ok := st.completed[c]; !ok {
			pending = append(pending, c)
		}
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancelRun()
	}
	fanout.Run(len(pending), opts.Workers, func() func(int) {
		return func(i int) {
			if runCtx.Err() != nil {
				return
			}
			cr, err := runChunk(runCtx, en, st, pending[i], opts)
			if err != nil {
				// Only context errors abort a chunk; an external
				// cancellation is reported as ctx.Err() below, and an
				// internal abort keeps its original cause.
				if ctx.Err() == nil && runCtx.Err() == nil {
					fail(err)
				}
				return
			}
			if err := st.commit(cr); err != nil {
				fail(err)
			}
		}
	})

	if err := ctx.Err(); err != nil {
		// Preserve whatever completed before the kill.
		if flushErr := st.flush(); flushErr != nil {
			return nil, fmt.Errorf("analytics: %w (checkpoint flush also failed: %v)", err, flushErr)
		}
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := st.flush(); err != nil {
		return nil, err
	}
	return st.merge(en), nil
}

// sweepState is the collector shared by the chunk workers.
type sweepState struct {
	opts      Options
	users     []int
	numChunks int
	fp        fingerprint

	mu        sync.Mutex
	completed map[int]chunkResult
	// doneChunks/doneUsers are running totals over completed (kept
	// incrementally: progress is reported per commit under mu, and
	// recounting the map there would make reporting O(chunks²) overall).
	doneChunks, doneUsers int
	// sinceWrite counts chunks committed since the last checkpoint write.
	sinceWrite int
}

// chunkUsers returns chunk c's user slice.
func (st *sweepState) chunkUsers(c int) []int {
	lo := c * st.opts.ChunkSize
	hi := lo + st.opts.ChunkSize
	if hi > len(st.users) {
		hi = len(st.users)
	}
	return st.users[lo:hi]
}

// commit records one completed chunk and writes the checkpoint when due.
func (st *sweepState) commit(cr chunkResult) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.completed[cr.Chunk] = cr
	st.doneChunks++
	st.doneUsers += cr.Users + cr.Errors
	st.sinceWrite++
	st.reportProgressLocked()
	if st.opts.CheckpointPath != "" && st.sinceWrite >= st.opts.CheckpointEvery {
		if err := st.writeCheckpointLocked(); err != nil {
			return err
		}
		st.sinceWrite = 0
	}
	return nil
}

// flush writes any committed-but-unwritten chunks to the checkpoint.
func (st *sweepState) flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.opts.CheckpointPath == "" || st.sinceWrite == 0 {
		return nil
	}
	if err := st.writeCheckpointLocked(); err != nil {
		return err
	}
	st.sinceWrite = 0
	return nil
}

func (st *sweepState) reportProgress() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reportProgressLocked()
}

func (st *sweepState) reportProgressLocked() {
	if st.opts.OnProgress == nil {
		return
	}
	st.opts.OnProgress(Progress{
		ChunksDone:  st.doneChunks,
		ChunksTotal: st.numChunks,
		UsersDone:   st.doneUsers,
		UsersTotal:  len(st.users),
	})
}

// runChunk is processChunk behind a panic barrier: a panicking
// estimator fails the sweep with a descriptive error (after notifying
// opts.OnPanic) instead of crashing the process and every sibling job.
func runChunk(ctx context.Context, proto *pitex.Engine, st *sweepState, chunk int, opts Options) (cr chunkResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if opts.OnPanic != nil {
				opts.OnPanic(r)
			}
			cr, err = chunkResult{}, fmt.Errorf("analytics: chunk %d panicked: %v", chunk, r)
		}
	}()
	return processChunk(ctx, proto, st.chunkUsers(chunk), chunk, opts)
}

// processChunk answers one query per chunk user on a fresh engine clone
// and reduces the answers to the chunk's partial leaderboard. It aborts
// (without a result) only on context cancellation; per-user estimation
// failures are counted and skipped.
func processChunk(ctx context.Context, proto *pitex.Engine, users []int, chunk int, opts Options) (chunkResult, error) {
	clone := proto.Clone()
	cr := chunkResult{Chunk: chunk}
	// Capacity is bounded by the chunk, not TopN: a huge requested TopN
	// (e.g. via the serving layer) must not preallocate beyond the data.
	topCap := opts.TopN
	if topCap > len(users) {
		topCap = len(users)
	}
	top := make([]UserScore, 0, topCap)
	counts := make(map[int]int)
	for _, u := range users {
		if err := ctx.Err(); err != nil {
			return chunkResult{}, err
		}
		res, err := clone.Query(ctx, pitex.Request{User: u, K: opts.K})
		if err != nil {
			if ctx.Err() != nil {
				return chunkResult{}, ctx.Err()
			}
			cr.Errors++
			continue
		}
		cr.Users++
		for _, w := range res.Tags {
			counts[w]++
		}
		top = insertScore(top, UserScore{User: u, Tags: res.Tags, Influence: res.Influence}, opts.TopN)
	}
	cr.Top = top
	cr.Tags = make([]TagCount, 0, len(counts))
	for w, n := range counts {
		cr.Tags = append(cr.Tags, TagCount{Tag: w, Count: n})
	}
	sort.Slice(cr.Tags, func(i, j int) bool { return cr.Tags[i].Tag < cr.Tags[j].Tag })
	return cr, nil
}

// insertScore inserts s into the descending-influence (ties: ascending
// user) slice, keeping at most topN entries.
func insertScore(scores []UserScore, s UserScore, topN int) []UserScore {
	i := sort.Search(len(scores), func(i int) bool {
		if scores[i].Influence != s.Influence {
			return scores[i].Influence < s.Influence
		}
		return scores[i].User > s.User
	})
	if i >= topN {
		return scores
	}
	scores = append(scores, UserScore{})
	copy(scores[i+1:], scores[i:])
	scores[i] = s
	if len(scores) > topN {
		scores = scores[:topN]
	}
	return scores
}

// merge folds the completed chunks (in chunk order) into the final
// leaderboard.
func (st *sweepState) merge(en *pitex.Engine) *Leaderboard {
	lb := &Leaderboard{
		Version:    LeaderboardVersion,
		Strategy:   en.Strategy().String(),
		Seed:       en.Options().Seed,
		Generation: en.Generation(),
		K:          st.opts.K,
		TopN:       st.opts.TopN,
	}
	counts := make(map[int]int)
	var top []UserScore
	for c := 0; c < st.numChunks; c++ {
		cr := st.completed[c]
		lb.UsersSwept += cr.Users
		lb.Errors += cr.Errors
		for _, s := range cr.Top {
			top = insertScore(top, s, st.opts.TopN)
		}
		for _, tc := range cr.Tags {
			counts[tc.Tag] += tc.Count
		}
	}
	model := en.Model()
	for i := range top {
		top[i].TagNames = make([]string, len(top[i].Tags))
		for j, w := range top[i].Tags {
			top[i].TagNames[j] = model.TagName(w)
		}
	}
	lb.TopUsers = top
	lb.TagHistogram = make([]TagCount, 0, len(counts))
	for w, n := range counts {
		lb.TagHistogram = append(lb.TagHistogram, TagCount{Tag: w, Name: model.TagName(w), Count: n})
	}
	sort.Slice(lb.TagHistogram, func(i, j int) bool {
		a, b := lb.TagHistogram[i], lb.TagHistogram[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Tag < b.Tag
	})
	return lb
}
