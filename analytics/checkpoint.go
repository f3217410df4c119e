package analytics

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"pitex"
	"pitex/internal/rng"
)

// CheckpointVersion is the version stamp of the on-disk checkpoint format,
// versioned like the index file formats: readers reject versions they do
// not understand instead of misparsing them.
const CheckpointVersion = 1

// fingerprint identifies which sweep a checkpoint belongs to. Every field
// that changes chunk content or chunk boundaries is included — the full
// set of engine options that determine query results (strategy, model,
// seed, accuracy and budget knobs, exploration flags, shard layout), the
// network identity (generation, size) and the sweep shape — so resuming
// under a different configuration fails instead of silently merging
// chunks estimated under two different settings. Workers is deliberately
// absent (results are worker-independent, so resuming with a different
// worker count is sound and produces identical output).
type fingerprint struct {
	Strategy          string  `json:"strategy"`
	Propagation       string  `json:"propagation"`
	Seed              uint64  `json:"seed"`
	Generation        uint64  `json:"generation"`
	Epsilon           float64 `json:"epsilon"`
	Delta             float64 `json:"delta"`
	MaxK              int     `json:"max_k"`
	MaxSamples        int64   `json:"max_samples"`
	MaxIndexSamples   int64   `json:"max_index_samples"`
	IndexShards       int     `json:"index_shards"`
	CheapBounds       bool    `json:"cheap_bounds"`
	DisableBestEffort bool    `json:"disable_best_effort"`
	DisableEarlyStop  bool    `json:"disable_early_stop"`
	NumNetworkUsers   int     `json:"num_network_users"`
	NumNetworkEdges   int     `json:"num_network_edges"`
	K                 int     `json:"k"`
	TopN              int     `json:"top_n"`
	ChunkSize         int     `json:"chunk_size"`
	NumUsers          int     `json:"num_users"`
	UsersHash         uint64  `json:"users_hash"`
}

// fingerprintFor derives the sweep's identity from the engine and the
// resolved cohort.
func fingerprintFor(en *pitex.Engine, opts Options, users []int) fingerprint {
	parts := make([]uint64, 0, len(users))
	for _, u := range users {
		parts = append(parts, uint64(u))
	}
	eo := en.Options()
	return fingerprint{
		Strategy:          en.Strategy().String(),
		Propagation:       eo.Propagation.String(),
		Seed:              eo.Seed,
		Generation:        en.Generation(),
		Epsilon:           eo.Epsilon,
		Delta:             eo.Delta,
		MaxK:              eo.MaxK,
		MaxSamples:        eo.MaxSamples,
		MaxIndexSamples:   eo.MaxIndexSamples,
		IndexShards:       eo.IndexShards,
		CheapBounds:       eo.CheapBounds,
		DisableBestEffort: eo.DisableBestEffort,
		DisableEarlyStop:  eo.DisableEarlyStop,
		NumNetworkUsers:   en.Network().NumUsers(),
		NumNetworkEdges:   en.Network().NumEdges(),
		K:                 opts.K,
		TopN:              opts.TopN,
		ChunkSize:         opts.ChunkSize,
		NumUsers:          len(users),
		UsersHash:         rng.Mix(parts...),
	}
}

// checkpointFile is the on-disk shape: a version, the sweep fingerprint,
// and every completed chunk sorted by chunk index.
type checkpointFile struct {
	Version     int           `json:"version"`
	Fingerprint fingerprint   `json:"fingerprint"`
	Chunks      []chunkResult `json:"chunks"`
}

// writeCheckpointLocked persists the completed chunks atomically: temp
// file in the target directory, synced, then renamed, so a kill or power
// loss mid-write never leaves a truncated checkpoint where Resume expects
// a good one. Caller holds st.mu.
func (st *sweepState) writeCheckpointLocked() error {
	cf := checkpointFile{Version: CheckpointVersion, Fingerprint: st.fp}
	cf.Chunks = make([]chunkResult, 0, len(st.completed))
	for _, cr := range st.completed {
		cf.Chunks = append(cf.Chunks, cr)
	}
	sort.Slice(cf.Chunks, func(i, j int) bool { return cf.Chunks[i].Chunk < cf.Chunks[j].Chunk })
	data, err := marshalIndent(cf)
	if err != nil {
		return fmt.Errorf("analytics: encode checkpoint: %w", err)
	}
	path := st.opts.CheckpointPath
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("analytics: checkpoint: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("analytics: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint restores completed chunks from the checkpoint file, if
// present. A missing file is a fresh start, not an error; a version or
// fingerprint mismatch is an error — resuming a different sweep's
// checkpoint would silently mix populations or generations.
func (st *sweepState) loadCheckpoint() error {
	data, err := os.ReadFile(st.opts.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("analytics: read checkpoint: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return fmt.Errorf("analytics: parse checkpoint %s: %w", st.opts.CheckpointPath, err)
	}
	if cf.Version != CheckpointVersion {
		return fmt.Errorf("analytics: checkpoint %s has version %d, this build reads %d",
			st.opts.CheckpointPath, cf.Version, CheckpointVersion)
	}
	if cf.Fingerprint != st.fp {
		return fmt.Errorf("analytics: checkpoint %s belongs to a different sweep (have %+v, want %+v)",
			st.opts.CheckpointPath, cf.Fingerprint, st.fp)
	}
	for _, cr := range cf.Chunks {
		if cr.Chunk < 0 || cr.Chunk >= st.numChunks {
			return fmt.Errorf("analytics: checkpoint chunk %d outside [0,%d)", cr.Chunk, st.numChunks)
		}
		if _, dup := st.completed[cr.Chunk]; dup {
			return fmt.Errorf("analytics: checkpoint repeats chunk %d", cr.Chunk)
		}
		st.completed[cr.Chunk] = cr
		st.doneChunks++
		st.doneUsers += cr.Users + cr.Errors
	}
	return nil
}

// marshalIndent is the one JSON renderer for sweep artifacts, so the
// byte-identical guarantee has a single definition.
func marshalIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
