package pitex

import (
	"fmt"
	"time"

	"pitex/internal/enumerate"
	"pitex/internal/graph"
	"pitex/internal/rrindex"
	"pitex/internal/sampling"
)

// UpdateBatch stages a batch of network mutations for Engine.ApplyUpdates:
// edge insertions and deletions, topic-probability changes, and new-user
// appends. Batches are resolved and validated against the engine's network
// at apply time, so one batch can be staged once and applied to whichever
// engine generation is current. An UpdateBatch is not safe for concurrent
// mutation; the zero value is an empty batch.
type UpdateBatch struct {
	inserts  []stagedInsert
	deletes  [][2]int
	retopics []stagedRetopic
	addUsers int
}

type stagedInsert struct {
	from, to int
	probs    []TopicProb
}

type stagedRetopic struct {
	from, to int
	probs    []TopicProb
}

// InsertEdge stages a new influence edge from -> to with the given
// topic-wise probabilities. The endpoints may reference users added by
// AddUsers in the same batch.
func (b *UpdateBatch) InsertEdge(from, to int, probs ...TopicProb) {
	b.inserts = append(b.inserts, stagedInsert{from: from, to: to, probs: probs})
}

// DeleteEdge stages the removal of every live edge from -> to (parallel
// edges are independent channels and are all removed). Applying a batch
// whose deletion matches no live edge fails.
func (b *UpdateBatch) DeleteEdge(from, to int) {
	b.deletes = append(b.deletes, [2]int{from, to})
}

// SetEdge stages a topic-probability change: every live edge from -> to
// gets the given vector. Applying a batch whose change matches no live
// edge fails.
func (b *UpdateBatch) SetEdge(from, to int, probs ...TopicProb) {
	b.retopics = append(b.retopics, stagedRetopic{from: from, to: to, probs: probs})
}

// AddUsers stages appending n new users (with no edges yet; follow-up
// InsertEdge calls in the same batch may already reference them).
func (b *UpdateBatch) AddUsers(n int) {
	b.addUsers += n
}

// AddedUsers returns the net user count staged by AddUsers calls, so a
// staging layer can roll its user-count view back when applying the batch
// fails.
func (b *UpdateBatch) AddedUsers() int { return b.addUsers }

// StagedEdge is one staged insert or retopic operation, in the form the
// read accessors below expose so a coordinator can re-serialize a batch
// when fanning it out to shard servers.
type StagedEdge struct {
	From, To int
	Probs    []TopicProb
}

// Inserts returns the staged edge insertions in staging order. The Probs
// slices are shared with the batch; treat them as read-only.
func (b *UpdateBatch) Inserts() []StagedEdge {
	out := make([]StagedEdge, len(b.inserts))
	for i, ins := range b.inserts {
		out[i] = StagedEdge{From: ins.from, To: ins.to, Probs: ins.probs}
	}
	return out
}

// Deletes returns the staged (from, to) edge deletions in staging order.
func (b *UpdateBatch) Deletes() [][2]int {
	return append([][2]int(nil), b.deletes...)
}

// Retopics returns the staged topic-probability changes in staging order.
// The Probs slices are shared with the batch; treat them as read-only.
func (b *UpdateBatch) Retopics() []StagedEdge {
	out := make([]StagedEdge, len(b.retopics))
	for i, rt := range b.retopics {
		out[i] = StagedEdge{From: rt.from, To: rt.to, Probs: rt.probs}
	}
	return out
}

// Len returns the number of staged operations.
func (b *UpdateBatch) Len() int {
	n := len(b.inserts) + len(b.deletes) + len(b.retopics)
	if b.addUsers > 0 {
		n++
	}
	return n
}

// Empty reports whether nothing is staged.
func (b *UpdateBatch) Empty() bool { return b.Len() == 0 }

// UpdateStats reports what one ApplyUpdates call did.
type UpdateStats struct {
	// Generation is the new engine's update generation.
	Generation uint64 `json:"generation"`
	// EdgesInserted, EdgesDeleted, EdgesRetopiced and UsersAdded count the
	// applied mutations.
	EdgesInserted  int `json:"edges_inserted"`
	EdgesDeleted   int `json:"edges_deleted"`
	EdgesRetopiced int `json:"edges_retopiced"`
	UsersAdded     int `json:"users_added"`
	// GraphsRepaired counts RR-Graphs re-sampled (invalidated or
	// re-targeted) and GraphsAppended fresh ones added for θ growth;
	// GraphsTotal is the index's graph count afterwards. All zero for
	// online strategies, which keep no offline structure.
	GraphsRepaired int `json:"graphs_repaired"`
	GraphsAppended int `json:"graphs_appended"`
	GraphsTotal    int `json:"graphs_total"`
	// FullRebuild reports that the offline structure could not be patched
	// and was rebuilt from scratch (a DelayMat without update tracking,
	// e.g. one loaded from disk).
	FullRebuild bool `json:"full_rebuild"`
	// Elapsed is the wall-clock repair time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// RepairedFraction is the share of index graphs the batch forced to be
// re-sampled (1 for a full rebuild, 0 for online strategies). A serving
// layer can watch it to decide when accumulated churn justifies a full
// offline rebuild (see package dynamic's documentation).
func (s UpdateStats) RepairedFraction() float64 {
	if s.FullRebuild {
		return 1
	}
	if s.GraphsTotal == 0 {
		return 0
	}
	return float64(s.GraphsRepaired+s.GraphsAppended) / float64(s.GraphsTotal)
}

// Generation returns the engine's update generation: 0 for a freshly built
// engine, incremented by every ApplyUpdates. Clones share their
// prototype's generation. Serving layers key caches by generation so a
// repaired engine never serves a stale result.
func (en *Engine) Generation() uint64 { return en.generation }

// ApplyUpdates applies the batch to the engine's network and returns a new
// query-ready engine of the next generation, incrementally repairing the
// offline index instead of rebuilding it: only RR-Graphs whose sampled
// edges are touched by the batch are re-sampled, and DelayMat counters are
// patched. The receiver is not modified and stays fully usable — it still
// answers queries over the pre-update network, which is what lets a
// serving layer drain old clones while new queries land on the repaired
// engine.
//
// The repaired index is statistically equivalent to a fresh rebuild over
// the updated network: unaffected RR-Graphs are distribution-identical
// under the new network, re-sampled ones are drawn from it, and θ and the
// target distribution are re-balanced when users are added. Estimates
// therefore keep the engine's (1-ε) guarantees at every generation.
func (en *Engine) ApplyUpdates(b *UpdateBatch) (*Engine, UpdateStats, error) {
	var stats UpdateStats
	if b == nil || b.Empty() {
		return nil, stats, fmt.Errorf("pitex: empty update batch")
	}
	start := time.Now()
	newNet, info, err := en.net.ApplyBatch(b)
	if err != nil {
		return nil, stats, err
	}
	newG := newNet.g
	next := &Engine{
		net:        newNet,
		model:      en.model,
		opts:       en.opts,
		remote:     en.remote, // a coordinator engine stays remote across generations
		generation: en.generation + 1,
		posterior:  make([]float64, en.model.NumTopics()),
		probe:      sampling.NewProbeCache(newG.NumEdges()),
	}
	stats.Generation = next.generation
	stats.EdgesInserted = info.Inserted
	stats.EdgesDeleted = info.Deleted
	stats.EdgesRetopiced = info.Retopiced
	stats.UsersAdded = info.AddedVertices

	if en.index != nil || en.delay != nil {
		build := rrindex.BuildOptions{
			Accuracy:        en.samplingOptions(enumerate.LogPhiK(en.model.NumTags(), en.opts.MaxK)),
			MaxIndexSamples: en.opts.MaxIndexSamples,
			// Mix the generation into the repair seed so successive
			// repairs draw independent streams, deterministically.
			// RepairSeed is the exported face of this derivation; remote
			// shard repairs must use the same one.
			Seed:         RepairSeed(en.opts.Seed, next.generation),
			TrackMembers: en.opts.TrackUpdates,
		}
		var rs rrindex.RepairStats
		switch {
		case en.index != nil:
			next.index, rs, err = en.index.Repair(newG, build, info.TouchedHeads, info.AddedVertices)
		case en.delay.CanRepair():
			next.delay, rs, err = en.delay.Repair(newG, build, info.TouchedHeads, info.AddedVertices)
		default:
			// No repair bookkeeping (e.g. the DelayMat was loaded from
			// disk): fall back to a full offline recount at the same shard
			// count, tracking members from now on when the engine opted
			// into updates.
			stats.FullRebuild = true
			next.delay, err = rrindex.BuildShardedDelayMat(newG, build, en.delay.NumShards())
			if next.delay != nil {
				rs.Total = int(next.delay.Theta())
			}
		}
		if err != nil {
			return nil, stats, err
		}
		stats.GraphsRepaired = rs.Invalidated + rs.Retargeted
		stats.GraphsAppended = rs.Appended
		stats.GraphsTotal = rs.Total
		next.IndexBuildTime = time.Since(start)
	}
	next.est = next.newEstimator()
	next.explorer = next.newExplorer()
	stats.Elapsed = time.Since(start)
	return next, stats, nil
}

// ApplyBatch resolves and applies an update batch to the network,
// returning the updated network and what changed (including the touched
// heads repair routing keys on). It is the network half of
// Engine.ApplyUpdates, split out so processes that hold a network but no
// engine — shard servers repairing their index slices — can track the
// same mutations.
func (n *Network) ApplyBatch(b *UpdateBatch) (*Network, *graph.DeltaInfo, error) {
	if b == nil || b.Empty() {
		return nil, nil, fmt.Errorf("pitex: empty update batch")
	}
	delta, err := n.resolveBatch(b)
	if err != nil {
		return nil, nil, err
	}
	newG, info, err := graph.ApplyDelta(n.g, delta)
	if err != nil {
		return nil, nil, fmt.Errorf("pitex: %w", err)
	}
	return &Network{g: newG}, info, nil
}

// resolveBatch turns staged (from, to) operations into concrete edge IDs
// against the current network.
func (n *Network) resolveBatch(b *UpdateBatch) (graph.Delta, error) {
	g := n.g
	oldUsers := g.NumVertices()
	newUsers := oldUsers + b.addUsers
	if b.addUsers < 0 {
		return graph.Delta{}, fmt.Errorf("pitex: AddUsers(%d), want >= 0", b.addUsers)
	}
	var d graph.Delta
	d.AddVertices = b.addUsers

	// liveEdges returns the non-tombstone edge IDs from -> to.
	liveEdges := func(from, to int) ([]graph.EdgeID, error) {
		if from < 0 || from >= oldUsers || to < 0 || to >= oldUsers {
			return nil, fmt.Errorf("pitex: edge (%d,%d) outside [0,%d)", from, to, oldUsers)
		}
		var ids []graph.EdgeID
		outs := g.OutEdges(graph.VertexID(from))
		nbrs := g.OutNeighbors(graph.VertexID(from))
		for i, e := range outs {
			if nbrs[i] == graph.VertexID(to) && g.EdgeMaxProb(e) > 0 {
				ids = append(ids, e)
			}
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("pitex: no live edge %d -> %d", from, to)
		}
		return ids, nil
	}

	for _, del := range b.deletes {
		ids, err := liveEdges(del[0], del[1])
		if err != nil {
			return graph.Delta{}, err
		}
		d.DeleteEdges = append(d.DeleteEdges, ids...)
	}
	for _, rt := range b.retopics {
		ids, err := liveEdges(rt.from, rt.to)
		if err != nil {
			return graph.Delta{}, err
		}
		tps, err := toGraphTopics(rt.probs, g.NumTopics())
		if err != nil {
			return graph.Delta{}, err
		}
		for _, e := range ids {
			d.RetopicEdges = append(d.RetopicEdges, graph.EdgeRetopic{Edge: e, Topics: tps})
		}
	}
	for _, ins := range b.inserts {
		if ins.from < 0 || ins.from >= newUsers || ins.to < 0 || ins.to >= newUsers {
			return graph.Delta{}, fmt.Errorf("pitex: inserted edge (%d,%d) outside [0,%d)",
				ins.from, ins.to, newUsers)
		}
		if ins.from == ins.to {
			return graph.Delta{}, fmt.Errorf("pitex: inserted edge (%d,%d) is a self-loop", ins.from, ins.to)
		}
		tps, err := toGraphTopics(ins.probs, g.NumTopics())
		if err != nil {
			return graph.Delta{}, err
		}
		d.InsertEdges = append(d.InsertEdges, graph.EdgeInsert{
			From: graph.VertexID(ins.from), To: graph.VertexID(ins.to), Topics: tps,
		})
	}
	return d, nil
}

// toGraphTopics converts and validates a public topic vector.
func toGraphTopics(probs []TopicProb, numTopics int) ([]graph.TopicProb, error) {
	tps := make([]graph.TopicProb, 0, len(probs))
	for _, p := range probs {
		if p.Topic < 0 || p.Topic >= numTopics {
			return nil, fmt.Errorf("pitex: topic %d outside [0,%d)", p.Topic, numTopics)
		}
		if p.Prob < 0 || p.Prob > 1 {
			return nil, fmt.Errorf("pitex: p(e|z=%d) = %v outside [0,1]", p.Topic, p.Prob)
		}
		tps = append(tps, graph.TopicProb{Topic: int32(p.Topic), Prob: p.Prob})
	}
	return tps, nil
}
