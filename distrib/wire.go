package distrib

import (
	"fmt"
	"slices"

	"pitex"
	"pitex/internal/rrindex"
)

// Wire types of the shard-server protocol. The control plane and the
// per-candidate estimate form are JSON — floats survive that round-trip
// exactly, encoding/json emits the shortest representation that parses
// back to the same float64 — and the frontier estimate form is the
// binary frame of frame.go, which carries the bits themselves.

// EstimateRequest asks a shard server for its shards' partial hits, in
// one of two forms. The per-candidate form carries one serialized prober
// in Probe, as JSON. The frontier form carries one per-topic weight row
// per sibling in Frontier — a candidate's Eq. 1 posterior or a partial
// set's Lemma 8 weight vector, every row exactly one float per topic —
// crosses only as a frame (EncodeFrontierRequest; JSON ignores the
// field), and is answered for all siblings in one pass
// (EstimateResponse.Frontier); it has no stop rule, shards always scan
// exhaustively. Exactly one form may be present. Generation pins the
// index generation the coordinator is serving; a server that matches
// neither its current nor its previous generation answers 409 (the
// client counts its shards missing rather than mixing generations).
type EstimateRequest struct {
	User       int               `json:"user"`
	Generation uint64            `json:"generation"`
	Probe      pitex.RemoteProbe `json:"probe,omitzero"`
	Frontier   [][]float64       `json:"-"`
	// framed holds the rows of a request DecodeFrontierRequest returned,
	// in place of Frontier, until FrontierRows decodes them.
	framed framedRows
}

// Validate checks the request's form against the served topic count:
// exactly one of Probe and Frontier, a well-formed probe, and frontier
// rows of exactly numTopics values each.
func (r EstimateRequest) Validate(numTopics int) error {
	if r.Width() == 0 {
		return r.Probe.Validate()
	}
	if len(r.Probe.Posterior)+len(r.Probe.BoundSupported)+len(r.Probe.BoundWeights) > 0 {
		return fmt.Errorf("distrib: estimate request carries both a probe and a frontier")
	}
	if r.framed.rows > 0 && r.framed.topics != numTopics {
		return fmt.Errorf("distrib: frontier frame has %d values a row, want one per topic (%d)", r.framed.topics, numTopics)
	}
	for i, row := range r.Frontier {
		if len(row) != numTopics {
			return fmt.Errorf("distrib: frontier row %d has %d values, want one per topic (%d)", i, len(row), numTopics)
		}
	}
	return nil
}

// EstimateResponse answers in the request's form: Partials (JSON)
// carries one partial per shard the server owns; Frontier (a frame,
// EncodeFrontierResponse) carries one row per owned shard, positional in
// the request's sibling order (Frontier[j][i] is the j-th owned shard's
// partial for sibling i).
type EstimateResponse struct {
	Generation uint64              `json:"generation"`
	Partials   []rrindex.Partial   `json:"partials,omitempty"`
	Frontier   [][]rrindex.Partial `json:"-"`
}

// check validates a response against what was asked of the group. The
// per-candidate form (width 0) must carry partials. The frontier form
// must carry one row per shard the group serves, each exactly width
// partials stamped with one of those shard ids, no shard twice. Anything
// else is an error (the client counts the group missing) — a short row
// must never reach the positional gather.
func (r EstimateResponse) check(shards []int, width int) error {
	if width == 0 {
		if len(r.Partials) == 0 {
			return fmt.Errorf("distrib: estimate response carries no partials")
		}
		return nil
	}
	if len(r.Frontier) != len(shards) {
		return fmt.Errorf("distrib: frontier response has %d shard rows, group serves %d", len(r.Frontier), len(shards))
	}
	seen := make(map[int]bool, len(shards))
	for _, row := range r.Frontier {
		if len(row) != width {
			return fmt.Errorf("distrib: frontier row has %d partials, asked for %d siblings", len(row), width)
		}
		s := row[0].Shard
		if !slices.Contains(shards, s) || seen[s] {
			return fmt.Errorf("distrib: frontier row for shard %d, group serves %v once each", s, shards)
		}
		seen[s] = true
		for _, p := range row {
			if p.Shard != s {
				return fmt.Errorf("distrib: frontier row mixes shards %d and %d", s, p.Shard)
			}
		}
	}
	return nil
}

// ShardInfo describes one owned shard in an InfoResponse.
type ShardInfo struct {
	Shard  int   `json:"shard"`
	Users  int   `json:"users"`
	Theta  int64 `json:"theta"`
	Graphs int   `json:"graphs"`
}

// InfoResponse is GET /shard/info: the server's place in the cluster
// layout. TotalShards and TotalUsers are layout-wide (every server holds
// the full network, only the index is partitioned); Shards covers the
// owned slice only.
type InfoResponse struct {
	Generation  uint64      `json:"generation"`
	TotalShards int         `json:"total_shards"`
	TotalUsers  int         `json:"total_users"`
	Strategy    string      `json:"strategy"`
	Ready       bool        `json:"ready"`
	Shards      []ShardInfo `json:"shards"`
}

// ShardCount is one shard's counter row (RR-Graph containment count for
// index strategies, DelayMat counter for DELAYEST).
type ShardCount struct {
	Shard int   `json:"shard"`
	Count int64 `json:"count"`
	Theta int64 `json:"theta"`
	Users int   `json:"users"`
}

// CountersResponse is GET /shard/counters?user=N.
type CountersResponse struct {
	Generation uint64       `json:"generation"`
	Counts     []ShardCount `json:"counts"`
}

// UpdateProb mirrors serve's /admin/update probability entry.
type UpdateProb struct {
	Topic int     `json:"topic"`
	Prob  float64 `json:"prob"`
}

// UpdateEdge mirrors serve's /admin/update edge entry.
type UpdateEdge struct {
	From  int          `json:"from"`
	To    int          `json:"to"`
	Probs []UpdateProb `json:"probs,omitempty"`
}

// UpdateRequest is POST /shard/update: the coordinator fans one staged
// batch to every shard server, keyed by the generation the cluster moves
// to. A server applies it only when Generation == current+1 (409
// otherwise), repairs the owned shards the routing decision selects, and
// keeps the previous generation double-buffered for in-flight queries.
type UpdateRequest struct {
	Generation  uint64       `json:"generation"`
	AddUsers    int          `json:"add_users,omitempty"`
	InsertEdges []UpdateEdge `json:"insert_edges,omitempty"`
	DeleteEdges []UpdateEdge `json:"delete_edges,omitempty"`
	SetEdges    []UpdateEdge `json:"set_edges,omitempty"`
}

// DeadlineHeader carries the caller's remaining deadline budget in
// integer milliseconds across the wire (context deadlines do not survive
// HTTP). Shard servers bound their handler context by it and reject
// requests whose budget is already spent before occupying a worker.
const DeadlineHeader = "X-Pitex-Deadline-Ms"

// ResyncShard is one owned shard slice inside a ResyncState snapshot:
// the serialized RR-index (index strategies) or DelayMat (DELAYEST)
// bytes plus the slice's user count.
type ResyncShard struct {
	Shard int    `json:"shard"`
	Users int    `json:"users"`
	Index []byte `json:"index,omitempty"`
	Delay []byte `json:"delay,omitempty"`
}

// ResyncState is the full-state transfer of GET/POST /shard/resync: a
// byte-exact snapshot of one shard server's current network and owned
// index slices at Generation. The reconciler copies it replica-to-replica
// when an endpoint has fallen behind the coordinator's journal horizon —
// a rebuild would be statistically valid but not byte-identical to its
// replicas, so recovery always transfers state from a caught-up sibling.
type ResyncState struct {
	Generation  uint64        `json:"generation"`
	TotalShards int           `json:"total_shards"`
	Strategy    string        `json:"strategy"`
	Network     []byte        `json:"network"`
	Shards      []ResyncShard `json:"shards"`
}

// ResyncResponse acknowledges a POST /shard/resync install.
type ResyncResponse struct {
	Generation uint64 `json:"generation"`
}

// UpdateResponse reports one server's repair outcome.
type UpdateResponse struct {
	Generation     uint64 `json:"generation"`
	GraphsRepaired int    `json:"graphs_repaired"`
	GraphsAppended int    `json:"graphs_appended"`
	ElapsedNs      int64  `json:"elapsed_ns"`
}

// BatchToRequest serializes a staged update batch into the wire form,
// stamped with the generation the cluster moves to.
func BatchToRequest(b *pitex.UpdateBatch, generation uint64) UpdateRequest {
	req := UpdateRequest{Generation: generation, AddUsers: b.AddedUsers()}
	toProbs := func(ps []pitex.TopicProb) []UpdateProb {
		out := make([]UpdateProb, len(ps))
		for i, p := range ps {
			out[i] = UpdateProb{Topic: p.Topic, Prob: p.Prob}
		}
		return out
	}
	for _, e := range b.Inserts() {
		req.InsertEdges = append(req.InsertEdges, UpdateEdge{From: e.From, To: e.To, Probs: toProbs(e.Probs)})
	}
	for _, d := range b.Deletes() {
		req.DeleteEdges = append(req.DeleteEdges, UpdateEdge{From: d[0], To: d[1]})
	}
	for _, e := range b.Retopics() {
		req.SetEdges = append(req.SetEdges, UpdateEdge{From: e.From, To: e.To, Probs: toProbs(e.Probs)})
	}
	return req
}

// RequestToBatch re-stages a wire update on the receiving side. Staging
// order matches serve's /admin/update handler (deletes, retopics,
// inserts) so both paths resolve identically.
func RequestToBatch(req UpdateRequest) (*pitex.UpdateBatch, error) {
	var b pitex.UpdateBatch
	if req.AddUsers != 0 {
		b.AddUsers(req.AddUsers)
	}
	toProbs := func(ps []UpdateProb) []pitex.TopicProb {
		out := make([]pitex.TopicProb, len(ps))
		for i, p := range ps {
			out[i] = pitex.TopicProb{Topic: p.Topic, Prob: p.Prob}
		}
		return out
	}
	for _, e := range req.DeleteEdges {
		b.DeleteEdge(e.From, e.To)
	}
	for _, e := range req.SetEdges {
		b.SetEdge(e.From, e.To, toProbs(e.Probs)...)
	}
	for _, e := range req.InsertEdges {
		b.InsertEdge(e.From, e.To, toProbs(e.Probs)...)
	}
	if b.Empty() {
		return nil, fmt.Errorf("distrib: empty update batch")
	}
	return &b, nil
}
