package graph

import "fmt"

// This file implements the mutation substrate for live graph updates
// (pitex.Engine.ApplyUpdates): a Delta describes a batch of structural changes and
// ApplyDelta materializes them as a NEW immutable Graph whose surviving
// edge IDs are stable, so index structures referencing edges by ID
// (RR-Graphs, DelayMat recovery) can be repaired incrementally instead of
// rebuilt.
//
// Edge-ID stability is the load-bearing invariant: deletions tombstone the
// edge (its topic vector becomes empty and p(e) = 0, so every sampler and
// estimator treats it as permanently dead) rather than renumbering, and
// insertions append fresh IDs at the end.

// EdgeInsert describes one new edge of a Delta.
type EdgeInsert struct {
	From, To VertexID
	Topics   []TopicProb
}

// EdgeRetopic replaces the topic vector (and hence p(e|z), p(e)) of an
// existing edge.
type EdgeRetopic struct {
	Edge   EdgeID
	Topics []TopicProb
}

// Delta is a batch of graph mutations applied atomically by ApplyDelta.
// The zero value is an empty batch.
type Delta struct {
	// InsertEdges appends new edges; they receive IDs
	// [NumEdges, NumEdges+len) in order.
	InsertEdges []EdgeInsert
	// DeleteEdges tombstones existing edges by ID: the edge keeps its ID
	// and endpoints but loses its topic vector, making it dead under every
	// tag set. Deleting a tombstone is a no-op.
	DeleteEdges []EdgeID
	// RetopicEdges replaces topic vectors of existing edges.
	RetopicEdges []EdgeRetopic
	// AddVertices appends this many fresh vertices (with no edges) after
	// the existing ones.
	AddVertices int
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return len(d.InsertEdges) == 0 && len(d.DeleteEdges) == 0 &&
		len(d.RetopicEdges) == 0 && d.AddVertices == 0
}

// DeltaInfo reports what ApplyDelta changed, in the terms the index-repair
// layer consumes.
type DeltaInfo struct {
	// TouchedHeads lists, deduplicated, the head (To) vertices of every
	// inserted, deleted or retopiced edge. An RR-Graph's sampled outcome
	// can only change if it contains one of these vertices: generation
	// probes the in-edges of member vertices, and an edge's in-list
	// membership or probability changed only at these heads.
	TouchedHeads []VertexID
	// AddedVertices is Delta.AddVertices.
	AddedVertices int
	// Inserted, Deleted and Retopiced count effective edge mutations
	// (deleting an existing tombstone does not count).
	Inserted, Deleted, Retopiced int
}

// ApplyDelta validates d against g and returns a new Graph with the batch
// applied, plus the change summary. g itself is never modified; concurrent
// readers of g are unaffected. Surviving edges keep their IDs and their
// relative CSR order.
func ApplyDelta(g *Graph, d Delta) (*Graph, *DeltaInfo, error) {
	if d.AddVertices < 0 {
		return nil, nil, fmt.Errorf("graph: AddVertices = %d, want >= 0", d.AddVertices)
	}
	oldM := g.NumEdges()
	newV := g.NumVertices() + d.AddVertices
	for _, e := range d.DeleteEdges {
		if e < 0 || int(e) >= oldM {
			return nil, nil, fmt.Errorf("graph: delete of edge %d outside [0,%d)", e, oldM)
		}
	}
	for _, rt := range d.RetopicEdges {
		if rt.Edge < 0 || int(rt.Edge) >= oldM {
			return nil, nil, fmt.Errorf("graph: retopic of edge %d outside [0,%d)", rt.Edge, oldM)
		}
	}

	info := &DeltaInfo{AddedVertices: d.AddVertices}
	touched := make(map[VertexID]struct{})
	touch := func(v VertexID) { touched[v] = struct{}{} }

	deleted := make(map[EdgeID]struct{}, len(d.DeleteEdges))
	for _, e := range d.DeleteEdges {
		_, dup := deleted[e]
		deleted[e] = struct{}{}
		// A repeated delete, or deleting an existing tombstone (empty topic
		// vector), changes no sampled outcome: don't count or touch it.
		if dup || g.topicStart[e] == g.topicStart[e+1] {
			continue
		}
		info.Deleted++
		touch(g.EdgeTo(e))
	}
	retopic := make(map[EdgeID][]TopicProb, len(d.RetopicEdges))
	for _, rt := range d.RetopicEdges {
		if _, gone := deleted[rt.Edge]; gone {
			return nil, nil, fmt.Errorf("graph: edge %d both deleted and retopiced in one batch", rt.Edge)
		}
		retopic[rt.Edge] = rt.Topics
		info.Retopiced++
		touch(g.EdgeTo(rt.Edge))
	}

	// Validate insertions up front (existing edges were validated when g
	// was built; retopic vectors are validated below while flattening).
	for _, ins := range d.InsertEdges {
		if ins.From < 0 || int(ins.From) >= newV || ins.To < 0 || int(ins.To) >= newV {
			return nil, nil, fmt.Errorf("graph: inserted edge (%d,%d) out of vertex range [0,%d)",
				ins.From, ins.To, newV)
		}
		if ins.From == ins.To {
			return nil, nil, fmt.Errorf("graph: inserted edge is a self-loop at vertex %d", ins.From)
		}
		info.Inserted++
		touch(ins.To)
	}

	// Materialize the new graph directly (updates are a hot path under
	// serving: the Builder's per-edge slice allocations and sorts would
	// dominate small batches). Edges keep IDs and relative CSR order;
	// inserted ones are appended.
	newM := oldM + len(d.InsertEdges)
	ng := &Graph{
		numVertices: newV,
		numTopics:   g.numTopics,
		edgeFrom:    make([]VertexID, newM),
		edgeTo:      make([]VertexID, newM),
		topicStart:  make([]int32, newM+1),
		maxProb:     make([]float64, newM),
	}
	copy(ng.edgeFrom, g.edgeFrom)
	copy(ng.edgeTo, g.edgeTo)
	for i, ins := range d.InsertEdges {
		ng.edgeFrom[oldM+i] = ins.From
		ng.edgeTo[oldM+i] = ins.To
	}

	// Flatten topic vectors: unchanged edges copy their old range.
	total := len(g.topicID)
	for _, rt := range retopic {
		total += len(rt)
	}
	for _, ins := range d.InsertEdges {
		total += len(ins.Topics)
	}
	ng.topicID = make([]int32, 0, total)
	ng.topicProb = make([]float64, 0, total)
	appendVec := func(e int, tps []TopicProb) error {
		maxP := 0.0
		start := len(ng.topicID)
		for _, tp := range tps {
			if tp.Prob <= 0 {
				continue
			}
			if tp.Topic < 0 || int(tp.Topic) >= g.numTopics {
				return fmt.Errorf("graph: edge %d references topic %d outside [0,%d)",
					e, tp.Topic, g.numTopics)
			}
			if tp.Prob > 1 {
				return fmt.Errorf("graph: edge %d has p(e|z=%d) = %v > 1", e, tp.Topic, tp.Prob)
			}
			ng.topicID = append(ng.topicID, tp.Topic)
			ng.topicProb = append(ng.topicProb, tp.Prob)
			if tp.Prob > maxP {
				maxP = tp.Prob
			}
		}
		sortTopicRange(ng.topicID[start:], ng.topicProb[start:])
		ng.maxProb[e] = maxP
		return nil
	}
	for e := 0; e < oldM; e++ {
		eid := EdgeID(e)
		ng.topicStart[e] = int32(len(ng.topicID))
		switch {
		case hasKey(deleted, eid):
			// tombstone: empty vector, maxProb stays 0
		case hasKey(retopic, eid):
			if err := appendVec(e, retopic[eid]); err != nil {
				return nil, nil, err
			}
		default:
			lo, hi := g.topicStart[e], g.topicStart[e+1]
			ng.topicID = append(ng.topicID, g.topicID[lo:hi]...)
			ng.topicProb = append(ng.topicProb, g.topicProb[lo:hi]...)
			ng.maxProb[e] = g.maxProb[e]
		}
	}
	for i, ins := range d.InsertEdges {
		e := oldM + i
		ng.topicStart[e] = int32(len(ng.topicID))
		if err := appendVec(e, ins.Topics); err != nil {
			return nil, nil, err
		}
	}
	ng.topicStart[newM] = int32(len(ng.topicID))

	// Counting sort into CSR, both directions (as Builder.Build does).
	ng.outStart = make([]int32, newV+1)
	ng.inStart = make([]int32, newV+1)
	ng.outTo = make([]VertexID, newM)
	ng.outEdge = make([]EdgeID, newM)
	ng.inFrom = make([]VertexID, newM)
	ng.inEdge = make([]EdgeID, newM)
	for e := 0; e < newM; e++ {
		ng.outStart[ng.edgeFrom[e]+1]++
		ng.inStart[ng.edgeTo[e]+1]++
	}
	for v := 0; v < newV; v++ {
		ng.outStart[v+1] += ng.outStart[v]
		ng.inStart[v+1] += ng.inStart[v]
	}
	outPos := make([]int32, newV)
	inPos := make([]int32, newV)
	for e := 0; e < newM; e++ {
		f, t := ng.edgeFrom[e], ng.edgeTo[e]
		op := ng.outStart[f] + outPos[f]
		ng.outTo[op] = t
		ng.outEdge[op] = EdgeID(e)
		outPos[f]++
		ip := ng.inStart[t] + inPos[t]
		ng.inFrom[ip] = f
		ng.inEdge[ip] = EdgeID(e)
		inPos[t]++
	}
	info.TouchedHeads = make([]VertexID, 0, len(touched))
	for v := range touched {
		// An inserted edge may point at a brand-new vertex; no existing
		// RR-Graph can contain it, but keeping it is harmless (its
		// containing list is empty). Heads are reported as-is.
		info.TouchedHeads = append(info.TouchedHeads, v)
	}
	return ng, info, nil
}

func hasKey[K comparable, V any](m map[K]V, k K) bool {
	_, ok := m[k]
	return ok
}

// sortTopicRange insertion-sorts parallel (topic, prob) slices by topic
// ascending, the Builder invariant. Vectors are tiny (sparse in practice).
func sortTopicRange(ids []int32, probs []float64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
			probs[j], probs[j-1] = probs[j-1], probs[j]
		}
	}
}
