package rrindex

import (
	"bytes"
	"testing"

	"pitex/internal/faultinject"
	"pitex/internal/fixture"
	"pitex/internal/graph"
)

// Fuzz targets for the serialized-index loaders. The contract under
// test: on arbitrary bytes the readers must return an error — never
// panic, and never size an allocation from an unvalidated header field
// (storage only grows as payload actually arrives). Seeds cover both
// kinds at one and three shards, the pre-S one-shard forms (v2 index,
// v1 DelayMat), an index whose one graph is an in-star, and
// systematically corrupted variants of each.

// fuzzSeeds serializes the fixture structures in every readable form and
// returns them with corrupt/truncated variants appended.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	g := fixture.Graph()
	opts := buildOpts()
	opts.MaxIndexSamples = 800

	var blobs [][]byte
	add := func(err error, buf *bytes.Buffer) {
		if err != nil {
			f.Fatalf("building fuzz seed: %v", err)
		}
		blobs = append(blobs, append([]byte(nil), buf.Bytes()...))
	}

	var buf bytes.Buffer
	idx, err := Build(g, opts)
	if err == nil {
		err = WriteIndex(&buf, idx)
	}
	add(err, &buf)
	blobs = append(blobs, legacyForm(blobs[0], 2))

	buf.Reset()
	si, err := BuildSharded(g, opts, 3)
	if err == nil {
		err = WriteSharded(&buf, si)
	}
	add(err, &buf)

	for _, S := range []int{1, 3} {
		buf.Reset()
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err == nil {
			err = WriteShardedDelayMat(&buf, sdm)
		}
		add(err, &buf)
	}
	blobs = append(blobs, legacyForm(blobs[3], 1))

	// A repaired sharded index: its store was written by one splice pass.
	buf.Reset()
	ng, info, err := graph.ApplyDelta(g, graph.Delta{RetopicEdges: []graph.EdgeRetopic{
		{Edge: 1, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.9}}}}})
	if err == nil {
		var rep *ShardedIndex
		if rep, _, err = si.Repair(ng, opts, info.TouchedHeads, 0); err == nil {
			err = WriteSharded(&buf, rep)
		}
	}
	add(err, &buf)

	// An index of one graph, an in-star, so its entries cross the reader.
	buf.Reset()
	add(WriteIndex(&buf, inStarIndex(f, idx)), &buf)

	for _, b := range blobs[:6] {
		blobs = append(blobs,
			faultinject.CorruptBytes(b), // bit flips every 17 bytes, magic included
			b[:len(b)/2],                // truncated mid-payload
			b[:21],                      // header cut inside the counts
		)
	}
	for _, bad := range malformedOneVertex(f, idx) {
		blobs = append(blobs, bad)
	}
	blobs = append(blobs, nil, []byte("PITEXIDX"))
	return blobs
}

// inStarIndex returns an index over idx's graph whose one graph is idx's
// first in-star, rebuilt and added back as a build would.
func inStarIndex(f *testing.F, idx *Index) *Index {
	f.Helper()
	st := idx.graphs
	for gi := 0; gi < st.size(); gi++ {
		if k, _ := st.locate(gi); k != inStar {
			continue
		}
		rr := st.view(gi)
		sc := newGenScratch(idx.g.NumVertices())
		sc.members = append(sc.members, rr.verts...)
		for v := range rr.verts {
			for i := rr.outStart[v]; i < rr.outStart[v+1]; i++ {
				sc.edges = append(sc.edges, rrEdge{from: rr.verts[v], to: rr.target, id: rr.edgeID[i], c: rr.c[i]})
			}
		}
		one := &Index{g: idx.g, theta: 1, graphs: newStore(idx.g)}
		if err := one.graphs.add(rr.target, sc); err != nil || len(one.graphs.starEnd) != 1 {
			f.Fatalf("re-adding in-star %d: %v, %d in-stars", gi, err, len(one.graphs.starEnd))
		}
		one.finishPostings()
		return one
	}
	f.Fatal("the fixture index has no in-star")
	return nil
}

// checkIndex walks every accessor a loaded index serves so latent
// corruption that slipped past the reader surfaces as a crash here.
func checkIndex(t *testing.T, idx *Index, g *graph.Graph) {
	if idx.Theta() < 0 || idx.graphs.size() < 0 || idx.MemoryFootprint() < 0 {
		t.Fatalf("accepted index has negative shape: θ=%d graphs=%d", idx.Theta(), idx.graphs.size())
	}
	for u := 0; u < g.NumVertices(); u++ {
		if n := idx.NumContaining(graph.VertexID(u)); n < 0 {
			t.Fatalf("negative postings count for %d", u)
		}
	}
}

// FuzzReadIndex feeds arbitrary bytes to the one-shard reader, the one
// /shard/resync installs network-supplied slices through.
func FuzzReadIndex(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
	}
	g := fixture.Graph()
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := ReadIndex(bytes.NewReader(data), g); err == nil {
			checkIndex(t, idx, g)
		}
	})
}

// FuzzReadSharded: the sharded loader must reject malformed shard
// layouts (implausible counts, θ sums that disagree with the header)
// without panicking, and anything it accepts must serve estimates.
func FuzzReadSharded(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
	}
	g := fixture.Graph()
	f.Fuzz(func(t *testing.T, data []byte) {
		si, err := ReadSharded(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		if si.NumShards() < 1 || si.Theta() < 0 {
			t.Fatalf("accepted sharded index has shards=%d θ=%d", si.NumShards(), si.Theta())
		}
		for _, st := range si.ShardStats() {
			if st.Theta < 0 || st.Users < 0 {
				t.Fatalf("shard stat out of range: %+v", st)
			}
		}
		for s := range si.shards {
			checkIndex(t, si.shards[s], g)
		}
	})
}

// FuzzReadShardedDelayMat covers the DelayMat loader: a counter file of
// any shard count, or the pre-S one-shard form, loads; everything else
// errors.
func FuzzReadShardedDelayMat(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
	}
	g := fixture.Graph()
	f.Fuzz(func(t *testing.T, data []byte) {
		sdm, err := ReadShardedDelayMat(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		if sdm.NumShards() < 1 || sdm.Theta() < 0 {
			t.Fatalf("accepted sharded DelayMat has shards=%d θ=%d", sdm.NumShards(), sdm.Theta())
		}
		var total int64
		for _, sh := range sdm.shards {
			total += sh.Theta()
		}
		if total != sdm.Theta() {
			t.Fatalf("shard θ sum %d != total %d", total, sdm.Theta())
		}
	})
}
