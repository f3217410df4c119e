package rrindex

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pitex/internal/fixture"
	"pitex/internal/graph"
	"pitex/internal/topics"
)

func TestIndexSerializationRoundTrip(t *testing.T) {
	g := fixture.Graph()
	m := fixture.Model()
	idx := fixtureIndex(t)

	var buf bytes.Buffer
	if err := WriteIndex(&buf, idx); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	back, err := ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if back.Theta() != idx.Theta() || back.graphs.size() != idx.graphs.size() {
		t.Fatalf("shape changed: θ %d/%d graphs %d/%d",
			back.Theta(), idx.Theta(), back.graphs.size(), idx.graphs.size())
	}
	for u := 0; u < g.NumVertices(); u++ {
		if back.NumContaining(graph.VertexID(u)) != idx.NumContaining(graph.VertexID(u)) {
			t.Fatalf("postings for %d changed", u)
		}
	}
	// Estimates from the loaded index must match the original exactly.
	a := NewShardedEstimator(wrapMonolithic(idx))
	b := NewShardedEstimator(wrapMonolithic(back))
	for _, w := range [][]topics.TagID{{0, 1}, {2, 3}, {1, 2}} {
		post, ok := m.Posterior(w)
		if !ok {
			continue
		}
		for u := 0; u < g.NumVertices(); u++ {
			av := a.Estimate(graph.VertexID(u), post).Influence
			bv := b.Estimate(graph.VertexID(u), post).Influence
			if av != bv {
				t.Fatalf("u=%d W=%v: %v != %v after round trip", u, w, av, bv)
			}
		}
	}
}

func TestDelayMatSerializationRoundTrip(t *testing.T) {
	g := fixture.Graph()
	sdm, err := BuildShardedDelayMat(g, buildOpts(), 1)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteShardedDelayMat(&buf, sdm); err != nil {
		t.Fatalf("WriteShardedDelayMat: %v", err)
	}
	back, err := ReadShardedDelayMat(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadShardedDelayMat: %v", err)
	}
	if back.NumShards() != 1 || back.Theta() != sdm.Theta() {
		t.Fatalf("shape changed: S=%d θ=%d, want 1 and %d", back.NumShards(), back.Theta(), sdm.Theta())
	}
	for u := 0; u < g.NumVertices(); u++ {
		if back.shards[0].Count(graph.VertexID(u)) != sdm.shards[0].Count(graph.VertexID(u)) {
			t.Fatalf("count for %d changed", u)
		}
	}
}

// legacyForm returns the pre-S one-shard file of a one-shard file b: the
// same bytes without the S and θ_1 words, under the old version.
func legacyForm(b []byte, version uint32) []byte {
	out := append(append([]byte(nil), b[:32]...), b[44:]...)
	binary.LittleEndian.PutUint32(out[8:], version)
	return out
}

// oneShardFiles writes the fixture's one-shard index and DelayMat files.
func oneShardFiles(t testing.TB) (index, delay []byte) {
	g := fixture.Graph()
	si, err := BuildSharded(g, buildOpts(), 1)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	sdm, err := BuildShardedDelayMat(g, buildOpts(), 1)
	if err != nil {
		t.Fatalf("BuildShardedDelayMat: %v", err)
	}
	var ib, db bytes.Buffer
	if err := WriteSharded(&ib, si); err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	if err := WriteShardedDelayMat(&db, sdm); err != nil {
		t.Fatalf("WriteShardedDelayMat: %v", err)
	}
	return ib.Bytes(), db.Bytes()
}

// TestOneShardFilesLoad: a one-shard file loads as S = 1 in its current
// form and in the pre-S form (a version-2 index, a version-1 DelayMat),
// and either re-serializes to the current bytes.
func TestOneShardFilesLoad(t *testing.T) {
	g := fixture.Graph()
	index, delay := oneShardFiles(t)
	for name, data := range map[string][]byte{"v3": index, "v2": legacyForm(index, 2)} {
		si, err := ReadSharded(bytes.NewReader(data), g)
		if err != nil {
			t.Fatalf("%s index: ReadSharded: %v", name, err)
		}
		var again bytes.Buffer
		if err := WriteSharded(&again, si); err != nil {
			t.Fatalf("%s index: WriteSharded: %v", name, err)
		}
		if si.NumShards() != 1 || !bytes.Equal(again.Bytes(), index) {
			t.Fatalf("%s index: S=%d, re-serialized bytes differ from a fresh build's", name, si.NumShards())
		}
		if _, err := ReadIndex(bytes.NewReader(data), g); err != nil {
			t.Fatalf("%s index: ReadIndex: %v", name, err)
		}
	}
	for name, data := range map[string][]byte{"v3": delay, "v1": legacyForm(delay, 1)} {
		sdm, err := ReadShardedDelayMat(bytes.NewReader(data), g)
		if err != nil {
			t.Fatalf("%s DelayMat: ReadShardedDelayMat: %v", name, err)
		}
		var again bytes.Buffer
		if err := WriteShardedDelayMat(&again, sdm); err != nil {
			t.Fatalf("%s DelayMat: WriteShardedDelayMat: %v", name, err)
		}
		if sdm.NumShards() != 1 || sdm.users[0] != g.NumVertices() || !bytes.Equal(again.Bytes(), delay) {
			t.Fatalf("%s DelayMat: S=%d, re-serialized bytes differ from a fresh build's", name, sdm.NumShards())
		}
	}
}

// TestIndexReadRejectsShortGraphSet: a file whose θ exceeds its graph
// count is refused. Raising the header θ and shard 0's θ_s together keeps
// the θ sum consistent, so only the graph count can catch it; accepted,
// it would scale every estimate of the shard by the wrong θ.
func TestIndexReadRejectsShortGraphSet(t *testing.T) {
	g := fixture.Graph()
	index, _ := oneShardFiles(t)
	si, err := BuildSharded(g, buildOpts(), 3)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	var three bytes.Buffer
	if err := WriteSharded(&three, si); err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	raise := func(b []byte, at ...int) []byte {
		b = append([]byte(nil), b...)
		for _, o := range at {
			binary.LittleEndian.PutUint64(b[o:], binary.LittleEndian.Uint64(b[o:])+1000)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"S=1":    raise(index, 24, 36),
		"S=1 v2": raise(legacyForm(index, 2), 24),
		"S=3":    raise(three.Bytes(), 24, 36),
	} {
		if _, err := ReadSharded(bytes.NewReader(data), g); err == nil {
			t.Errorf("%s: a file with θ above its graph count loaded", name)
		}
	}
}

// TestReadHugeShardCountAllocatesLittle: a 36-byte header claiming 2^20
// shards fails without sizing any per-shard state from that claim.
func TestReadHugeShardCountAllocatesLittle(t *testing.T) {
	g := fixture.Graph()
	for _, kind := range []uint32{kindIndex, kindDelayMat} {
		header := append([]byte(nil), indexMagic[:]...)
		header = binary.LittleEndian.AppendUint32(header, fileVersion)
		header = binary.LittleEndian.AppendUint32(header, kind)
		header = binary.LittleEndian.AppendUint64(header, uint64(g.NumVertices()))
		header = binary.LittleEndian.AppendUint64(header, 1<<30)
		header = binary.LittleEndian.AppendUint32(header, maxSaneShards)
		read := func() error {
			if kind == kindIndex {
				_, err := ReadSharded(bytes.NewReader(header), g)
				return err
			}
			_, err := ReadShardedDelayMat(bytes.NewReader(header), g)
			return err
		}
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("kind %d: a header without shard blocks loaded", kind)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 1<<20 {
			t.Errorf("kind %d: reading a %d-byte header allocated %d bytes", kind, len(header), least)
		}
	}
}

// TestReadHugeGraphCountAllocatesLittle: a one-shard header claiming
// 2^26 graphs, with no graph table behind it, fails without sizing any
// of the store (records, kind bitmap) from that claim.
func TestReadHugeGraphCountAllocatesLittle(t *testing.T) {
	g := fixture.Graph()
	le := binary.LittleEndian
	b := append([]byte(nil), indexMagic[:]...)
	b = le.AppendUint32(le.AppendUint32(b, fileVersion), kindIndex)
	b = le.AppendUint64(le.AppendUint64(b, uint64(g.NumVertices())), 1<<26)
	b = le.AppendUint64(le.AppendUint64(le.AppendUint32(b, 1), 1<<26), 1<<26)
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadIndex(bytes.NewReader(b), g)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a header without a graph table loaded")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Errorf("reading a %d-byte header allocated %d bytes", len(b), least)
	}
}

func TestIndexReadRejectsCorruption(t *testing.T) {
	g := fixture.Graph()
	idx := fixtureIndex(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, idx); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTMAGIC"), good[8:]...),
		"truncated": good[:len(good)/2],
	}
	for name, data := range cases {
		if _, err := ReadIndex(bytes.NewReader(data), g); err == nil {
			t.Errorf("%s: ReadIndex succeeded", name)
		}
	}

	// Version tampering.
	tampered := append([]byte(nil), good...)
	tampered[8] = 99
	if _, err := ReadIndex(bytes.NewReader(tampered), g); err == nil {
		t.Error("bad version accepted")
	}
	// The seed's version-1 index layout is refused by name.
	if _, err := ReadIndex(bytes.NewReader(legacyForm(good, 1)), g); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("seed index file: err = %v, want a version 1 refusal", err)
	}

	// A tiny file whose header claims absurd counts must fail with an
	// error (EOF or implausible-shape), not a giant allocation or a
	// makeslice panic: the reader only grows storage as payload arrives.
	huge := append([]byte(nil), good[:24]...)            // magic|version|kind|V
	huge = binary.LittleEndian.AppendUint64(huge, 1<<62) // theta
	huge = binary.LittleEndian.AppendUint32(huge, 1)     // S
	huge = binary.LittleEndian.AppendUint64(huge, 1<<62) // theta_1
	huge = binary.LittleEndian.AppendUint64(huge, 1<<62) // numGraphs
	if _, err := ReadIndex(bytes.NewReader(huge), g); err == nil || !strings.Contains(err.Error(), "graph count") {
		t.Errorf("absurd graph count: err = %v, want the graph-count check", err)
	}

	// Wrong graph.
	other := graph.Chain(3, 0.5)
	if _, err := ReadIndex(bytes.NewReader(good), other); err == nil {
		t.Error("vertex-count mismatch accepted")
	}

	// Wrong kind: a DelayMat file fed to ReadIndex and vice versa.
	_, delay := oneShardFiles(t)
	if _, err := ReadIndex(bytes.NewReader(delay), g); err == nil {
		t.Error("DelayMat file accepted as index")
	}
	if _, err := ReadShardedDelayMat(bytes.NewReader(good), g); err == nil {
		t.Error("index file accepted as DelayMat")
	}
	if _, err := ReadShardedDelayMat(strings.NewReader(""), g); err == nil {
		t.Error("empty DelayMat accepted")
	}
}

// encodeIndex restates the index file layout word by word: a one-shard
// file over g whose graphs, in order, are the given views.
func encodeIndex(g *graph.Graph, graphs []RRGraph) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), indexMagic[:]...)
	b = le.AppendUint32(le.AppendUint32(b, fileVersion), kindIndex)
	b = le.AppendUint64(le.AppendUint64(b, uint64(g.NumVertices())), uint64(len(graphs)))
	b = le.AppendUint32(b, 1)
	b = le.AppendUint64(le.AppendUint64(b, uint64(len(graphs))), uint64(len(graphs)))
	for _, part := range []func(rr *RRGraph) []int32{
		func(rr *RRGraph) []int32 { return []int32{rr.target} },
		func(rr *RRGraph) []int32 { return []int32{int32(len(rr.verts))} },
		func(rr *RRGraph) []int32 { return []int32{int32(len(rr.edgeID))} },
		func(rr *RRGraph) []int32 { return rr.verts },
		func(rr *RRGraph) []int32 { return rr.outStart },
		func(rr *RRGraph) []int32 { return rr.outTo },
		func(rr *RRGraph) []int32 { return rr.edgeID },
	} {
		for i := range graphs {
			for _, w := range part(&graphs[i]) {
				b = le.AppendUint32(b, uint32(w))
			}
		}
	}
	for i := range graphs {
		for _, c := range graphs[i].c {
			b = le.AppendUint64(b, math.Float64bits(c))
		}
	}
	return b
}

// malformedOneVertex returns idx's file with its first one-vertex graph
// replaced by a malformed one: a vertex other than its target, or the
// target with a (self-loop) edge. Both are otherwise well-formed files.
func malformedOneVertex(tb testing.TB, idx *Index) map[string][]byte {
	tb.Helper()
	views := make([]RRGraph, idx.graphs.size())
	p := -1
	for gi := range views {
		if views[gi] = idx.graphs.view(gi); views[gi].NumVertices() == 1 && p < 0 {
			p = gi
		}
	}
	if p < 0 {
		tb.Fatal("index has no one-vertex graph")
	}
	var buf bytes.Buffer
	if err := WriteIndex(&buf, idx); err != nil {
		tb.Fatalf("WriteIndex: %v", err)
	}
	if !bytes.Equal(encodeIndex(idx.g, views), buf.Bytes()) {
		tb.Fatal("restated layout differs from WriteIndex's")
	}
	t := views[p].target
	out := map[string][]byte{}
	for name, rr := range map[string]RRGraph{
		"vertex not its target": {target: t, verts: []graph.VertexID{(t + 1) % graph.VertexID(idx.g.NumVertices())}, outStart: []int32{0, 0}},
		"one vertex with an edge": {target: t, verts: []graph.VertexID{t}, outStart: []int32{0, 1},
			outTo: []int32{0}, edgeID: []graph.EdgeID{0}, c: []float64{0.01}},
	} {
		bad := slices.Clone(views)
		bad[p] = rr
		out[name] = encodeIndex(idx.g, bad)
	}
	return out
}

// TestReadRefusesMalformedOneVertexGraph: a one-vertex graph is stored
// as a count of its target, so the reader refuses one whose vertex is
// not its target or that has edges — neither could be rebuilt from the
// count.
func TestReadRefusesMalformedOneVertexGraph(t *testing.T) {
	for name, data := range malformedOneVertex(t, fixtureIndex(t)) {
		if _, err := ReadIndex(bytes.NewReader(data), fixture.Graph()); err == nil {
			t.Errorf("%s: ReadIndex accepted it", name)
		}
	}
}
