package rrindex

import (
	"bytes"
	"encoding/binary"
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
	if back.Theta() != idx.Theta() || len(back.graphs) != len(idx.graphs) {
		t.Fatalf("shape changed: θ %d/%d graphs %d/%d",
			back.Theta(), idx.Theta(), len(back.graphs), len(idx.graphs))
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
	dm, err := BuildDelayMat(g, buildOpts())
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteDelayMat(&buf, dm); err != nil {
		t.Fatalf("WriteDelayMat: %v", err)
	}
	back, err := ReadDelayMat(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadDelayMat: %v", err)
	}
	if back.Theta() != dm.Theta() {
		t.Fatalf("theta changed")
	}
	for u := 0; u < g.NumVertices(); u++ {
		if back.Count(graph.VertexID(u)) != dm.Count(graph.VertexID(u)) {
			t.Fatalf("count for %d changed", u)
		}
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

	// A tiny file whose header claims absurd counts must fail with an
	// error (EOF or implausible-shape), not a giant allocation or a
	// makeslice panic: the reader only grows storage as payload arrives.
	huge := append([]byte(nil), good[:16]...) // magic|version|kind
	var tail [24]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(g.NumVertices())) // V
	binary.LittleEndian.PutUint64(tail[8:], 1<<62)                   // theta
	binary.LittleEndian.PutUint64(tail[16:], 1<<62)                  // numGraphs
	huge = append(huge, tail[:]...)
	if _, err := ReadIndex(bytes.NewReader(huge), g); err == nil {
		t.Error("absurd graph count accepted")
	}

	// Wrong graph.
	other := graph.Chain(3, 0.5)
	if _, err := ReadIndex(bytes.NewReader(good), other); err == nil {
		t.Error("vertex-count mismatch accepted")
	}

	// Wrong kind: a DelayMat file fed to ReadIndex and vice versa.
	dm, err := BuildDelayMat(g, buildOpts())
	if err != nil {
		t.Fatalf("BuildDelayMat: %v", err)
	}
	var dmBuf bytes.Buffer
	if err := WriteDelayMat(&dmBuf, dm); err != nil {
		t.Fatalf("WriteDelayMat: %v", err)
	}
	if _, err := ReadIndex(bytes.NewReader(dmBuf.Bytes()), g); err == nil {
		t.Error("DelayMat file accepted as index")
	}
	if _, err := ReadDelayMat(bytes.NewReader(good), g); err == nil {
		t.Error("index file accepted as DelayMat")
	}
	if _, err := ReadDelayMat(strings.NewReader(""), g); err == nil {
		t.Error("empty DelayMat accepted")
	}
}
