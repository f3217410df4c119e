package rrindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pitex/internal/graph"
)

// Binary index file (little-endian). One layout serves both kinds — an
// RR-Graph index and DelayMat counters — at every shard count:
//
//	magic "PITEXIDX" | version u32 = 3 | kind u32 | numVertices u64 |
//	theta u64 | S u32 | S × (theta_s u64 | body)
//
// where theta = Σ_s theta_s and the blocks come in shard order. The hash
// partition is derived from (numVertices, S) on load, so shard boundaries
// round-trip without storing user lists; a one-shard file (S = 1) is what
// WriteIndex writes for a single shard server slice. An index body is
// one shard's graph set as whole arrays, so a loader fills each backing
// array in one contiguous pass:
//
//	numGraphs u64 |
//	targets u32 × G | vertN u32 × G | edgeN u32 × G |
//	verts u32 × ΣV | outStart u32 × (ΣV+G) |
//	outTo u32 × ΣE | edgeID u32 × ΣE | c f64 × ΣE
//
// where G = theta_s and outStart values are per-graph-relative edge
// offsets. A DelayMat body is numVertices u64 counters. The per-user
// postings lists are rebuilt on load (they are derivable), and DelayMat
// repair bookkeeping (TrackMembers) is never stored: a loaded DelayMat
// repairs by a full recount.
//
// Earlier one-shard files — a version-2 index and a version-1 DelayMat —
// are this layout without the S and theta_1 words, and load as S = 1.
// The seed's version-1 index layout is refused.

var indexMagic = [8]byte{'P', 'I', 'T', 'E', 'X', 'I', 'D', 'X'}

const (
	fileVersion     = 3
	kindIndex       = 1
	kindDelayMat    = 2
	maxSaneVertices = 1 << 31
	maxSaneShards   = 1 << 20
)

var kindNames = [...]string{kindIndex: "an RR-Graph index", kindDelayMat: "a DelayMat"}

// leWriter writes little-endian scalars through one reusable buffer
// (binary.Write's per-call reflection and allocation made per-word
// writes the slowest part of SaveIndex).
type leWriter struct {
	w   *bufio.Writer
	err error
	tmp [8]byte
}

func (lw *leWriter) u32(v uint32) {
	if lw.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(lw.tmp[:4], v)
	_, lw.err = lw.w.Write(lw.tmp[:4])
}

func (lw *leWriter) u64(v uint64) {
	if lw.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(lw.tmp[:8], v)
	_, lw.err = lw.w.Write(lw.tmp[:8])
}

// u32s writes n words, word i being at(i), a buffer's worth at a time.
func (lw *leWriter) u32s(n int, at func(i int) uint32) {
	for i := 0; i < n && lw.err == nil; {
		buf := lw.w.AvailableBuffer()[:0]
		for ; i < n && len(buf)+4 <= cap(buf); i++ {
			buf = binary.LittleEndian.AppendUint32(buf, at(i))
		}
		if len(buf) == 0 {
			lw.err = lw.w.Flush()
			continue
		}
		_, lw.err = lw.w.Write(buf)
	}
}

// writeFile writes the header and one block per shard, body writing
// shard s's payload after its θ_s.
func writeFile[T interface{ Theta() int64 }](w io.Writer, kind uint32, numVertices int, shards []T, body func(*leWriter, T)) error {
	lw := &leWriter{w: bufio.NewWriterSize(w, 1<<16)}
	_, lw.err = lw.w.Write(indexMagic[:])
	lw.u32(fileVersion)
	lw.u32(kind)
	lw.u64(uint64(numVertices))
	lw.u64(uint64(sumTheta(shards)))
	lw.u32(uint32(len(shards)))
	for _, sh := range shards {
		lw.u64(uint64(sh.Theta()))
		body(lw, sh)
	}
	if lw.err == nil {
		lw.err = lw.w.Flush()
	}
	if lw.err != nil {
		return fmt.Errorf("rrindex: write: %w", lw.err)
	}
	return nil
}

// WriteIndex serializes one index as a one-shard file, the form a shard
// server ships its slice in.
func WriteIndex(w io.Writer, idx *Index) error {
	return writeFile(w, kindIndex, idx.g.NumVertices(), []*Index{idx}, writeGraphArrays)
}

// WriteShard writes the i-th held shard of si as a one-shard file
// (WriteIndex's), the form ReadOwned installs.
func WriteShard(w io.Writer, si *ShardedIndex, i int) error {
	return WriteIndex(w, si.shards[i])
}

// WriteSharded serializes a sharded index so that a query server can
// load it instead of re-running the offline phase. The index must hold
// every shard of its layout.
func WriteSharded(w io.Writer, si *ShardedIndex) error {
	if len(si.ids) != si.numShards {
		return fmt.Errorf("rrindex: the index holds %d of its %d shards, a file holds every one", len(si.ids), si.numShards)
	}
	return writeFile(w, kindIndex, si.g.NumVertices(), si.shards, writeGraphArrays)
}

// WriteShardedDelayMat serializes a sharded DelayMat's counters.
func WriteShardedDelayMat(w io.Writer, sdm *ShardedDelayMat) error {
	return writeFile(w, kindDelayMat, sdm.g.NumVertices(), sdm.shards, func(lw *leWriter, dm *DelayMat) {
		for _, c := range dm.counts {
			lw.u64(uint64(c))
		}
	})
}

// writeGraphArrays writes one shard's graph set as an index body: graph
// count, per-graph table, then each array in graph order. Every graph is
// written back in full and in place: a one-vertex graph as vertN 1,
// edgeN 0, verts [target] and outStart [0, 0], an in-star as the graph
// add would have laid out (starView). The arrays are gathered in one pass
// over the graphs' views and written in bulk.
func writeGraphArrays(lw *leWriter, idx *Index) {
	st, buf := idx.graphs, new(RRGraph)
	var targets, vertN, edgeN, verts, outStart, outTo, edgeID []int32
	var cs []float64
	for gi := range st.size() {
		rr := st.viewInto(gi, buf)
		targets = append(targets, rr.target)
		vertN, edgeN = append(vertN, int32(len(rr.verts))), append(edgeN, int32(len(rr.edgeID)))
		verts, outStart = append(verts, rr.verts...), append(outStart, rr.outStart...)
		outTo, edgeID, cs = append(outTo, rr.outTo...), append(edgeID, rr.edgeID...), append(cs, rr.c...)
	}
	lw.u64(uint64(st.size()))
	for _, a := range [][]int32{targets, vertN, edgeN, verts, outStart, outTo, edgeID} {
		lw.u32s(len(a), func(i int) uint32 { return uint32(a[i]) })
	}
	// A little-endian f64 is its low word, then its high word.
	lw.u32s(2*len(cs), func(i int) uint32 { return uint32(math.Float64bits(cs[i/2]) >> (32 * (i % 2))) })
}

// leReader reads little-endian scalars and bulk arrays through one
// reusable chunk buffer.
type leReader struct {
	r   io.Reader
	err error
	tmp [8]byte
	buf []byte
}

func (lr *leReader) u32() uint32 {
	if lr.err != nil {
		return 0
	}
	if _, err := io.ReadFull(lr.r, lr.tmp[:4]); err != nil {
		lr.err = err
		return 0
	}
	return binary.LittleEndian.Uint32(lr.tmp[:4])
}

func (lr *leReader) u64() uint64 {
	if lr.err != nil {
		return 0
	}
	if _, err := io.ReadFull(lr.r, lr.tmp[:8]); err != nil {
		lr.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(lr.tmp[:8])
}

// chunk returns the reusable bulk-decode buffer.
func (lr *leReader) chunk() []byte {
	if lr.buf == nil {
		lr.buf = make([]byte, 1<<15)
	}
	return lr.buf
}

// u32s streams n little-endian u32 words to f in large chunks.
func (lr *leReader) u32s(n int, f func(i int, v uint32)) {
	buf := lr.chunk()
	for i := 0; i < n && lr.err == nil; {
		k := (n - i) * 4
		if k > len(buf) {
			k = len(buf) - len(buf)%4
		}
		if _, err := io.ReadFull(lr.r, buf[:k]); err != nil {
			lr.err = err
			return
		}
		for o := 0; o < k; o += 4 {
			f(i, binary.LittleEndian.Uint32(buf[o:o+4]))
			i++
		}
	}
}

// readFile reads a file of the given kind over g: the header, then at
// most maxShards shard blocks, body decoding each from its θ_s. Shards
// are collected as their blocks arrive, so a header claiming many shards
// costs nothing until their payload does.
func readFile[T any](r io.Reader, g *graph.Graph, kind, maxShards uint32,
	body func(lr *leReader, g *graph.Graph, thetaS uint64) (T, error)) ([]T, error) {
	lr := &leReader{r: bufio.NewReaderSize(r, 1<<16)}
	var magic [8]byte
	if _, err := io.ReadFull(lr.r, magic[:]); err != nil {
		return nil, fmt.Errorf("rrindex: header: %w", err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("rrindex: bad magic %q", magic[:])
	}
	version, k, nV, theta := lr.u32(), lr.u32(), lr.u64(), lr.u64()
	if lr.err != nil {
		return nil, fmt.Errorf("rrindex: header: %w", lr.err)
	}
	legacy := version == 2 && k == kindIndex || version == 1 && k == kindDelayMat
	switch {
	case version == 1 && k == kindIndex:
		return nil, fmt.Errorf("rrindex: version 1 index files are no longer readable; rebuild the index")
	case version != fileVersion && !legacy:
		return nil, fmt.Errorf("rrindex: unsupported version %d", version)
	case k != kind:
		return nil, fmt.Errorf("rrindex: file is not %s (kind %d)", kindNames[kind], k)
	// θ lives in int64 fields in memory; a u64 with the top bit set would
	// silently go negative on the cast and poison every estimate scale.
	case nV == 0 || nV > maxSaneVertices || theta == 0 || theta > math.MaxInt64:
		return nil, fmt.Errorf("rrindex: implausible header (V=%d θ=%d)", nV, theta)
	case int(nV) != g.NumVertices():
		return nil, fmt.Errorf("rrindex: index built over %d vertices, graph has %d", nV, g.NumVertices())
	}
	if legacy {
		// The one-shard layout that predates S: supply S = 1, θ_1 = θ.
		var words [12]byte
		binary.LittleEndian.PutUint32(words[:4], 1)
		binary.LittleEndian.PutUint64(words[4:], theta)
		lr.r = io.MultiReader(bytes.NewReader(words[:]), lr.r)
	}
	S := lr.u32()
	if lr.err != nil {
		return nil, fmt.Errorf("rrindex: shard count: %w", lr.err)
	}
	if S == 0 || S > maxShards {
		return nil, fmt.Errorf("rrindex: shard count %d outside [1,%d]", S, maxShards)
	}
	var shards []T
	var total uint64
	for s := 0; s < int(S); s++ {
		thetaS := lr.u64()
		if lr.err != nil {
			return nil, fmt.Errorf("rrindex: shard %d: %w", s, lr.err)
		}
		if thetaS > theta-total {
			return nil, fmt.Errorf("rrindex: shard %d: θ_s=%d overruns header θ=%d", s, thetaS, theta)
		}
		sh, err := body(lr, g, thetaS)
		if err != nil {
			return nil, fmt.Errorf("rrindex: shard %d: %w", s, err)
		}
		shards = append(shards, sh)
		total += thetaS
	}
	if total != theta {
		return nil, fmt.Errorf("rrindex: shard θ sum %d does not match header θ=%d", total, theta)
	}
	return shards, nil
}

// ReadIndex loads a one-shard file (WriteIndex's, or a sharded file of
// one shard) as an Index, refusing a file of several shards before it
// reads any. The graph must be the one the index was built over;
// structural mismatches are detected where cheap (vertex count, edge-ID
// range).
func ReadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	shards, err := readFile(r, g, kindIndex, 1, readIndexShard)
	if err != nil {
		return nil, err
	}
	return shards[0], nil
}

// ReadSharded loads an index written by WriteSharded or WriteIndex,
// re-deriving each shard's user partition from (|V|, S) and validating
// that every graph's target lies in its shard.
func ReadSharded(r io.Reader, g *graph.Graph) (*ShardedIndex, error) {
	shards, err := readFile(r, g, kindIndex, maxSaneShards, readIndexShard)
	if err != nil {
		return nil, err
	}
	for s, sh := range shards {
		if err := sh.checkTargets(len(shards), s); err != nil {
			return nil, err
		}
	}
	return &ShardedIndex{loaded(g, shards)}, nil
}

// ReadShardedDelayMat loads a DelayMat written by WriteShardedDelayMat.
func ReadShardedDelayMat(r io.Reader, g *graph.Graph) (*ShardedDelayMat, error) {
	shards, err := readFile(r, g, kindDelayMat, maxSaneShards, readCounts)
	if err != nil {
		return nil, err
	}
	return &ShardedDelayMat{shardSet: loaded(g, shards)}, nil
}

// loaded is the container of a file's shards: every shard of its layout.
func loaded[T shardPart[T]](g *graph.Graph, shards []T) shardSet[T] {
	nV := g.NumVertices()
	set, _ := holding[T](g, poolSizes(shardPools(nV, len(shards)), nV), nil)
	set.shards = shards
	return set
}

// readIndexShard reads one shard's index body of exactly θ_s graphs into
// a fresh Index with postings rebuilt.
func readIndexShard(lr *leReader, g *graph.Graph, thetaS uint64) (*Index, error) {
	idx := &Index{g: g, theta: int64(thetaS)}
	if err := readGraphArrays(lr, g, idx); err != nil {
		return nil, err
	}
	idx.finishPostings()
	return idx, nil
}

// readCounts reads one shard's counter array, each entry at most θ_s,
// into a fresh DelayMat.
func readCounts(lr *leReader, g *graph.Graph, thetaS uint64) (*DelayMat, error) {
	dm := &DelayMat{g: g, theta: int64(thetaS), counts: make([]int64, g.NumVertices())}
	for i := range dm.counts {
		c := lr.u64()
		if lr.err != nil {
			return nil, fmt.Errorf("counts: %w", lr.err)
		}
		if c > thetaS {
			return nil, fmt.Errorf("θ(%d)=%d exceeds θ_s=%d", i, c, thetaS)
		}
		dm.counts[i] = int64(c)
	}
	dm.recomputeFootprint()
	return dm, nil
}

// readGraphArrays loads the file's arrays in one contiguous pass per
// array, every graph as a record, then adds the graphs to the store it
// installs in idx, which sorts them into kinds as a build does; a
// one-vertex graph must be its target alone, with no edges, and every
// edge must join the members its CSR says it joins. The graph count
// must equal idx.theta — build and repair keep one graph per sample, and
// a short set would bias every estimate.
// Array storage grows with append as payload actually arrives, so a
// corrupt or malicious header claiming huge counts fails with a read
// error after at most the real file size — it cannot drive one giant
// up-front allocation (the header-declared totals are only trusted as
// upper bounds to stream against).
func readGraphArrays(lr *leReader, g *graph.Graph, idx *Index) error {
	nGraphs := lr.u64()
	if lr.err != nil {
		return lr.err
	}
	if nGraphs != uint64(idx.theta) {
		return fmt.Errorf("%d graphs, want θ_s=%d", nGraphs, idx.theta)
	}
	if nGraphs > maxSaneVertices {
		return fmt.Errorf("implausible graph count %d", nGraphs)
	}
	nV := uint64(g.NumVertices())
	G := int(nGraphs)
	st := &graphStore{recs: []graphRec{{}}}
	lr.u32s(G, func(i int, v uint32) {
		st.recs[i].target = graph.VertexID(v)
		st.recs = append(st.recs, graphRec{})
	})
	lr.u32s(G, func(i int, v uint32) { st.recs[i+1].v = v })
	lr.u32s(G, func(i int, v uint32) { st.recs[i+1].e = v })
	if lr.err != nil {
		return fmt.Errorf("graph table: %w", lr.err)
	}
	st.kinds = make([]kindWord, G/64+1) // every graph a record, for now
	// The table holds counts; the records hold running offsets, checked
	// against the uint32 range as they accumulate.
	var totV, totE int64
	for i := 0; i < G; i++ {
		r := &st.recs[i+1]
		n, m := r.v, r.e
		if uint64(st.recs[i].target) >= nV || n == 0 || uint64(n) > nV || int64(m) > int64(g.NumEdges()) || n == 1 && m > 0 {
			return fmt.Errorf("graph %d: implausible shape", i)
		}
		totV += int64(n)
		totE += int64(m)
		if !offsetsFit(totV+int64(i+1), totE) {
			return errStoreFull
		}
		r.v, r.e = uint32(totV), uint32(totE)
	}
	badAt := int64(-1)
	note := func(i int, bad bool) {
		if bad && badAt < 0 {
			badAt = int64(i)
		}
	}
	lr.u32s(int(totV), func(i int, v uint32) {
		note(i, uint64(v) >= nV)
		st.verts = append(st.verts, graph.VertexID(v))
	})
	lr.u32s(int(totV)+G, func(i int, v uint32) {
		note(i, int64(v) > totE)
		st.outStart = append(st.outStart, int32(v))
	})
	lr.u32s(int(totE), func(i int, v uint32) {
		note(i, int64(v) >= totV)
		st.outTo = append(st.outTo, int32(v))
	})
	lr.u32s(int(totE), func(i int, v uint32) {
		note(i, int(v) >= g.NumEdges())
		st.edgeID = append(st.edgeID, graph.EdgeID(v))
	})
	// A little-endian f64 is its low word, then its high word.
	var low uint32
	lr.u32s(2*int(totE), func(i int, v uint32) {
		if i%2 == 0 {
			low = v
			return
		}
		c := math.Float64frombits(uint64(v)<<32 | uint64(low))
		note(i/2, math.IsNaN(c) || c < 0 || c >= 1)
		st.c = append(st.c, c)
	})
	if lr.err != nil {
		return fmt.Errorf("arenas: %w", lr.err)
	}
	if badAt >= 0 {
		return fmt.Errorf("invalid arena value at offset %d", badAt)
	}
	// Per-graph structural invariants that bulk range checks cannot see;
	// a graph that holds them joins the store as a build adds it.
	out, sc := newStore(g), newGenScratch(g.NumVertices())
	for gi := 0; gi < G; gi++ {
		rr := st.view(gi)
		n := int32(len(rr.verts))
		for i := 1; i < len(rr.verts); i++ {
			if rr.verts[i] <= rr.verts[i-1] {
				return fmt.Errorf("graph %d: members not strictly ascending", gi)
			}
		}
		if !rr.Contains(rr.target) {
			return fmt.Errorf("graph %d: target not a member", gi)
		}
		if rr.outStart[0] != 0 || rr.outStart[n] != int32(len(rr.edgeID)) {
			return fmt.Errorf("graph %d: CSR bounds corrupt", gi)
		}
		sc.members = append(sc.members[:0], rr.verts...)
		sc.edges = sc.edges[:0]
		for v := int32(0); v < n; v++ {
			if rr.outStart[v+1] < rr.outStart[v] || rr.outStart[v+1] > rr.outStart[n] {
				return fmt.Errorf("graph %d: CSR offsets decrease", gi)
			}
			for i := rr.outStart[v]; i < rr.outStart[v+1]; i++ {
				if t := rr.outTo[i]; t < 0 || t >= n {
					return fmt.Errorf("graph %d: head out of range", gi)
				}
				e := rrEdge{from: rr.verts[v], to: rr.verts[rr.outTo[i]], id: rr.edgeID[i], c: rr.c[i]}
				if g.EdgeFrom(e.id) != e.from || g.EdgeTo(e.id) != e.to {
					return fmt.Errorf("graph %d: edge %d does not join the members it links", gi, e.id)
				}
				sc.edges = append(sc.edges, e)
			}
		}
		// st's offsets fit, so out's, which address a subset, do too.
		if err := out.add(rr.target, sc); err != nil {
			return err
		}
	}
	var err error
	idx.graphs, err = mergeStores(g, out)
	return err
}
