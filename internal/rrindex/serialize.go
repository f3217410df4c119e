package rrindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"pitex/internal/graph"
)

// Binary index formats (little-endian). Both open with the same header:
//
//	magic "PITEXIDX" | version u32 | kind u32 | numVertices u64 | theta u64
//
// Version 2 (written by WriteIndex) serializes the arena layout as whole
// arrays so a loader fills each backing array in one contiguous pass:
//
//	numGraphs u64 |
//	targets u32 × G | vertN u32 × G | edgeN u32 × G |
//	verts u32 × ΣV | outStart u32 × (ΣV+G) |
//	outTo u32 × ΣE | edgeID u32 × ΣE | c f64 × ΣE
//
// where outStart values are per-graph-relative edge offsets. Version 1
// (the seed format: per graph, target/verts then per-edge records of
// fromLocal/toLocal/edgeID/c) is still readable; loading it assembles the
// graphs into an arena, so a v1 file yields the same in-memory layout.
//
// The per-user postings lists are rebuilt on load (they are derivable).
// DelayMat files use the version-1 header with one u64 counter per vertex
// and are written unchanged, so older readers keep working.

var indexMagic = [8]byte{'P', 'I', 'T', 'E', 'X', 'I', 'D', 'X'}

const (
	indexVersionV1  = 1
	indexVersionV2  = 2
	indexVersionV3  = 3
	kindIndex       = 1
	kindDelayMat    = 2
	maxSaneVertices = 1 << 31
	maxSaneShards   = 1 << 20
)

// leWriter writes little-endian scalars through one reusable buffer
// (binary.Write's per-call reflection and allocation made v1 writes the
// slowest part of SaveIndex).
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

func (lw *leWriter) f64(v float64) { lw.u64(math.Float64bits(v)) }

// WriteIndex serializes the index (format version 2) so that a query
// server can load it instead of re-running the offline phase.
func WriteIndex(w io.Writer, idx *Index) error {
	lw := &leWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := lw.w.Write(indexMagic[:]); err != nil {
		return fmt.Errorf("rrindex: write: %w", err)
	}
	lw.u32(indexVersionV2)
	lw.u32(kindIndex)
	lw.u64(uint64(idx.g.NumVertices()))
	lw.u64(uint64(idx.theta))
	writeGraphArrays(lw, idx.graphs)
	if lw.err != nil {
		return fmt.Errorf("rrindex: write: %w", lw.err)
	}
	return lw.w.Flush()
}

// writeGraphArrays writes one graph set in the whole-array layout shared
// by format versions 2 (the file body) and 3 (one block per shard):
// graph count, per-graph table, then each arena array in full.
func writeGraphArrays(lw *leWriter, graphs []RRGraph) {
	lw.u64(uint64(len(graphs)))
	for gi := range graphs {
		lw.u32(uint32(graphs[gi].target))
	}
	for gi := range graphs {
		lw.u32(uint32(len(graphs[gi].verts)))
	}
	for gi := range graphs {
		lw.u32(uint32(len(graphs[gi].edgeID)))
	}
	// After a Repair the views may span several arenas, so each array is
	// written view by view; the file is contiguous either way.
	for gi := range graphs {
		for _, v := range graphs[gi].verts {
			lw.u32(uint32(v))
		}
	}
	for gi := range graphs {
		for _, s := range graphs[gi].outStart {
			lw.u32(uint32(s))
		}
	}
	for gi := range graphs {
		for _, t := range graphs[gi].outTo {
			lw.u32(uint32(t))
		}
	}
	for gi := range graphs {
		for _, e := range graphs[gi].edgeID {
			lw.u32(uint32(e))
		}
	}
	for gi := range graphs {
		for _, c := range graphs[gi].c {
			lw.f64(c)
		}
	}
}

// WriteSharded serializes a sharded index. A single-shard index is
// written in format version 2 — byte-identical to WriteIndex over its one
// shard — so files produced at S=1 stay readable by pre-sharding readers.
// S>1 produces format version 3: the common header (θ is the combined
// count), the shard count, then per shard its θ and graph arrays in shard
// order; the hash partition itself is derived from (|V|, S) on load, so
// shard boundaries round-trip without storing user lists.
func WriteSharded(w io.Writer, si *ShardedIndex) error {
	if si.numShards == 1 {
		return WriteIndex(w, si.shards[0])
	}
	lw := &leWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := lw.w.Write(indexMagic[:]); err != nil {
		return fmt.Errorf("rrindex: write: %w", err)
	}
	lw.u32(indexVersionV3)
	lw.u32(kindIndex)
	lw.u64(uint64(si.g.NumVertices()))
	lw.u64(uint64(si.Theta()))
	lw.u32(uint32(si.numShards))
	for _, sh := range si.shards {
		lw.u64(uint64(sh.theta))
		writeGraphArrays(lw, sh.graphs)
	}
	if lw.err != nil {
		return fmt.Errorf("rrindex: write: %w", lw.err)
	}
	return lw.w.Flush()
}

// leReader reads little-endian scalars and bulk arrays through one
// reusable chunk buffer.
type leReader struct {
	r   *bufio.Reader
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

func (lr *leReader) f64() float64 { return math.Float64frombits(lr.u64()) }

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

// f64s streams n little-endian float64 words to f in large chunks.
func (lr *leReader) f64s(n int, f func(i int, v float64)) {
	buf := lr.chunk()
	for i := 0; i < n && lr.err == nil; {
		k := (n - i) * 8
		if k > len(buf) {
			k = len(buf) - len(buf)%8
		}
		if _, err := io.ReadFull(lr.r, buf[:k]); err != nil {
			lr.err = err
			return
		}
		for o := 0; o < k; o += 8 {
			f(i, math.Float64frombits(binary.LittleEndian.Uint64(buf[o:o+8])))
			i++
		}
	}
}

// readHeader validates the magic/version and returns the version and kind.
func readHeader(lr *leReader) (version, kind uint32, numVertices, theta uint64, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(lr.r, magic[:]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("rrindex: header: %w", err)
	}
	if magic != indexMagic {
		return 0, 0, 0, 0, fmt.Errorf("rrindex: bad magic %q", magic[:])
	}
	version = lr.u32()
	if lr.err == nil && (version < indexVersionV1 || version > indexVersionV3) {
		return 0, 0, 0, 0, fmt.Errorf("rrindex: unsupported version %d", version)
	}
	kind = lr.u32()
	numVertices = lr.u64()
	theta = lr.u64()
	if lr.err != nil {
		return 0, 0, 0, 0, fmt.Errorf("rrindex: header: %w", lr.err)
	}
	// θ lives in int64 fields in memory; a u64 with the top bit set would
	// silently go negative on the cast and poison every estimate scale.
	if numVertices == 0 || numVertices > maxSaneVertices || theta == 0 || theta > math.MaxInt64 {
		return 0, 0, 0, 0, fmt.Errorf("rrindex: implausible header (V=%d θ=%d)", numVertices, theta)
	}
	return version, kind, numVertices, theta, nil
}

// ReadIndex loads an index previously written with WriteIndex (either
// format version). The graph must be the one the index was built over;
// structural mismatches are detected where cheap (vertex count, edge-ID
// range). Both versions produce the arena-flattened in-memory layout.
func ReadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	lr := &leReader{r: bufio.NewReaderSize(r, 1<<16)}
	version, kind, nV, theta, err := readHeader(lr)
	if err != nil {
		return nil, err
	}
	if kind != kindIndex {
		return nil, fmt.Errorf("rrindex: file is not an RR-Graph index (kind %d)", kind)
	}
	if int(nV) != g.NumVertices() {
		return nil, fmt.Errorf("rrindex: index built over %d vertices, graph has %d", nV, g.NumVertices())
	}
	if version == indexVersionV3 {
		return nil, fmt.Errorf("rrindex: file is a sharded (v3) index; load it with ReadSharded")
	}
	return readMonolithicBody(lr, g, version, nV, theta)
}

// readMonolithicBody reads a v1/v2 graph-set body (count + graphs) into a
// fresh Index with postings rebuilt.
func readMonolithicBody(lr *leReader, g *graph.Graph, version uint32, nV, theta uint64) (*Index, error) {
	nGraphs := lr.u64()
	if lr.err != nil {
		return nil, fmt.Errorf("rrindex: %w", lr.err)
	}
	if nGraphs > uint64(theta) {
		return nil, fmt.Errorf("rrindex: %d graphs exceed θ=%d", nGraphs, theta)
	}
	idx := &Index{g: g, theta: int64(theta)}
	if version == indexVersionV1 {
		if err := readGraphsV1(lr, g, idx, nV, nGraphs); err != nil {
			return nil, err
		}
	} else {
		if err := readGraphsV2(lr, g, idx, nV, nGraphs); err != nil {
			return nil, err
		}
	}
	idx.finishPostings()
	return idx, nil
}

// wrapMonolithic presents a monolithic index as a single-shard
// ShardedIndex — how v1/v2 files load under the sharded surface.
func wrapMonolithic(idx *Index) *ShardedIndex {
	return &ShardedIndex{
		g:         idx.g,
		numShards: 1,
		shards:    []*Index{idx},
		pools:     [][]graph.VertexID{nil},
		repaired:  make([]int64, 1),
	}
}

// ReadSharded loads an index written by WriteSharded (or WriteIndex): a
// v1/v2 file loads as a single shard, a v3 file reconstructs the shard
// layout, re-deriving each shard's user partition from (|V|, S) and
// validating that every graph's target lies in its shard.
func ReadSharded(r io.Reader, g *graph.Graph) (*ShardedIndex, error) {
	lr := &leReader{r: bufio.NewReaderSize(r, 1<<16)}
	version, kind, nV, theta, err := readHeader(lr)
	if err != nil {
		return nil, err
	}
	if kind != kindIndex {
		return nil, fmt.Errorf("rrindex: file is not an RR-Graph index (kind %d)", kind)
	}
	if int(nV) != g.NumVertices() {
		return nil, fmt.Errorf("rrindex: index built over %d vertices, graph has %d", nV, g.NumVertices())
	}
	if version != indexVersionV3 {
		idx, err := readMonolithicBody(lr, g, version, nV, theta)
		if err != nil {
			return nil, err
		}
		return wrapMonolithic(idx), nil
	}
	S := lr.u32()
	if lr.err != nil {
		return nil, fmt.Errorf("rrindex: shard count: %w", lr.err)
	}
	if S < 2 || S > maxSaneShards {
		return nil, fmt.Errorf("rrindex: implausible shard count %d", S)
	}
	si := &ShardedIndex{
		g:         g,
		numShards: int(S),
		shards:    make([]*Index, S),
		pools:     shardPools(g.NumVertices(), int(S)),
		repaired:  make([]int64, S),
	}
	var total int64
	for s := 0; s < int(S); s++ {
		thetaS := lr.u64()
		if lr.err != nil {
			return nil, fmt.Errorf("rrindex: shard %d: %w", s, lr.err)
		}
		if thetaS > theta {
			return nil, fmt.Errorf("rrindex: shard %d: θ_s=%d exceeds θ=%d", s, thetaS, theta)
		}
		sh, err := readMonolithicBody(lr, g, indexVersionV2, nV, thetaS)
		if err != nil {
			return nil, fmt.Errorf("rrindex: shard %d: %w", s, err)
		}
		if err := sh.checkTargets(int(S), s); err != nil {
			return nil, err
		}
		si.shards[s] = sh
		total += sh.theta
	}
	if total != int64(theta) {
		return nil, fmt.Errorf("rrindex: shard θ sum %d does not match header θ=%d", total, theta)
	}
	return si, nil
}

// readGraphsV2 loads the arena arrays in one contiguous pass per array.
// Array storage grows with append as payload actually arrives, so a
// corrupt or malicious header claiming huge counts fails with a read
// error after at most the real file size — it cannot drive one giant
// up-front allocation (the header-declared totals are only trusted as
// upper bounds to stream against).
func readGraphsV2(lr *leReader, g *graph.Graph, idx *Index, nV, nGraphs uint64) error {
	if nGraphs > maxSaneVertices {
		return fmt.Errorf("rrindex: implausible graph count %d", nGraphs)
	}
	G := int(nGraphs)
	ab := arenaBuilder{}
	lr.u32s(G, func(i int, v uint32) { ab.targets = append(ab.targets, graph.VertexID(v)) })
	lr.u32s(G, func(i int, v uint32) { ab.vertN = append(ab.vertN, int32(v)) })
	lr.u32s(G, func(i int, v uint32) { ab.edgeN = append(ab.edgeN, int32(v)) })
	if lr.err != nil {
		return fmt.Errorf("rrindex: graph table: %w", lr.err)
	}
	var totV, totE int64
	for i := 0; i < G; i++ {
		if uint64(ab.targets[i]) >= nV || ab.vertN[i] <= 0 || uint64(ab.vertN[i]) > nV ||
			ab.edgeN[i] < 0 || int(ab.edgeN[i]) > g.NumEdges() {
			return fmt.Errorf("rrindex: graph %d: implausible shape", i)
		}
		totV += int64(ab.vertN[i])
		totE += int64(ab.edgeN[i])
	}
	badAt := int64(-1)
	note := func(i int, bad bool) {
		if bad && badAt < 0 {
			badAt = int64(i)
		}
	}
	lr.u32s(int(totV), func(i int, v uint32) {
		note(i, uint64(v) >= nV)
		ab.verts = append(ab.verts, graph.VertexID(v))
	})
	lr.u32s(int(totV)+G, func(i int, v uint32) {
		note(i, int64(v) > totE)
		ab.outStart = append(ab.outStart, int32(v))
	})
	lr.u32s(int(totE), func(i int, v uint32) {
		note(i, int64(v) >= totV)
		ab.outTo = append(ab.outTo, int32(v))
	})
	lr.u32s(int(totE), func(i int, v uint32) {
		note(i, int(v) >= g.NumEdges())
		ab.edgeID = append(ab.edgeID, graph.EdgeID(v))
	})
	lr.f64s(int(totE), func(i int, v float64) {
		note(i, math.IsNaN(v) || v < 0 || v >= 1)
		ab.c = append(ab.c, v)
	})
	if lr.err != nil {
		return fmt.Errorf("rrindex: arenas: %w", lr.err)
	}
	if badAt >= 0 {
		return fmt.Errorf("rrindex: invalid arena value at offset %d", badAt)
	}
	idx.graphs = ab.takeViews()
	// Per-graph structural invariants that bulk range checks cannot see.
	for gi := range idx.graphs {
		rr := &idx.graphs[gi]
		n := int32(len(rr.verts))
		for i := 1; i < len(rr.verts); i++ {
			if rr.verts[i] <= rr.verts[i-1] {
				return fmt.Errorf("rrindex: graph %d: members not strictly ascending", gi)
			}
		}
		if !rr.Contains(rr.target) {
			return fmt.Errorf("rrindex: graph %d: target not a member", gi)
		}
		if rr.outStart[0] != 0 || rr.outStart[n] != int32(len(rr.edgeID)) {
			return fmt.Errorf("rrindex: graph %d: CSR bounds corrupt", gi)
		}
		for v := int32(0); v < n; v++ {
			if rr.outStart[v+1] < rr.outStart[v] {
				return fmt.Errorf("rrindex: graph %d: CSR offsets decrease", gi)
			}
		}
		for _, t := range rr.outTo {
			if t < 0 || t >= n {
				return fmt.Errorf("rrindex: graph %d: head out of range", gi)
			}
		}
	}
	return nil
}

// readGraphsV1 parses the seed per-graph format and assembles it into an
// arena, so legacy files load into the flat layout.
func readGraphsV1(lr *leReader, g *graph.Graph, idx *Index, nV, nGraphs uint64) error {
	sc := newGenScratch(int(nV))
	ab := &arenaBuilder{}
	for gi := uint64(0); gi < nGraphs; gi++ {
		target := lr.u32()
		nVerts := lr.u64()
		if lr.err != nil {
			return fmt.Errorf("rrindex: graph %d: %w", gi, lr.err)
		}
		if uint64(target) >= nV || nVerts == 0 || nVerts > nV {
			return fmt.Errorf("rrindex: graph %d: implausible shape", gi)
		}
		sc.members = sc.members[:0]
		for i := uint64(0); i < nVerts; i++ {
			v := lr.u32()
			if lr.err == nil && uint64(v) >= nV {
				return fmt.Errorf("rrindex: graph %d: vertex %d out of range", gi, v)
			}
			sc.members = append(sc.members, graph.VertexID(v))
		}
		nEdges := lr.u64()
		if lr.err != nil {
			return fmt.Errorf("rrindex: graph %d: %w", gi, lr.err)
		}
		if nEdges > uint64(g.NumEdges()) {
			return fmt.Errorf("rrindex: graph %d: %d edges exceed graph size", gi, nEdges)
		}
		sc.edges = sc.edges[:0]
		for i := uint64(0); i < nEdges; i++ {
			fromLocal := lr.u32()
			toLocal := lr.u32()
			edgeID := lr.u32()
			c := lr.f64()
			if lr.err != nil {
				return fmt.Errorf("rrindex: graph %d edge %d: %w", gi, i, lr.err)
			}
			if uint64(fromLocal) >= nVerts || uint64(toLocal) >= nVerts ||
				int(edgeID) >= g.NumEdges() || math.IsNaN(c) || c < 0 || c >= 1 {
				return fmt.Errorf("rrindex: graph %d edge %d: invalid fields", gi, i)
			}
			sc.edges = append(sc.edges, rrEdge{
				from: sc.members[fromLocal],
				to:   sc.members[toLocal],
				id:   graph.EdgeID(edgeID),
				c:    c,
			})
		}
		// Edges are resolved to global IDs above, so the file's member
		// order is no longer needed: sort once, then reject duplicates (a
		// malicious file may repeat a member, which would corrupt ab.add's
		// localOf table) and targets that are not members.
		sort.Slice(sc.members, func(a, b int) bool { return sc.members[a] < sc.members[b] })
		for i := 1; i < len(sc.members); i++ {
			if sc.members[i] == sc.members[i-1] {
				return fmt.Errorf("rrindex: graph %d: duplicate member %d", gi, sc.members[i])
			}
		}
		t := graph.VertexID(target)
		if i := sort.Search(len(sc.members), func(i int) bool { return sc.members[i] >= t }); i == len(sc.members) || sc.members[i] != t {
			return fmt.Errorf("rrindex: graph %d: target not a member", gi)
		}
		ab.add(t, sc)
	}
	idx.graphs = mergeArenas(ab)
	return nil
}

// WriteDelayMat serializes a DelayMat index (format version 1; the
// counters-only format needs nothing from v2).
func WriteDelayMat(w io.Writer, dm *DelayMat) error {
	lw := &leWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := lw.w.Write(indexMagic[:]); err != nil {
		return fmt.Errorf("rrindex: write: %w", err)
	}
	lw.u32(indexVersionV1)
	lw.u32(kindDelayMat)
	lw.u64(uint64(dm.g.NumVertices()))
	lw.u64(uint64(dm.theta))
	for _, c := range dm.counts {
		lw.u64(uint64(c))
	}
	if lw.err != nil {
		return fmt.Errorf("rrindex: write: %w", lw.err)
	}
	return lw.w.Flush()
}

// ReadDelayMat loads a DelayMat index written with WriteDelayMat.
func ReadDelayMat(r io.Reader, g *graph.Graph) (*DelayMat, error) {
	lr := &leReader{r: bufio.NewReaderSize(r, 1<<16)}
	version, kind, nV, theta, err := readHeader(lr)
	if err != nil {
		return nil, err
	}
	if kind != kindDelayMat {
		return nil, fmt.Errorf("rrindex: file is not a DelayMat index (kind %d)", kind)
	}
	if version != indexVersionV1 {
		// No v2 DelayMat layout exists, and v3 is sharded; parsing either
		// as v1 counters would silently misread the format.
		return nil, fmt.Errorf("rrindex: unsupported DelayMat version %d", version)
	}
	if int(nV) != g.NumVertices() {
		return nil, fmt.Errorf("rrindex: index built over %d vertices, graph has %d", nV, g.NumVertices())
	}
	dm, err := readDelayCounts(lr, g, theta, int64(theta))
	if err != nil {
		return nil, err
	}
	return dm, nil
}

// readDelayCounts reads one per-vertex counter array (bounded by maxCount
// per entry) into a fresh DelayMat with the given θ.
func readDelayCounts(lr *leReader, g *graph.Graph, maxCount uint64, theta int64) (*DelayMat, error) {
	dm := &DelayMat{g: g, theta: theta, counts: make([]int64, g.NumVertices())}
	for i := range dm.counts {
		c := lr.u64()
		if lr.err != nil {
			return nil, fmt.Errorf("rrindex: counts: %w", lr.err)
		}
		if c > maxCount {
			return nil, fmt.Errorf("rrindex: θ(%d)=%d exceeds θ=%d", i, c, maxCount)
		}
		dm.counts[i] = int64(c)
	}
	dm.recomputeFootprint()
	return dm, nil
}

// WriteShardedDelayMat serializes a sharded DelayMat. A single shard is
// written in the version-1 counters format — byte-identical to
// WriteDelayMat — so S=1 files stay readable everywhere; S>1 produces
// format version 3: the common header, the shard count, then per shard
// its θ and counter array. Repair bookkeeping (TrackMembers) is never
// serialized, matching the monolithic format: a DelayMat loaded from disk
// repairs via a full recount.
func WriteShardedDelayMat(w io.Writer, sdm *ShardedDelayMat) error {
	if sdm.numShards == 1 {
		return WriteDelayMat(w, sdm.shards[0])
	}
	lw := &leWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := lw.w.Write(indexMagic[:]); err != nil {
		return fmt.Errorf("rrindex: write: %w", err)
	}
	lw.u32(indexVersionV3)
	lw.u32(kindDelayMat)
	lw.u64(uint64(sdm.g.NumVertices()))
	lw.u64(uint64(sdm.Theta()))
	lw.u32(uint32(sdm.numShards))
	for _, sh := range sdm.shards {
		lw.u64(uint64(sh.theta))
		for _, c := range sh.counts {
			lw.u64(uint64(c))
		}
	}
	if lw.err != nil {
		return fmt.Errorf("rrindex: write: %w", lw.err)
	}
	return lw.w.Flush()
}

// ReadShardedDelayMat loads a DelayMat written by WriteShardedDelayMat
// (or WriteDelayMat): v1 files load as a single shard, v3 files
// reconstruct the shard layout.
func ReadShardedDelayMat(r io.Reader, g *graph.Graph) (*ShardedDelayMat, error) {
	lr := &leReader{r: bufio.NewReaderSize(r, 1<<16)}
	version, kind, nV, theta, err := readHeader(lr)
	if err != nil {
		return nil, err
	}
	if kind != kindDelayMat {
		return nil, fmt.Errorf("rrindex: file is not a DelayMat index (kind %d)", kind)
	}
	if int(nV) != g.NumVertices() {
		return nil, fmt.Errorf("rrindex: index built over %d vertices, graph has %d", nV, g.NumVertices())
	}
	switch version {
	case indexVersionV1:
		dm, err := readDelayCounts(lr, g, theta, int64(theta))
		if err != nil {
			return nil, err
		}
		return &ShardedDelayMat{
			g: g, numShards: 1,
			shards:    []*DelayMat{dm},
			poolSizes: []int{g.NumVertices()},
			repaired:  make([]int64, 1),
		}, nil
	case indexVersionV3:
		S := lr.u32()
		if lr.err != nil {
			return nil, fmt.Errorf("rrindex: shard count: %w", lr.err)
		}
		if S < 2 || S > maxSaneShards {
			return nil, fmt.Errorf("rrindex: implausible shard count %d", S)
		}
		pools := shardPools(g.NumVertices(), int(S))
		sdm := &ShardedDelayMat{
			g: g, numShards: int(S),
			shards:    make([]*DelayMat, S),
			poolSizes: make([]int, S),
			repaired:  make([]int64, S),
		}
		var total int64
		for s := 0; s < int(S); s++ {
			sdm.poolSizes[s] = poolSizeOf(pools[s], g.NumVertices())
			thetaS := lr.u64()
			if lr.err != nil {
				return nil, fmt.Errorf("rrindex: shard %d: %w", s, lr.err)
			}
			if thetaS > theta {
				return nil, fmt.Errorf("rrindex: shard %d: θ_s=%d exceeds θ=%d", s, thetaS, theta)
			}
			sh, err := readDelayCounts(lr, g, thetaS, int64(thetaS))
			if err != nil {
				return nil, fmt.Errorf("rrindex: shard %d: %w", s, err)
			}
			sdm.shards[s] = sh
			total += sh.theta
		}
		if total != int64(theta) {
			return nil, fmt.Errorf("rrindex: shard θ sum %d does not match header θ=%d", total, theta)
		}
		return sdm, nil
	default:
		return nil, fmt.Errorf("rrindex: unsupported DelayMat version %d", version)
	}
}
