package rrindex

import (
	"fmt"
	"math"
	"sync"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
)

// BuildOptions controls offline index construction.
type BuildOptions struct {
	// Accuracy carries ε, δ and LogSearchSpace = ln φ_K (Eq. 7), where K
	// is the largest supported query size (the paper uses K = 10).
	Accuracy sampling.Options
	// MaxIndexSamples caps θ. The theoretical θ of Eq. 7 scales with |V|
	// and is enormous for large graphs; experiments cap it (documented
	// deviation knob, DESIGN.md Sec. 6). 0 means no cap.
	MaxIndexSamples int64
	// Seed seeds the offline sampler.
	Seed uint64
	// Workers parallelizes offline sampling across goroutines. Results
	// are deterministic per (Seed, Workers); 0 or 1 means sequential.
	Workers int
	// TrackMembers makes BuildDelayMat record per-graph member sets and
	// targets so the index supports incremental Repair under graph
	// updates. It trades DelayMat's tiny footprint for patchable counters;
	// ignored by Build (the materialized index is always repairable).
	TrackMembers bool
}

// Theta returns the offline sample count of Eq. 7:
// θ = (2+ε)/ε² · |V| · (ln δ + ln φ_K + ln 2), capped by MaxIndexSamples.
func (o BuildOptions) Theta(numVertices int) int64 {
	t := o.Accuracy.Lambda() * float64(numVertices)
	if t < 1 {
		t = 1
	}
	th := int64(math.Ceil(t))
	if o.MaxIndexSamples > 0 && th > o.MaxIndexSamples {
		th = o.MaxIndexSamples
	}
	return th
}

// Index is the offline RR-Graph index of Algo 3 ("IndexEst"): θ RR-Graphs
// of uniformly sampled targets, plus a per-user postings list of the
// RR-Graphs containing that user. The graphs are views into a shared
// contiguous arena and the postings lists are windows into a single int32
// arena (see the package comment). Safe for concurrent readers; the
// estimator wrappers carry per-goroutine scratch.
type Index struct {
	g      *graph.Graph
	theta  int64
	graphs []RRGraph
	// containing[u] lists indices into graphs of RR-Graphs containing u.
	containing [][]int32
	maxSize    int   // largest RR-Graph vertex count, for scratch sizing
	footprint  int64 // cached MemoryFootprint, maintained by Build/Read/Repair
	// loose counts views living outside the primary arena (accumulated by
	// repairs). An untouched view pins its whole backing array, so once
	// repairs have replaced many graphs the live data could be a shrinking
	// share of retained RSS; Repair compacts when loose passes half of θ,
	// bounding retention at ~2x the live index.
	loose int
}

// compact copies every view into one fresh contiguous arena so older
// generations' backing arrays (pinned only by stale segments) become
// collectable. Purely a storage move: targets, CSR content and postings
// indices are unchanged, so estimates are bit-identical.
func (idx *Index) compact() {
	var tv, ts, te int
	for gi := range idx.graphs {
		tv += len(idx.graphs[gi].verts)
		ts += len(idx.graphs[gi].outStart)
		te += len(idx.graphs[gi].outTo)
	}
	verts := make([]graph.VertexID, 0, tv)
	outStart := make([]int32, 0, ts)
	outTo := make([]int32, 0, te)
	edgeID := make([]graph.EdgeID, 0, te)
	c := make([]float64, 0, te)
	for gi := range idx.graphs {
		rr := &idx.graphs[gi]
		vo, so, eo := len(verts), len(outStart), len(outTo)
		verts = append(verts, rr.verts...)
		outStart = append(outStart, rr.outStart...)
		outTo = append(outTo, rr.outTo...)
		edgeID = append(edgeID, rr.edgeID...)
		c = append(c, rr.c...)
		rr.verts = verts[vo:len(verts):len(verts)]
		rr.outStart = outStart[so:len(outStart):len(outStart)]
		rr.outTo = outTo[eo:len(outTo):len(outTo)]
		rr.edgeID = edgeID[eo:len(edgeID):len(edgeID)]
		rr.c = c[eo:len(c):len(c)]
	}
	idx.loose = 0
}

// Build constructs the index. It is the paper's offline phase.
func Build(g *graph.Graph, opts BuildOptions) (*Index, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, fmt.Errorf("rrindex: %w", err)
	}
	return buildWithPool(g, opts, nil, opts.Theta(g.NumVertices()))
}

// drawTarget draws a uniform target from pool; a nil pool means all
// vertices of g, drawn without the slice indirection so the monolithic
// path consumes the RNG exactly as the seed layout did.
func drawTarget(r *rng.Source, pool []graph.VertexID, numVertices int) graph.VertexID {
	if pool == nil {
		return graph.VertexID(r.Intn(numVertices))
	}
	return pool[r.Intn(len(pool))]
}

// buildWithPool constructs an index of exactly theta RR-Graphs whose
// targets are drawn uniformly from pool (nil = every vertex of g). It is
// the shared core of the monolithic Build and of per-shard builds, which
// pass the shard's user partition and apportioned θ.
func buildWithPool(g *graph.Graph, opts BuildOptions, pool []graph.VertexID, theta int64) (*Index, error) {
	idx := &Index{g: g, theta: theta}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if int64(workers) > theta {
		workers = int(theta)
	}
	if workers == 1 {
		r := rng.New(opts.Seed)
		sc := newGenScratch(g.NumVertices())
		ab := &arenaBuilder{}
		for i := int64(0); i < theta; i++ {
			generate(g, drawTarget(r, pool, g.NumVertices()), r, sc, ab)
		}
		idx.graphs = mergeArenas(ab)
	} else {
		// Deterministic parallel sampling: worker w owns the w-th chunk
		// of θ with its own derived stream and per-worker arena; arenas
		// are merged once in worker order, so the graph list depends only
		// on (Seed, Workers).
		builders := make([]*arenaBuilder, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := theta * int64(w) / int64(workers)
			hi := theta * int64(w+1) / int64(workers)
			wg.Add(1)
			go func(w int, n int64) {
				defer wg.Done()
				r := rng.New(opts.Seed + uint64(w)*0x9e3779b97f4a7c15)
				sc := newGenScratch(g.NumVertices())
				ab := &arenaBuilder{}
				for i := int64(0); i < n; i++ {
					generate(g, drawTarget(r, pool, g.NumVertices()), r, sc, ab)
				}
				builders[w] = ab
			}(w, hi-lo)
		}
		wg.Wait()
		idx.graphs = mergeArenas(builders...)
	}

	idx.finishPostings()
	return idx, nil
}

// finishPostings packs the per-user postings lists into one int32 arena
// (two counting passes, zero per-user allocations) and refreshes the
// cached maxSize and footprint. Called at the end of Build and ReadIndex.
func (idx *Index) finishPostings() {
	numV := idx.g.NumVertices()
	counts := make([]int32, numV)
	total := 0
	for gi := range idx.graphs {
		rr := &idx.graphs[gi]
		for _, v := range rr.verts {
			counts[v]++
		}
		total += len(rr.verts)
		if rr.NumVertices() > idx.maxSize {
			idx.maxSize = rr.NumVertices()
		}
	}
	arena := make([]int32, total)
	idx.containing = make([][]int32, numV)
	off := 0
	for v := 0; v < numV; v++ {
		idx.containing[v] = arena[off : off : off+int(counts[v])]
		off += int(counts[v])
	}
	for gi := range idx.graphs {
		for _, v := range idx.graphs[gi].verts {
			idx.containing[v] = append(idx.containing[v], int32(gi)) // within cap
		}
	}
	idx.recomputeFootprint()
}

// recomputeFootprint refreshes the cached MemoryFootprint value.
func (idx *Index) recomputeFootprint() {
	var b int64
	for gi := range idx.graphs {
		b += idx.graphs[gi].memoryFootprint()
	}
	for _, list := range idx.containing {
		b += int64(len(list)) * 4
	}
	idx.footprint = b
}

// Theta returns the number of offline RR-Graphs.
func (idx *Index) Theta() int64 { return idx.theta }

// NumContaining returns θ(u), the number of RR-Graphs containing u.
func (idx *Index) NumContaining(u graph.VertexID) int { return len(idx.containing[u]) }

// MemoryFootprint returns the index's estimated in-memory size in bytes
// (Table 3's "RR-Graphs size" column). With the arena layout the number
// is maintained by Build/Read/Repair, so this is O(1) and cheap enough
// for a /statsz scrape on every request.
func (idx *Index) MemoryFootprint() int64 { return idx.footprint }

// graphSet returns the window of the index a scan of u walks.
func (idx *Index) graphSet(u graph.VertexID) graphSet {
	return graphSet{graphs: idx.graphs, postings: idx.containing[u], maxSize: idx.maxSize, theta: idx.theta}
}

// Estimator is the IndexEst scan policy (Algo 3's online phase): hit-test
// every RR-Graph posted for the query user. Not safe for concurrent use;
// create one per goroutine over the shared Index.
type Estimator struct {
	idx *Index
	scanState
}

// NewEstimator creates an IndexEst scan over idx.
func NewEstimator(idx *Index) *Estimator {
	return &Estimator{idx: idx, scanState: newScanState(idx.g)}
}

func (est *Estimator) postings(u graph.VertexID) int { return len(est.idx.containing[u]) }

func (est *Estimator) scanFrontier(shard, users int, u graph.VertexID, prober sampling.EdgeProber, chunk [][]float64, rows []Partial, stride int) {
	est.plainFrontier(est.idx.graphSet(u), shard, users, u, prober, chunk, rows, stride)
}
