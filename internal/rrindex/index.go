package rrindex

import (
	"errors"
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
// It fails when an uncapped θ does not fit an int64 (an ε so small no
// index could be built).
func (o BuildOptions) Theta(numVertices int) (int64, error) {
	t := o.Accuracy.Lambda() * float64(numVertices)
	th, ok := sampling.CeilCap(t, o.MaxIndexSamples)
	if !ok {
		return 0, fmt.Errorf("rrindex: epsilon = %v needs θ = %.3g RR-Graphs, past int64; raise epsilon or cap MaxIndexSamples", o.Accuracy.Epsilon, t)
	}
	return th, nil
}

// EffectiveEpsilon is Eq. 7 solved for ε at a live sample count: the ε
// whose uncapped Theta over numVertices vertices is theta,
// ε = (a + √(a² + 8θa)) / 2θ with a = |V|·(ln δ + ln φ_K + ln 2). It is
// the accuracy an index of theta graphs actually delivers, above
// Accuracy.Epsilon whenever MaxIndexSamples capped θ.
func (o BuildOptions) EffectiveEpsilon(numVertices int, theta int64) float64 {
	a := float64(numVertices) * o.Accuracy.LogTerm()
	th := float64(theta)
	return (a + math.Sqrt(a*a+8*th*a)) / (2 * th)
}

// Index is the offline RR-Graph index of Algo 3 ("IndexEst"): θ RR-Graphs
// of uniformly sampled targets, plus, per user, a postings list of the
// deeper RR-Graphs containing that user, a window of the threshold tier
// for the in-stars the user is a member of, and a count of the one-vertex
// graphs and in-stars the user is the target of, which are a hit for it
// under every tag set. The graphs live in one flat graphStore and the
// postings lists are windows into a single int32 arena (see the package
// comment). Safe for concurrent readers; the estimator wrappers carry
// per-goroutine scratch.
type Index struct {
	g      *graph.Graph
	theta  int64
	graphs *graphStore
	// containing[u] lists the positions of the deeper RR-Graphs
	// containing u; single[u] counts the one-vertex RR-Graphs and in-stars
	// of target u.
	containing [][]int32
	single     []int32
	// tier[tierStart[u]:tierStart[u+1]] are u's in-star memberships, as
	// entries of the store sorted by (edge, c) (graphStore.tier).
	tierStart []uint32
	tier      []uint32
	maxSize   int   // largest deeper RR-Graph vertex count, for scratch sizing
	footprint int64 // cached MemoryFootprint, maintained by Build/Read/Repair
}

// Build constructs the index. It is the paper's offline phase.
func Build(g *graph.Graph, opts BuildOptions) (*Index, error) {
	if err := opts.Accuracy.Validate(); err != nil {
		return nil, fmt.Errorf("rrindex: %w", err)
	}
	theta, err := opts.Theta(g.NumVertices())
	if err != nil {
		return nil, err
	}
	return buildWithPool(g, opts, nil, theta)
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
	// Deterministic parallel sampling: worker w owns the w-th chunk of θ
	// with its own derived stream (worker 0's is the seed's own) and
	// per-worker store; stores are merged once in worker order, so the
	// graph list depends only on (Seed, Workers).
	stores := make([]*graphStore, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := theta * int64(w) / int64(workers)
		hi := theta * int64(w+1) / int64(workers)
		wg.Add(1)
		go func(w int, n int64) {
			defer wg.Done()
			r := rng.New(opts.Seed + uint64(w)*0x9e3779b97f4a7c15)
			sc := newGenScratch(g.NumVertices())
			st := newStore(g)
			for i := int64(0); i < n && errs[w] == nil; i++ {
				errs[w] = generate(g, drawTarget(r, pool, g.NumVertices()), r, sc, st)
			}
			stores[w] = st
		}(w, hi-lo)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var err error
	if idx.graphs, err = mergeStores(g, stores...); err != nil {
		return nil, err
	}
	idx.finishPostings()
	return idx, nil
}

// finishPostings packs the per-user postings lists into one int32 arena
// (two counting passes, zero per-user allocations) and refreshes maxSize
// and what seal derives. Called at the end of Build and ReadIndex.
func (idx *Index) finishPostings() {
	numV := idx.g.NumVertices()
	counts := make([]int32, numV)
	for _, v := range idx.graphs.verts {
		counts[v]++
	}
	idx.maxSize = idx.graphs.maxSize()
	arena := make([]int32, len(idx.graphs.verts))
	idx.containing = make([][]int32, numV)
	off := 0
	for v := 0; v < numV; v++ {
		idx.containing[v] = arena[off : off : off+int(counts[v])]
		off += int(counts[v])
	}
	for gi := 0; gi < idx.graphs.size(); gi++ {
		for _, v := range idx.graphs.posted(gi) {
			idx.containing[v] = append(idx.containing[v], int32(gi)) // within cap
		}
	}
	idx.seal()
}

// seal refreshes what the index derives from its store: the direct
// counts, the threshold tier and the cached footprint.
func (idx *Index) seal() {
	idx.single = make([]int32, idx.g.NumVertices())
	idx.graphs.countDirect(idx.single)
	idx.tierStart, idx.tier = idx.graphs.tier(idx.g.NumVertices())
	idx.recomputeFootprint()
}

// recomputeFootprint refreshes the cached MemoryFootprint value: the
// store, the direct counts, the tier, every postings window by capacity,
// and the windows' headers.
func (idx *Index) recomputeFootprint() {
	b := idx.graphs.footprint() + int64(cap(idx.single))*4 + int64(cap(idx.containing))*sliceHeaderBytes +
		int64(cap(idx.tierStart))*4 + int64(cap(idx.tier))*4
	for _, list := range idx.containing {
		b += int64(cap(list)) * 4
	}
	idx.footprint = b
}

// sliceHeaderBytes is the size of one postings window's slice header.
const sliceHeaderBytes = 24

// Theta returns the number of offline RR-Graphs.
func (idx *Index) Theta() int64 { return idx.theta }

// NumContaining returns θ(u), the number of RR-Graphs containing u.
func (idx *Index) NumContaining(u graph.VertexID) int {
	return len(idx.containing[u]) + int(idx.single[u]) + len(idx.stars(u))
}

// stars returns u's window of the threshold tier.
func (idx *Index) stars(u graph.VertexID) []uint32 {
	return idx.tier[idx.tierStart[u]:idx.tierStart[u+1]]
}

// postingsTotal returns Σ_u θ(u), every graph's vertex count summed.
func (idx *Index) postingsTotal() int {
	st := idx.graphs
	return len(st.verts) + len(st.singles) + len(st.starEnd) + len(st.starEdge)
}

// markContaining sets mark[gi] for every graph gi containing one of
// heads: the heads' postings, the one-vertex graphs they target, and the
// in-stars they are the target or a member of.
func (idx *Index) markContaining(heads []graph.VertexID, mark []bool) {
	isHead := make([]bool, len(idx.containing))
	for _, h := range heads {
		if int(h) < len(idx.containing) {
			isHead[h] = true
			for _, gi := range idx.containing[h] {
				mark[gi] = true
			}
		}
	}
	st := idx.graphs
	st.each(oneVertex, func(pos, i int) { mark[pos] = mark[pos] || isHead[st.singles[i]] })
	st.each(inStar, func(pos, r int) {
		lo, hi := st.starEntries(r)
		for _, e := range st.starEdge[lo:hi] {
			mark[pos] = mark[pos] || isHead[st.g.EdgeFrom(e)] || isHead[st.g.EdgeTo(e)]
		}
	})
}

// MemoryFootprint returns the bytes the index retains (Table 3's
// "RR-Graphs size" column): the graph store's arrays, records, in-star
// entries and kind bitmap, the direct counts, the threshold tier and the
// postings windows with their headers, all by capacity. It is maintained
// by Build/Read/Repair, so this is O(1) and cheap enough for a /statsz
// scrape on every request.
func (idx *Index) MemoryFootprint() int64 { return idx.footprint }

// graphSet returns the window of the index a scan of u walks.
func (idx *Index) graphSet(u graph.VertexID) graphSet {
	return graphSet{graphs: idx.graphs, postings: idx.containing[u], stars: idx.stars(u), direct: int(idx.single[u]), maxSize: idx.maxSize, theta: idx.theta}
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

func (est *Estimator) postings(u graph.VertexID) int { return est.idx.NumContaining(u) }

func (est *Estimator) scanFrontier(shard, users int, u graph.VertexID, prober sampling.EdgeProber, chunk [][]float64, rows []Partial, stride int) {
	est.plainFrontier(est.idx.graphSet(u), shard, users, u, prober, chunk, rows, stride)
}
