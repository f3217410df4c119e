package bestfirst

import (
	"math"
	"slices"
	"sort"

	"pitex/internal/graph"
	"pitex/internal/topics"
)

// Bounder precomputes, per tag w and topic z, the Lemma 8 quantity
//
//	f(w,z) = p(w|z) / Π_{z'} p(w|z')^{p(z')}
//
// (in log space) and, per topic, the tags sorted by f(w,z) descending, so
// that the best k-completion of any partial set is a top-m scan. By the
// weighted AM-GM inequality on Eq. 1's denominator,
// Σ_{z'} p(z')·Π_w p(w|z') ≥ Π_{z'} (Π_w p(w|z'))^{p(z')}, every tag set
// W' satisfies p(z|W') ≤ p(z)·Π_{w∈W'} f(w,z): the prior enters once per
// set, like in the posterior itself, not once per tag. The tables depend
// on the model alone; only k is per query (see forK).
type Bounder struct {
	g *graph.Graph
	m *topics.Model
	k int

	// logF[z][w] = ln f(w,z); -Inf when p(w|z) = 0, +Inf when the
	// denominator vanishes (some p(w|z')=0 with p(z')>0), in which case
	// the dense branch degenerates and the sparse branch caps the bound.
	logF [][]float64
	// order[z] lists tags by logF[z][w] descending.
	order [][]topics.TagID
	// logPrior[z] = ln p(z); -Inf for a zero-prior topic, which no
	// posterior supports.
	logPrior []float64
	// tagMask[w] has bit z set when p(w|z) > 0, and priorMask when
	// p(z) > 0; tagMask is nil when the model has more than 64 topics.
	tagMask   []uint64
	priorMask uint64

	// Per-Prepare state.
	supported []bool    // topics with p(z|W) > 0
	pzBound   []float64 // min(1, best completion posterior mass) per topic
	scratch   []float64
}

// NewBounder builds a Bounder for queries of size k.
func NewBounder(g *graph.Graph, m *topics.Model, k int) *Bounder {
	Z := m.NumTopics()
	T := m.NumTags()
	b := &Bounder{
		g:         g,
		m:         m,
		k:         k,
		logF:      make([][]float64, Z),
		order:     make([][]topics.TagID, Z),
		logPrior:  make([]float64, Z),
		supported: make([]bool, Z),
		pzBound:   make([]float64, Z),
		scratch:   make([]float64, Z),
	}
	prior := m.Prior()
	if Z <= 64 {
		b.tagMask = make([]uint64, T)
	}
	for z := 0; z < Z; z++ {
		b.logPrior[z] = math.Log(prior[z])
		if b.tagMask != nil && prior[z] > 0 {
			b.priorMask |= 1 << z
		}
		b.logF[z] = make([]float64, T)
		for w := 0; w < T; w++ {
			pwz := m.TagTopic(topics.TagID(w), int32(z))
			if pwz == 0 {
				b.logF[z][w] = math.Inf(-1)
				continue
			}
			if b.tagMask != nil {
				b.tagMask[w] |= 1 << z
			}
			num := math.Log(pwz)
			den := 0.0
			degenerate := false
			for z2 := 0; z2 < Z; z2++ {
				if prior[z2] == 0 {
					continue
				}
				p2 := m.TagTopic(topics.TagID(w), int32(z2))
				if p2 == 0 {
					degenerate = true
					break
				}
				den += prior[z2] * math.Log(p2)
			}
			if degenerate {
				b.logF[z][w] = math.Inf(1)
			} else {
				b.logF[z][w] = num - den
			}
		}
		ord := make([]topics.TagID, T)
		for w := range ord {
			ord[w] = topics.TagID(w)
		}
		lf := b.logF[z]
		sort.Slice(ord, func(i, j int) bool {
			if lf[ord[i]] != lf[ord[j]] {
				return lf[ord[i]] > lf[ord[j]]
			}
			return ord[i] < ord[j]
		})
		b.order[z] = ord
	}
	return b
}

// forK retargets the Bounder at queries of size k, keeping the
// model-only tables: logF costs Z·T·Z logarithms and order Z sorts of T
// tags, neither of which a new k changes. The per-Prepare state needs no
// reset — prepared rewrites all of it.
func (b *Bounder) forK(k int) *Bounder {
	b.k = k
	return b
}

// support packs the topics that can support a superset of w — positive
// prior, p(t|z) > 0 for every t ∈ w — into a bitmask; ok is false when
// the model has more than 64 topics. A tag t with support&tagMask[t] == 0
// completes w into a set with no defined posterior: every topic's Eq. 1
// numerator has an exact zero factor. The converse does not hold, since
// a product of positive factors may still underflow to zero.
func (b *Bounder) support(w []topics.TagID) (mask uint64, ok bool) {
	if b.tagMask == nil {
		return 0, false
	}
	mask = b.priorMask
	for _, t := range w {
		mask &= b.tagMask[t]
	}
	return mask, true
}

// Prepare computes the per-topic bound state for a partial tag set W with
// |W| < k and returns an EdgeProber for p+(e|W). The prober is valid until
// the next Prepare call. It reports ok=false when no k-completion of W has
// a defined posterior, in which case every completion has influence exactly
// 1 and the branch can be pruned outright.
func (b *Bounder) Prepare(w []topics.TagID) (Prober, bool) {
	// Partial posterior support: p(z|W) > 0.
	if !b.m.PosteriorInto(w, b.scratch) {
		return Prober{}, false
	}
	return b.prepared(w)
}

// PreparePosterior is Prepare for a caller that already holds p(z|W) —
// typically extended incrementally from a parent set with
// topics.Model.PosteriorExtendInto. post must be the length-NumTopics
// posterior of w; it is copied, so it may be caller scratch.
func (b *Bounder) PreparePosterior(w []topics.TagID, post []float64) (Prober, bool) {
	copy(b.scratch, post)
	return b.prepared(w)
}

// prepareChild prepares an expansion's child: from the parent's posterior
// parentPost extended by the child's last tag (through the childPost
// scratch) when haveParent, from scratch otherwise.
func (b *Bounder) prepareChild(child []topics.TagID, haveParent bool, parentPost, childPost []float64) (Prober, bool) {
	if !haveParent {
		return b.Prepare(child)
	}
	if !b.m.PosteriorExtendInto(parentPost, child[len(child)-1], childPost) {
		return Prober{}, false
	}
	return b.PreparePosterior(child, childPost)
}

// prepared finishes Prepare from the posterior already in b.scratch.
func (b *Bounder) prepared(w []topics.TagID) (Prober, bool) {
	Z := b.m.NumTopics()
	anySupported := false
	for z := 0; z < Z; z++ {
		b.supported[z] = b.scratch[z] > 0
		b.pzBound[z] = 0
	}
	need := b.k - len(w)
	for z := 0; z < Z; z++ {
		if !b.supported[z] {
			continue
		}
		// ln p(z) + Σ_{w∈W} ln f(w,z): finite because p(z|W) > 0 implies
		// p(z) > 0 and every tag of W has p(w|z) > 0; may still be +Inf via
		// degenerate tags.
		sum := b.logPrior[z]
		inf := false
		for _, t := range w {
			lf := b.logF[z][t]
			if math.IsInf(lf, 1) {
				inf = true
				continue
			}
			sum += lf
		}
		// Best completion: the `need` largest ln f values among remaining
		// tags with f > 0 (a completion tag with p(w|z)=0 kills topic z,
		// so if we cannot find `need` positive-f tags, z dies in every
		// completion and contributes nothing).
		taken := 0
		for _, cand := range b.order[z] {
			if taken == need {
				break
			}
			if slices.Contains(w, cand) { // |w| < k: a scan beats a map
				continue
			}
			lf := b.logF[z][cand]
			if math.IsInf(lf, -1) {
				taken = -1 // sorted descending: no more positive-f tags
				break
			}
			if math.IsInf(lf, 1) {
				inf = true
			} else {
				sum += lf
			}
			taken++
		}
		if taken != need {
			continue // topic unreachable by any k-completion
		}
		anySupported = true
		if inf {
			b.pzBound[z] = 1
		} else {
			b.pzBound[z] = math.Min(1, math.Exp(sum))
		}
	}
	if !anySupported {
		return Prober{}, false
	}
	return Prober{b: b}, true
}

// Prober is the Lemma 8 upper-bound edge prober produced by Prepare.
type Prober struct {
	b *Bounder
}

// Weights exposes the prepared per-topic completion bounds pzBound: the
// Lemma 8 weight row the explorer estimates a partial set's bound under,
// in process and on the wire alike (by Eq. 1, the sum branch of Prob).
// The returned slice aliases the Bounder's buffer and is valid until the
// next Prepare call; copy before retaining.
func (p Prober) Weights() []float64 {
	return p.b.pzBound
}

// LiveTopics packs the prepared bound state into a topic bitmask: bit z
// is set when pzBound[z] > 0 (which implies z is supported). The mask
// characterizes edge positivity exactly — Prob(e) > 0 if and only if e
// carries some topic z with p(e|z) > 0 and bit z set: the sum term needs
// such a z directly, and that z, being supported, also makes the max
// term positive. Sibling partial sets frequently share the mask, so it
// doubles as a memoization key for any quantity that depends only on
// which edges are positive (the online loop's reachable-set bound). ok is
// false when the model has more than 64 topics.
func (p Prober) LiveTopics() (mask uint64, ok bool) {
	Z := p.b.m.NumTopics()
	if Z > 64 {
		return 0, false
	}
	for z := 0; z < Z; z++ {
		if p.b.pzBound[z] > 0 {
			mask |= 1 << z
		}
	}
	return mask, true
}

// Prob returns p+(e|W) = min( max_{z∈supp(W)} p(e|z),
// Σ_{z∈supp(W)} p(e|z)·pzBound(z) ), clamped to [0,1].
func (p Prober) Prob(e graph.EdgeID) float64 {
	ids, probs := p.b.g.EdgeTopics(e)
	maxTerm, sumTerm := 0.0, 0.0
	for i, z := range ids {
		if !p.b.supported[z] {
			continue
		}
		pez := probs[i]
		if pez > maxTerm {
			maxTerm = pez
		}
		sumTerm += pez * p.b.pzBound[z]
	}
	bound := math.Min(maxTerm, sumTerm)
	if bound > 1 {
		bound = 1
	}
	return bound
}
