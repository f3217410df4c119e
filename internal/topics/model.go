// Package topics implements the tag-topic side of the PITEX model
// (paper Sec. 3.1): tag-over-topic probabilities p(w|z), topic priors p(z),
// and the Bayesian posterior p(z|W) of Eq. 1 that converts a candidate tag
// set W into a topic mixture. Combined with per-edge p(e|z) vectors from
// internal/graph, the posterior yields the activation probability
// p(e|W) = Σ_z p(e|z)·p(z|W).
package topics

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pitex/internal/rng"
)

// TagID identifies a tag in [0, NumTags).
type TagID = int32

// Model holds p(w|z) for every tag and topic plus the topic prior p(z).
// p(w|z) values are free parameters in [0,1] (the paper's Fig. 2b table is
// not column-normalized either); only their relative sizes across topics for
// a fixed tag influence the posterior.
type Model struct {
	numTags   int
	numTopics int
	// tagTopic is tag-major: p(w|z) = tagTopic[w*numTopics+z].
	tagTopic []float64
	prior    []float64
	// names holds the names set with SetTagName, "" for an unnamed tag;
	// defaultNames[w] = "tag<w>", built on the first TagName call.
	names        []string
	defaultOnce  sync.Once
	defaultNames []string
}

// NewModel allocates a model with all-zero p(w|z) and a uniform prior.
func NewModel(numTags, numTopics int) (*Model, error) {
	if numTags <= 0 {
		return nil, fmt.Errorf("topics: numTags = %d, want > 0", numTags)
	}
	if numTopics <= 0 {
		return nil, fmt.Errorf("topics: numTopics = %d, want > 0", numTopics)
	}
	m := &Model{
		numTags:   numTags,
		numTopics: numTopics,
		tagTopic:  make([]float64, numTags*numTopics),
		prior:     make([]float64, numTopics),
		names:     make([]string, numTags),
	}
	for z := range m.prior {
		m.prior[z] = 1 / float64(numTopics)
	}
	return m, nil
}

// MustNewModel is NewModel but panics on error; for tests and fixtures.
func MustNewModel(numTags, numTopics int) *Model {
	m, err := NewModel(numTags, numTopics)
	if err != nil {
		panic(err)
	}
	return m
}

// NumTags returns |Ω|.
func (m *Model) NumTags() int { return m.numTags }

// NumTopics returns |Z|.
func (m *Model) NumTopics() int { return m.numTopics }

// SetTagTopic sets p(w|z) = p.
func (m *Model) SetTagTopic(w TagID, z int32, p float64) {
	m.tagTopic[int(w)*m.numTopics+int(z)] = p
}

// TagTopic returns p(w|z).
func (m *Model) TagTopic(w TagID, z int32) float64 {
	return m.tagTopic[int(w)*m.numTopics+int(z)]
}

// TagRow returns the p(w|·) row for tag w. The slice aliases internal
// storage and must not be modified by callers other than model builders.
func (m *Model) TagRow(w TagID) []float64 {
	return m.tagTopic[int(w)*m.numTopics : (int(w)+1)*m.numTopics]
}

// SetPrior replaces the topic prior. It must have NumTopics non-negative
// entries with a positive sum; it is normalized in place.
func (m *Model) SetPrior(prior []float64) error {
	if len(prior) != m.numTopics {
		return fmt.Errorf("topics: prior has %d entries, want %d", len(prior), m.numTopics)
	}
	sum := 0.0
	for _, p := range prior {
		if p < 0 {
			return errors.New("topics: negative prior entry")
		}
		sum += p
	}
	if sum <= 0 {
		return errors.New("topics: prior sums to zero")
	}
	for z, p := range prior {
		m.prior[z] = p / sum
	}
	return nil
}

// Prior returns p(z). The slice aliases internal storage.
func (m *Model) Prior() []float64 { return m.prior }

// SetTagName attaches a human-readable name to tag w.
func (m *Model) SetTagName(w TagID, name string) { m.names[w] = name }

// TagName returns the name of tag w, or "tag<w>" if unnamed.
func (m *Model) TagName(w TagID) string {
	if n := m.names[w]; n != "" {
		return n
	}
	m.defaultOnce.Do(func() {
		m.defaultNames = make([]string, m.numTags)
		for i := range m.defaultNames {
			m.defaultNames[i] = "tag" + strconv.Itoa(i)
		}
	})
	return m.defaultNames[w]
}

// Validate checks every stored probability is in [0,1].
func (m *Model) Validate() error {
	for w := 0; w < m.numTags; w++ {
		for z := 0; z < m.numTopics; z++ {
			p := m.tagTopic[w*m.numTopics+z]
			if p < 0 || p > 1 {
				return fmt.Errorf("topics: p(w=%d|z=%d) = %v out of [0,1]", w, z, p)
			}
		}
	}
	return nil
}

// Density returns the fraction of non-zero p(w|z) entries — the "tag-topic
// probability density" the paper reports per dataset (Sec. 7.3, footnote 7).
func (m *Model) Density() float64 {
	nz := 0
	for _, p := range m.tagTopic {
		if p > 0 {
			nz++
		}
	}
	return float64(nz) / float64(len(m.tagTopic))
}

// PosteriorInto computes p(z|W) of Eq. 1 into dst (length NumTopics) and
// reports whether the posterior is well-defined: ok is false when no topic
// generates every tag in W (zero denominator), in which case dst is zeroed
// and every edge probability under W is 0.
func (m *Model) PosteriorInto(w []TagID, dst []float64) (ok bool) {
	if len(dst) != m.numTopics {
		panic(fmt.Sprintf("topics: posterior dst has %d entries, want %d", len(dst), m.numTopics))
	}
	sum := 0.0
	for z := 0; z < m.numTopics; z++ {
		v := m.prior[z]
		for _, tag := range w {
			v *= m.tagTopic[int(tag)*m.numTopics+z]
			if v == 0 {
				break
			}
		}
		dst[z] = v
		sum += v
	}
	if sum <= 0 {
		for z := range dst {
			dst[z] = 0
		}
		return false
	}
	inv := 1 / sum
	for z := range dst {
		dst[z] *= inv
	}
	return true
}

// PosteriorExtendInto computes p(z|W∪{t}) from an already-computed
// p(z|W): the extended posterior is proportional to base[z]·p(t|z), so
// one rescale-and-renormalize replaces the full product over W∪{t}.
// base need not be normalized (the constant folds into the
// normalization) and may alias dst. Reports ok=false, zeroing dst, when
// the extended posterior is undefined.
func (m *Model) PosteriorExtendInto(base []float64, t TagID, dst []float64) (ok bool) {
	if len(base) != m.numTopics || len(dst) != m.numTopics {
		panic(fmt.Sprintf("topics: posterior extend has %d/%d entries, want %d", len(base), len(dst), m.numTopics))
	}
	row := m.tagTopic[int(t)*m.numTopics : (int(t)+1)*m.numTopics]
	sum := 0.0
	for z, b := range base {
		v := b * row[z]
		dst[z] = v
		sum += v
	}
	if sum <= 0 {
		for z := range dst {
			dst[z] = 0
		}
		return false
	}
	inv := 1 / sum
	for z := range dst {
		dst[z] *= inv
	}
	return true
}

// Posterior is PosteriorInto with a fresh slice.
func (m *Model) Posterior(w []TagID) ([]float64, bool) {
	dst := make([]float64, m.numTopics)
	ok := m.PosteriorInto(w, dst)
	return dst, ok
}

// SupportsTagSet reports whether at least one topic with positive prior
// generates every tag in w, i.e. whether the posterior is well-defined.
// Used by best-effort exploration to discard dead branches without
// estimating anything.
func (m *Model) SupportsTagSet(w []TagID) bool {
	for z := 0; z < m.numTopics; z++ {
		if m.prior[z] == 0 {
			continue
		}
		all := true
		for _, tag := range w {
			if m.tagTopic[int(tag)*m.numTopics+z] == 0 {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// GenerateRandom builds a sparse random model: each tag receives mass on
// topicsPerTag topics, biased so that tags cluster (tag w prefers topic
// w mod numTopics), which yields the low densities the paper measures
// (0.08-0.32). Probabilities are uniform in [0.2, 1).
func GenerateRandom(r *rng.Source, numTags, numTopics, topicsPerTag int) *Model {
	m := MustNewModel(numTags, numTopics)
	if topicsPerTag <= 0 {
		topicsPerTag = 1
	}
	if topicsPerTag > numTopics {
		topicsPerTag = numTopics
	}
	for w := 0; w < numTags; w++ {
		used := map[int32]bool{}
		primary := int32(w % numTopics)
		used[primary] = true
		m.SetTagTopic(TagID(w), primary, 0.2+0.8*r.Float64())
		for len(used) < topicsPerTag {
			z := int32(r.Intn(numTopics))
			if used[z] {
				continue
			}
			used[z] = true
			m.SetTagTopic(TagID(w), z, 0.2+0.8*r.Float64())
		}
	}
	return m
}

// DominantTopic returns the topic maximizing p(w|z) for tag w, with ties
// broken by smaller topic ID; used by the planted case-study accuracy proxy.
func (m *Model) DominantTopic(w TagID) int32 {
	best := int32(0)
	bestP := -1.0
	for z := 0; z < m.numTopics; z++ {
		if p := m.TagTopic(w, int32(z)); p > bestP {
			best, bestP = int32(z), p
		}
	}
	return best
}
