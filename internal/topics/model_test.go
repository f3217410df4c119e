package topics

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pitex/internal/rng"
)

// fig2Model rebuilds the paper's Fig. 2(b) table locally (the shared fixture
// package depends on this package, so tests here construct it directly).
func fig2Model(t *testing.T) *Model {
	t.Helper()
	m := MustNewModel(4, 3)
	rows := [][3]float64{
		{0.6, 0.4, 0.0},
		{0.4, 0.6, 0.0},
		{0.0, 0.4, 0.6},
		{0.0, 0.4, 0.6},
	}
	for w, row := range rows {
		for z, p := range row {
			m.SetTagTopic(TagID(w), int32(z), p)
		}
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(0, 3); err == nil {
		t.Fatal("NewModel(0,3) succeeded")
	}
	if _, err := NewModel(3, 0); err == nil {
		t.Fatal("NewModel(3,0) succeeded")
	}
}

func TestUniformPriorDefault(t *testing.T) {
	m := MustNewModel(2, 4)
	for _, p := range m.Prior() {
		if math.Abs(p-0.25) > 1e-15 {
			t.Fatalf("default prior = %v, want uniform", m.Prior())
		}
	}
}

func TestSetPrior(t *testing.T) {
	m := MustNewModel(2, 3)
	if err := m.SetPrior([]float64{2, 1, 1}); err != nil {
		t.Fatalf("SetPrior: %v", err)
	}
	want := []float64{0.5, 0.25, 0.25}
	for z, p := range m.Prior() {
		if math.Abs(p-want[z]) > 1e-15 {
			t.Fatalf("prior[%d] = %v, want %v", z, p, want[z])
		}
	}
	if err := m.SetPrior([]float64{1, 1}); err == nil {
		t.Fatal("short prior accepted")
	}
	if err := m.SetPrior([]float64{-1, 1, 1}); err == nil {
		t.Fatal("negative prior accepted")
	}
	if err := m.SetPrior([]float64{0, 0, 0}); err == nil {
		t.Fatal("zero prior accepted")
	}
}

// TestFig2PosteriorTable asserts the paper's Fig. 2(b) posterior table.
func TestFig2PosteriorTable(t *testing.T) {
	m := fig2Model(t)
	cases := []struct {
		tags []TagID
		want [3]float64
	}{
		{[]TagID{0, 1}, [3]float64{0.5, 0.5, 0}},
		{[]TagID{0, 2}, [3]float64{0, 1, 0}},
		{[]TagID{0, 3}, [3]float64{0, 1, 0}},
		{[]TagID{1, 2}, [3]float64{0, 1, 0}},
		{[]TagID{1, 3}, [3]float64{0, 1, 0}},
		{[]TagID{2, 3}, [3]float64{0, 0.16 / 0.52, 0.36 / 0.52}},
	}
	for _, tc := range cases {
		got, ok := m.Posterior(tc.tags)
		if !ok {
			t.Fatalf("posterior of %v undefined", tc.tags)
		}
		for z := range tc.want {
			if math.Abs(got[z]-tc.want[z]) > 1e-12 {
				t.Fatalf("posterior(%v)[%d] = %v, want %v", tc.tags, z, got[z], tc.want[z])
			}
		}
	}
}

func TestPosteriorUndefined(t *testing.T) {
	m := fig2Model(t)
	// w1 (z1,z2 only) with w3 (z2,z3 only) leaves z2; but a tag set
	// needing z1 and z3 simultaneously has empty support. Build one:
	// p(w|z) with disjoint supports.
	m2 := MustNewModel(2, 2)
	m2.SetTagTopic(0, 0, 0.5)
	m2.SetTagTopic(1, 1, 0.5)
	post, ok := m2.Posterior([]TagID{0, 1})
	if ok {
		t.Fatal("disjoint-support posterior reported ok")
	}
	for _, p := range post {
		if p != 0 {
			t.Fatalf("undefined posterior not zeroed: %v", post)
		}
	}
	if m2.SupportsTagSet([]TagID{0, 1}) {
		t.Fatal("SupportsTagSet true for disjoint tags")
	}
	if !m.SupportsTagSet([]TagID{0, 1}) {
		t.Fatal("SupportsTagSet false for {w1,w2}")
	}
}

func TestSupportsRespectsZeroPrior(t *testing.T) {
	m := MustNewModel(1, 2)
	m.SetTagTopic(0, 0, 0.9)
	if err := m.SetPrior([]float64{0, 1}); err != nil {
		t.Fatalf("SetPrior: %v", err)
	}
	if m.SupportsTagSet([]TagID{0}) {
		t.Fatal("SupportsTagSet ignored zero prior")
	}
	if _, ok := m.Posterior([]TagID{0}); ok {
		t.Fatal("Posterior ignored zero prior")
	}
}

func TestEmptyTagSetPosteriorIsPrior(t *testing.T) {
	m := fig2Model(t)
	post, ok := m.Posterior(nil)
	if !ok {
		t.Fatal("empty posterior undefined")
	}
	for z, p := range post {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Fatalf("posterior(∅)[%d] = %v, want prior 1/3", z, p)
		}
	}
}

func TestPosteriorNormalizationProperty(t *testing.T) {
	r := rng.New(99)
	f := func(seed uint64, kRaw uint8) bool {
		rr := rng.New(seed)
		m := GenerateRandom(rr, 12, 5, 2)
		k := 1 + int(kRaw)%4
		tags := make([]TagID, 0, k)
		for _, i := range rr.Perm(12)[:k] {
			tags = append(tags, TagID(i))
		}
		post, ok := m.Posterior(tags)
		sum := 0.0
		for _, p := range post {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		if !ok {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-9
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	m := MustNewModel(2, 2)
	m.SetTagTopic(0, 0, 0.5)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	m.SetTagTopic(1, 1, 1.5)
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted p > 1")
	}
	m.SetTagTopic(1, 1, -0.5)
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted p < 0")
	}
}

func TestDensity(t *testing.T) {
	m := MustNewModel(2, 2)
	if d := m.Density(); d != 0 {
		t.Fatalf("empty density = %v", d)
	}
	m.SetTagTopic(0, 0, 0.5)
	if d := m.Density(); math.Abs(d-0.25) > 1e-15 {
		t.Fatalf("density = %v, want 0.25", d)
	}
}

func TestGenerateRandomShape(t *testing.T) {
	r := rng.New(3)
	m := GenerateRandom(r, 50, 20, 2)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d := m.Density()
	want := 2.0 / 20
	if d < want*0.8 || d > want*1.5 {
		t.Fatalf("density = %v, want near %v", d, want)
	}
	// Every tag must have at least one supported topic.
	for w := 0; w < 50; w++ {
		if !m.SupportsTagSet([]TagID{TagID(w)}) {
			t.Fatalf("tag %d unsupported", w)
		}
	}
}

func TestTagNames(t *testing.T) {
	m := MustNewModel(2, 1)
	if got := m.TagName(1); got != "tag1" {
		t.Fatalf("default name = %q", got)
	}
	m.SetTagName(1, "databases")
	if got := m.TagName(1); got != "databases" {
		t.Fatalf("name = %q", got)
	}
}

// TestTagNameConcurrent: engine clones share one model, so the first
// TagName calls that build the default-name table may race each other.
func TestTagNameConcurrent(t *testing.T) {
	m := MustNewModel(64, 2)
	m.SetTagName(5, "five")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := TagID(0); w < 64; w++ {
				want := fmt.Sprintf("tag%d", w)
				if w == 5 {
					want = "five"
				}
				if got := m.TagName(w); got != want {
					t.Errorf("TagName(%d) = %q, want %q", w, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestDominantTopic(t *testing.T) {
	m := fig2Model(t)
	if z := m.DominantTopic(0); z != 0 {
		t.Fatalf("DominantTopic(w1) = %d, want 0", z)
	}
	if z := m.DominantTopic(2); z != 2 {
		t.Fatalf("DominantTopic(w3) = %d, want 2", z)
	}
}

func TestPosteriorIntoPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short dst")
		}
	}()
	m := MustNewModel(2, 3)
	m.PosteriorInto(nil, make([]float64, 2))
}

// TestPosteriorExtendMatchesFull is the incremental-posterior property:
// extending p(z|W) by one tag must agree with the full PosteriorInto
// product over W∪{t} — same support pattern, values equal to rounding —
// for random models, random base sets and every candidate tag,
// including the undefined (all-zero) extension and an unnormalized
// base.
func TestPosteriorExtendMatchesFull(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := GenerateRandom(r, 10, 4, 2)
		base := make([]float64, 4)
		ext := make([]float64, 4)
		full := make([]float64, 4)
		w := []TagID{TagID(r.Intn(10))}
		if r.Intn(2) == 0 {
			w = append(w, TagID(r.Intn(10)))
		}
		if !m.PosteriorInto(w, base) {
			return true // undefined base: nothing to extend
		}
		for tag := 0; tag < 10; tag++ {
			okExt := m.PosteriorExtendInto(base, TagID(tag), ext)
			okFull := m.PosteriorInto(append(w[:len(w):len(w)], TagID(tag)), full)
			if okExt != okFull {
				return false
			}
			for z := range ext {
				if math.Abs(ext[z]-full[z]) > 1e-12 {
					return false
				}
				if !okExt && ext[z] != 0 {
					return false // undefined extension must zero dst
				}
			}
		}
		// An unnormalized base must yield the identical posterior: the
		// scale folds into the normalization constant.
		for z := range base {
			base[z] *= 7.5
		}
		if m.PosteriorExtendInto(base, 3, ext) != m.PosteriorInto(append(w[:len(w):len(w)], 3), full) {
			return false
		}
		for z := range ext {
			if math.Abs(ext[z]-full[z]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPosteriorExtendIntoPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-length base")
		}
	}()
	m := MustNewModel(4, 2)
	m.PosteriorExtendInto(make([]float64, 3), 0, make([]float64, 2))
}

// TestTagRowAliasesModel: the row view must expose exactly the p(w|z)
// entries of the tag.
func TestTagRowAliasesModel(t *testing.T) {
	m := fig2Model(t)
	row := m.TagRow(2)
	if len(row) != m.NumTopics() {
		t.Fatalf("row length %d, want %d", len(row), m.NumTopics())
	}
	for z := range row {
		if row[z] != m.TagTopic(2, int32(z)) {
			t.Fatalf("TagRow(2)[%d] = %v, want %v", z, row[z], m.TagTopic(2, int32(z)))
		}
	}
}
