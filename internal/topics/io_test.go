package topics

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pitex/internal/rng"
)

func TestModelRoundTrip(t *testing.T) {
	m := GenerateRandom(rng.New(5), 12, 4, 2)
	m.SetTagName(0, "hello world") // name with a space
	m.SetTagName(1, `quote"inside`)
	if err := m.SetPrior([]float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("SetPrior: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.NumTags() != 12 || back.NumTopics() != 4 {
		t.Fatalf("shape changed")
	}
	if back.TagName(0) != "hello world" || back.TagName(1) != `quote"inside` {
		t.Fatalf("names changed: %q %q", back.TagName(0), back.TagName(1))
	}
	for w := 0; w < 12; w++ {
		for z := 0; z < 4; z++ {
			a, b := m.TagTopic(TagID(w), int32(z)), back.TagTopic(TagID(w), int32(z))
			if math.Abs(a-b) > 1e-15 {
				t.Fatalf("p(w=%d|z=%d): %v != %v", w, z, a, b)
			}
		}
	}
	for z := 0; z < 4; z++ {
		if math.Abs(m.Prior()[z]-back.Prior()[z]) > 1e-15 {
			t.Fatalf("prior[%d] changed", z)
		}
	}
}

// TestUnnamedTagsRoundTripAsEmpty: an unnamed tag is served as "tag<w>"
// but written as "" — even after TagName has built the default table — so
// the file round-trips byte for byte and the names come back the same.
func TestUnnamedTagsRoundTripAsEmpty(t *testing.T) {
	m := GenerateRandom(rng.New(7), 4, 2, 1)
	m.SetTagName(1, "named")
	for w := TagID(0); w < 4; w++ {
		m.TagName(w)
	}
	var first bytes.Buffer
	if err := Write(&first, m); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for _, line := range strings.Split(first.String(), "\n")[3:7] {
		named := strings.HasPrefix(line, "1 ")
		if empty := strings.Contains(line, ` "" `); empty == named {
			t.Fatalf("tag line %q: want an empty name exactly for unnamed tags", line)
		}
	}
	back, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for w, want := range []string{"tag0", "named", "tag2", "tag3"} {
		if got := back.TagName(TagID(w)); got != want {
			t.Fatalf("TagName(%d) = %q after the round trip, want %q", w, got, want)
		}
	}
	var second bytes.Buffer
	if err := Write(&second, back); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if second.String() != first.String() {
		t.Fatalf("round trip changed the file:\n%s\nvs\n%s", first.String(), second.String())
	}
}

func TestModelReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "nope\n",
		"missing sizes":  "pitex-tagmodel 1\n",
		"bad sizes":      "pitex-tagmodel 1\nx y\n",
		"missing prior":  "pitex-tagmodel 1\n1 2\n",
		"short prior":    "pitex-tagmodel 1\n1 2\nprior 0.5\n",
		"missing tags":   "pitex-tagmodel 1\n1 2\nprior 0.5 0.5\n",
		"bad tag id":     "pitex-tagmodel 1\n1 2\nprior 0.5 0.5\nx \"a\" 0\n",
		"unquoted name":  "pitex-tagmodel 1\n1 2\nprior 0.5 0.5\n0 name 0\n",
		"bad entry":      "pitex-tagmodel 1\n1 2\nprior 0.5 0.5\n0 \"a\" 1 9 0.5\n",
		"bad prob":       "pitex-tagmodel 1\n1 2\nprior 0.5 0.5\n0 \"a\" 1 0 nope\n",
		"prob above one": "pitex-tagmodel 1\n1 2\nprior 0.5 0.5\n0 \"a\" 1 0 1.5\n",
		"unterminated":   "pitex-tagmodel 1\n1 2\nprior 0.5 0.5\n0 \"a 0\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}
