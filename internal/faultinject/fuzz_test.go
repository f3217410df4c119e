package faultinject

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// formatRule renders a rule back into the Parse grammar. Parse splits
// points on ":" and rules on ";", so an accepted point can contain
// neither — the canonical form always re-parses.
func formatRule(r Rule) string {
	var sb strings.Builder
	sb.WriteString(r.Point)
	sb.WriteByte(':')
	if r.Mode == ModeLatency {
		sb.WriteString("latency=" + r.Latency.String())
	} else {
		sb.WriteString(r.Mode.String())
	}
	if r.After != 0 {
		sb.WriteString(":after=" + strconv.Itoa(r.After))
	}
	if r.Count != 0 {
		sb.WriteString(":count=" + strconv.Itoa(r.Count))
	}
	if r.Prob != 0 {
		sb.WriteString(":p=" + strconv.FormatFloat(r.Prob, 'g', -1, 64))
	}
	return sb.String()
}

// FuzzParse exercises the CLI fault-spec grammar: Parse must never
// panic, every accepted rule must satisfy the same validation Enable
// performs, and the canonical re-rendering of an accepted spec must
// re-parse to the identical rule set (the round-trip property that keeps
// the grammar and the formatter in `String` from drifting apart).
func FuzzParse(f *testing.F) {
	f.Add("distrib/roundtrip:error:after=10:count=3;serve/shard/estimate:latency=50ms:p=0.2")
	f.Add("serve/shard/resync:corrupt")
	f.Add("a:drop;b:stall")
	f.Add("p:latency=1h2m3s:p=0.999")
	f.Add("p:error:p=NaN")
	f.Add(";;;")
	f.Add("point:mode=bad")
	f.Add("p:error:after=-1")
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := Parse(spec)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatal("Parse accepted a spec but returned no rules")
		}
		parts := make([]string, len(rules))
		for i, r := range rules {
			if err := r.validate(); err != nil {
				t.Fatalf("accepted rule fails validation: %v", err)
			}
			parts[i] = formatRule(r)
		}
		back, err := Parse(strings.Join(parts, ";"))
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", strings.Join(parts, ";"), err)
		}
		if len(back) != len(rules) {
			t.Fatalf("round trip changed rule count: %d != %d", len(back), len(rules))
		}
		for i := range rules {
			a, b := rules[i], back[i]
			// Prob compares by bits so a NaN probability (ParseFloat
			// accepts "NaN") still round-trips as equal.
			if a.Point != b.Point || a.Mode != b.Mode || a.Latency != b.Latency ||
				a.After != b.After || a.Count != b.Count ||
				math.Float64bits(a.Prob) != math.Float64bits(b.Prob) {
				t.Fatalf("rule %d changed in round trip: %+v != %+v", i, a, b)
			}
		}
	})
}
