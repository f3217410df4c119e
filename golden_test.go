package pitex

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pitex/internal/rng"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_golden.txt")

// goldenRandomNetwork is a fixed 40-user, 3-topic network with six tags.
func goldenRandomNetwork(t *testing.T) (*Network, *TagModel) {
	t.Helper()
	r := rng.New(77)
	nb := NewNetworkBuilder(40, 3)
	for v := 0; v < 40; v++ {
		for d := 0; d < 3; d++ {
			if to := r.Intn(40); to != v {
				nb.AddEdge(v, to, TopicProb{Topic: r.Intn(3), Prob: 0.1 + 0.5*r.Float64()})
			}
		}
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	model, err := NewTagModel(6, 3)
	if err != nil {
		t.Fatalf("NewTagModel: %v", err)
	}
	for w := 0; w < 6; w++ {
		if err := model.SetTagTopic(w, w%3, 0.7); err != nil {
			t.Fatalf("SetTagTopic: %v", err)
		}
		if err := model.SetTagTopic(w, (w+1)%3, 0.3); err != nil {
			t.Fatalf("SetTagTopic: %v", err)
		}
	}
	return net, model
}

// TestOnlineEnginesGolden pins the answers of the online strategies —
// LAZY, MC and RR under IC, LAZY and RR under LT — on the Fig. 2
// fixture and one random network: tags, influence bit for bit, and the
// whole Explain breakdown. One engine answers every query of a network
// in turn. Regenerate with -update-golden only for a change that means
// to move an answer.
func TestOnlineEnginesGolden(t *testing.T) {
	fn, fm := fig2Network(t)
	rn, rm := goldenRandomNetwork(t)
	networks := []struct {
		name  string
		net   *Network
		model *TagModel
		users []int
	}{
		{"fig2", fn, fm, []int{0, 2, 4}},
		{"random40", rn, rm, []int{0, 5, 11, 23}},
	}
	configs := []struct {
		prop     Propagation
		strategy Strategy
	}{
		{PropagationIC, StrategyLazy},
		{PropagationIC, StrategyMC},
		{PropagationIC, StrategyRR},
		{PropagationLT, StrategyLazy},
		{PropagationLT, StrategyRR},
	}
	var out bytes.Buffer
	for _, nw := range networks {
		for _, c := range configs {
			for _, noStop := range []bool{false, true} {
				opts := testEngineOptions(c.strategy)
				opts.Propagation = c.prop
				opts.MaxSamples = 3000
				opts.DisableEarlyStop = noStop
				en, err := NewEngine(nw.net, nw.model, opts)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				for _, u := range nw.users {
					for k := 1; k <= 2; k++ {
						res, err := en.Query(context.Background(), Request{User: u, K: k})
						if err != nil {
							t.Fatalf("Query(%d, %d): %v", u, k, err)
						}
						fmt.Fprintf(&out, "%s prop=%d %s nostop=%v u=%d k=%d | tags=%v inf=%s | %+v\n",
							nw.name, c.prop, c.strategy, noStop, u, k, res.Tags,
							strconv.FormatFloat(res.Influence, 'g', -1, 64), res.Explain)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "engine_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d differing lines in all", bad)
	}
}
