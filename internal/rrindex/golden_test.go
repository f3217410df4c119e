package rrindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/sampling"
)

// goldenFileHashes pins the SHA-256 of every saved file of
// TestSavedFilesGolden: a storage-layout change must leave the bytes of
// an index and of a DelayMat exactly as they were, after a build and
// along a repair chain.
var goldenFileHashes = map[string]string{
	"S=1/step=0/delaymat": "9dc6b389a443930c09a10036be43046a393ebff3c512be673d6dda5ea4b195f2",
	"S=1/step=0/index":    "fd32672326c5f9c86552208e91ffc1100d6dc40ed4a08343d0767c1076f74eb5",
	"S=1/step=1/delaymat": "eab9b06c2e8591a3f63ec0b0a7b736b1dbb08ab2ef8785eccbf7fe015ede5280",
	"S=1/step=1/index":    "f635ee395b48386538da3768cbfc2d4f2b84a5351308f616533ff646d59704b9",
	"S=1/step=2/delaymat": "9554d3944c0ec6df5eed8dfb78a86ac0e88d2065bd70ab29faaac18ce4acf14a",
	"S=1/step=2/index":    "ec4986a36828019485ef40caeb7fb02514ebd88117e332b26a9af37ae7ee3078",
	"S=1/step=3/delaymat": "134984ebf7b6af308aba88936ae09bbfb0792d2214760532a11fcd7fa64c4e90",
	"S=1/step=3/index":    "fd7624b12ce3903eb51f2913f067e54e189817a5007018d3d41ded1720e5685c",
	"S=3/step=0/delaymat": "c90bc07539b87b279abc0005c22962a3f7ac2d51ac2f432b8318bc684b822f1a",
	"S=3/step=0/index":    "7beec088464b7de4dca8fda18c81753c4282d1c53c03957e0b91d6343418eacc",
	"S=3/step=1/delaymat": "03b647e737f9ef44a90252f590cf104b95381f9d1a878babf07c190e1c957887",
	"S=3/step=1/index":    "5a8e0ae8371d985d4ba2ad2dd652804c46d2a1ff1870c44e12686beb01269944",
	"S=3/step=2/delaymat": "c0aef2b8490142d76ff12b380754d0d782d7afa148785dc9cc441907e9dbc4f4",
	"S=3/step=2/index":    "38272515a2517fcffe868d25e0a21e73ba95b0da854e842c8bd12aa2b1ab1f03",
	"S=3/step=3/delaymat": "95e1e5adffa5288065734adb92e8b3660dad8a58c4121e5d0559ef110106256c",
	"S=3/step=3/index":    "06eb480244b967b5dc1f7d4790defb9a4ff012fe6370f6ad029a5129ffae4895",
}

// TestSavedFilesGolden builds an index and a DelayMat over a fixed
// random graph at S ∈ {1, 3}, repairs both through three update batches
// (edge retopics, an insertion, a deletion, vertex growth), and compares
// the SHA-256 of WriteSharded's and WriteShardedDelayMat's output at each
// step with the pinned value.
func TestSavedFilesGolden(t *testing.T) {
	g := randomGraph(150, 4, 0.05, 0.35, 71)
	opts := BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:            13,
		MaxIndexSamples: 2400,
		TrackMembers:    true,
	}
	deltas := []graph.Delta{
		{RetopicEdges: []graph.EdgeRetopic{{Edge: 5, Topics: []graph.TopicProb{{Topic: 0, Prob: 0.8}}}}},
		{
			AddVertices: 6,
			DeleteEdges: []graph.EdgeID{17},
			InsertEdges: []graph.EdgeInsert{{From: 3, To: 151, Topics: []graph.TopicProb{{Topic: 1, Prob: 0.6}}}},
		},
		{
			AddVertices:  2,
			RetopicEdges: []graph.EdgeRetopic{{Edge: 40, Topics: []graph.TopicProb{{Topic: 1, Prob: 0.3}}}},
		},
	}
	got := map[string]string{}
	hash := func(key string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[key] = hex.EncodeToString(sum[:])
	}
	for _, S := range []int{1, 3} {
		si, err := BuildSharded(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildSharded: %v", S, err)
		}
		sdm, err := BuildShardedDelayMat(g, opts, S)
		if err != nil {
			t.Fatalf("S=%d BuildShardedDelayMat: %v", S, err)
		}
		cur := g
		for step := 0; ; step++ {
			hash(fmt.Sprintf("S=%d/step=%d/index", S, step), func(b *bytes.Buffer) error { return WriteSharded(b, si) })
			hash(fmt.Sprintf("S=%d/step=%d/delaymat", S, step), func(b *bytes.Buffer) error { return WriteShardedDelayMat(b, sdm) })
			if step == len(deltas) {
				break
			}
			ng, info := applyDelta(t, cur, deltas[step])
			ropts := opts
			ropts.Seed = opts.Seed + uint64(step+1)*977
			if si, _, err = si.Repair(ng, ropts, info.TouchedHeads, deltas[step].AddVertices); err != nil {
				t.Fatalf("S=%d step %d index Repair: %v", S, step, err)
			}
			if sdm, _, err = sdm.Repair(ng, ropts, info.TouchedHeads, deltas[step].AddVertices); err != nil {
				t.Fatalf("S=%d step %d DelayMat Repair: %v", S, step, err)
			}
			cur = ng
		}
	}
	for key, h := range got {
		if want := goldenFileHashes[key]; h != want {
			t.Errorf("%s: sha256 %s, want %s", key, h, want)
		}
	}
	if len(got) != len(goldenFileHashes) {
		t.Errorf("hashed %d files, %d pinned", len(got), len(goldenFileHashes))
	}
}
