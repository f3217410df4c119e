package rrindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pitex/internal/graph"
	"pitex/internal/rng"
	"pitex/internal/sampling"
	"pitex/internal/topics"
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
	deltas := goldenDeltas()
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

// goldenRowHashes pins the SHA-256 of every Partial row of
// TestPartialRowsGolden: a storage-layout change must leave every row of
// every scan policy exactly as it was, after a build and along a repair
// chain, at one shard and at three.
var goldenRowHashes = map[string]string{
	"S=1/step=0/DELAYMAT":  "dfa516d99e8a9c4726ab7d13027f5e6092afbd585e6e451c732b17873b8ae261",
	"S=1/step=0/INDEXEST":  "97406f999a97b428a191dd1426170e3a3a625090ba294f93803f19741cf87d9b",
	"S=1/step=0/INDEXEST+": "940ea05609568a20ad6cbe166b3270a8aea882ed435cfb131d21a4c0d0b4643f",
	"S=1/step=1/DELAYMAT":  "ad364ccc18ee2d9674b141bc42e640bf595ec26f29733f12fcf69b0bc1123496",
	"S=1/step=1/INDEXEST":  "383092a52a8cc4476373d9cc326d7a5063169141636e6937859f5e836f1ff02f",
	"S=1/step=1/INDEXEST+": "b5a1d2b7174faf0c70473295ba0a558c9251b1c8bd8b4eb882907b7306d0bc59",
	"S=1/step=2/DELAYMAT":  "5e5802ed14ee9fa8ff6779548feab0c89a9788a898143195666991973de5859d",
	"S=1/step=2/INDEXEST":  "ad521a1862096add315bb6e32957bbb0bd7e29880749d88840ff6a038b673a1c",
	"S=1/step=2/INDEXEST+": "b77126e37c1776aa243dc54086f99211253272637ff0d99fb1cd4c470f8a3355",
	"S=1/step=3/DELAYMAT":  "51bf965c3b8e8db40a303ebb7e4fbece561699af518ec66237bb714c747f2740",
	"S=1/step=3/INDEXEST":  "37fce52bfbd88edb68c12e69f110c67c28a3c916b0624c500000be50644686cd",
	"S=1/step=3/INDEXEST+": "0270ef256a9b351a25979563b799803a81c2febe6cbcf8675dbbc8b78b17bc83",
	"S=3/step=0/DELAYMAT":  "c46181f567ba2b152033244b8627e72b7758e304563b4a73f84e9a46c8e6ae5d",
	"S=3/step=0/INDEXEST":  "5f4679e76844ff4d1de8fbd7c077147fc80ce9abb21249ac4ec92c4bc08c3d48",
	"S=3/step=0/INDEXEST+": "0bc076b02bf2a1a4dac50695e15b77d47e5a5ac268613da8e8622f51b6386c16",
	"S=3/step=1/DELAYMAT":  "915d21a0e5c1d15a2ad8ec3dfeef39c93e6558fb7aa18b7113a6302ba5c4720c",
	"S=3/step=1/INDEXEST":  "4d22aa61125a95f037a49847ca12c44680c276af74be66c0a2758b5df4c29418",
	"S=3/step=1/INDEXEST+": "db1a5babd4a130a31ebca81c8536db98b63930913bac60199958dc1d42850cc8",
	"S=3/step=2/DELAYMAT":  "f944650ed11e372fb5a2d60b50be845c59a9970f1421847f3a2824201a61cfad",
	"S=3/step=2/INDEXEST":  "881974947655259618036a742a4becb161561679c07b675f346512961ae29b52",
	"S=3/step=2/INDEXEST+": "586920fdc8e4b08fb22d97bccfe42ccea1d083506a1e2d48123157f0a05b5f8b",
	"S=3/step=3/DELAYMAT":  "26fbdc5607962d007b1f6aec30c74a50ff3c4cb0648031ed4d2b3461201de6b4",
	"S=3/step=3/INDEXEST":  "abb0f0cd8e3c10de56fa25231414e091af22f79b911c52ff73b7ae0300c9e6c0",
	"S=3/step=3/INDEXEST+": "2dfd1642d0f5c61615b4c0d9dcbdb6f66393588484281d5c12cbc9a4b42ce981",
}

// TestPartialRowsGolden scans 64 fixed users against a 12-sibling
// frontier under IndexEst, IndexEst+ and DelayMat at S ∈ {1, 3}, after a
// build and after each step of TestSavedFilesGolden's repair chain, and
// compares the SHA-256 of each family's rows (every field, every shard,
// every sibling) with the pinned value.
func TestPartialRowsGolden(t *testing.T) {
	g := randomGraph(150, 4, 0.05, 0.35, 71)
	opts := BuildOptions{
		Accuracy:        sampling.Options{Epsilon: 0.3, Delta: 100, LogSearchSpace: 2},
		Seed:            13,
		MaxIndexSamples: 2400,
		TrackMembers:    true,
	}
	posteriors := siblingPosteriors(topics.GenerateRandom(rng.New(5), 16, 2, 2), []topics.TagID{1}, 12)
	if len(posteriors) != 12 {
		t.Fatalf("fixture model yielded %d/12 defined posteriors", len(posteriors))
	}
	deltas := goldenDeltas()
	got := map[string]string{}
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
			for name, est := range map[string]*ShardedEstimator{
				"INDEXEST":  NewShardedEstimator(si),
				"INDEXEST+": NewShardedPrunedEstimator(si),
				"DELAYMAT":  NewShardedDelayEstimator(sdm, rng.New(9)),
			} {
				h := sha256.New()
				for i := 0; i < 64; i++ {
					est.scatter(graph.VertexID(i*37%150), nil, posteriors)
					for _, row := range est.rows {
						fmt.Fprintf(h, "%+v\n", row)
					}
				}
				got[fmt.Sprintf("S=%d/step=%d/%s", S, step, name)] = hex.EncodeToString(h.Sum(nil))
			}
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
		if want := goldenRowHashes[key]; h != want {
			t.Errorf("%s: sha256 %s, want %s", key, h, want)
		}
	}
	if len(got) != len(goldenRowHashes) {
		t.Errorf("hashed %d row sets, %d pinned", len(got), len(goldenRowHashes))
	}
}

// goldenDeltas is the golden tests' repair chain: edge retopics, an
// insertion, a deletion and vertex growth over randomGraph(150, ...).
func goldenDeltas() []graph.Delta {
	return []graph.Delta{
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
}
