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
	"S=1/step=0/delaymat": "63803236a78fe48896e50a71feb340a3d75c4a9a42d4c56770f354250d718c7b",
	"S=1/step=0/index":    "b12ea56abf8d72c731a4da41cf7e9965dd9eedf1359cb2325ad44c83eeae7368",
	"S=1/step=1/delaymat": "516881819ae067ab0452cde4988f96e4870ad5510b894e686b6c1196a19c399b",
	"S=1/step=1/index":    "d912e70e1496160162eb495151881afe1362008ac4f18755a094c9c137196c72",
	"S=1/step=2/delaymat": "c8bbd38bbf9c95f216ddfe4226a69f2051afe05543addf77ba438f8765562bc5",
	"S=1/step=2/index":    "83dec6280471a787d2a2b8b58fdd454d3a25b1331eecf16fc7b18ccb7c4a35b2",
	"S=1/step=3/delaymat": "6e713b611f90b31b2f7723081744af9787112dcd17202db98000433d833d5cc5",
	"S=1/step=3/index":    "69bb9d13b00d28f68defdc3ddfa21384474e151f4778f76ebe3684d84eb08212",
	"S=3/step=0/delaymat": "e20bfecdf329400fbcf97d3fc978951e97c8d498cd21859daf3fad1e2d5cf756",
	"S=3/step=0/index":    "3d21fd6e0af46a2dbb449d6d412dbbba5d5167b67f2402c987eb9b2bf133121a",
	"S=3/step=1/delaymat": "01d48aa744da93444c7ead3e03a83a9e79607a75217c9e4797a7c6873a1b2ac5",
	"S=3/step=1/index":    "5a41a1f22710d40fb4b5169a6311b18d92d6b276fb7ce980cf01fbcf60374c87",
	"S=3/step=2/delaymat": "28701bb069f531578ca10a5251833e775e4508ca3a3f41a3fb4e8ecfb6dbd854",
	"S=3/step=2/index":    "d8b2c6063a71e76a40eebefc097b9abd24bb1acb437e12b0178c28f1f9726661",
	"S=3/step=3/delaymat": "e3c258a41ae1aa3856de1fd8cdddddf33cc44f2bb39719b111baa629a7b4da00",
	"S=3/step=3/index":    "e8e7f6e52066e5cb1d94b223324df64ed0215a6342c015ab698066af41ca494b",
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
	"S=1/step=0/DELAYMAT":  "a4609b75a6516644ad50cdf95d0e397aa1ce9c4b7d74634f4af4e4584c9bfa20",
	"S=1/step=0/INDEXEST":  "8f92ba698bf50f538900b7fb428aa625b1d8109e9cc7c9bc6afc9fcf2539110c",
	"S=1/step=0/INDEXEST+": "58a1b479df6d5506b0b2d3e2663b9ae891d72dfa6f8c66e9c1a598af4fbab624",
	"S=1/step=1/DELAYMAT":  "cef4b5f5962454097f1bdec5fecb9d73abc8b196a928ff5b80f096a010620ee5",
	"S=1/step=1/INDEXEST":  "172a8ab82764a015f7b8824ca126b6690134bd79bd5049d7d9bdf662a8d59b26",
	"S=1/step=1/INDEXEST+": "78ff4c7abdb922b81bc52c9f4ba642b062e79de94ebe5757231f7744a75c8e7e",
	"S=1/step=2/DELAYMAT":  "70a039343a4d41a15eaa015de44784ca0e1b678ffe9be95ea3c9229d68dcbbdf",
	"S=1/step=2/INDEXEST":  "ecf042f74e3423e8e2e9c3b528ea503c86365f4913aa0826d18748ed305e1699",
	"S=1/step=2/INDEXEST+": "54f7b7ed18b5d823ff0d5ae069b61e79075f23433d6be4aa241cfadee15d6490",
	"S=1/step=3/DELAYMAT":  "4042f549dd8801e238c6d92d6dc4753d764041e20458bb6784ba35748409af8c",
	"S=1/step=3/INDEXEST":  "c0df633f22dd27ede3ef27279e22419e7d2292630118e73d1c88648cff99ac13",
	"S=1/step=3/INDEXEST+": "b0c31fafbe24c1456469a80f248b236940392cda0a355ae9b9e99f9a2d1a8048",
	"S=3/step=0/DELAYMAT":  "5d3391f228f1633af60dca0e8fc9ee2c5c71418edaaac8521b03655667ac6693",
	"S=3/step=0/INDEXEST":  "ef7737a74778b54f8cd7807189840cb61c9387fdbee89ab1afbb7a322194f369",
	"S=3/step=0/INDEXEST+": "1c0105126e1cb0744718f54b0b60e25daaebe19968c75258b201311b49848272",
	"S=3/step=1/DELAYMAT":  "0dfb72f2dd2550ed54bf65a74322774e2cad3315274e84a14f7c18891ce9ee36",
	"S=3/step=1/INDEXEST":  "ba613ad103e0332a9a8f0ad101bcaff8b074c75c12639fd30fc76fb7c6d266f7",
	"S=3/step=1/INDEXEST+": "3b8cb207fd3cb6b07f083b5c0cc1655732e47737472c1657b14bb02d7712debf",
	"S=3/step=2/DELAYMAT":  "14b402c18db89c200598c13fa28ec7e409340d7028bbdb295241c2d6b626a0a8",
	"S=3/step=2/INDEXEST":  "074b45fde7a7ad969c005172742f83f09e4c8aab22345a75049e1ffd6bc3b335",
	"S=3/step=2/INDEXEST+": "90b2ab54f3d557013bc1043d87e9c4ccdd8ac2f2768b04ac485ebb7a26b6f20a",
	"S=3/step=3/DELAYMAT":  "ab251a2adad43c24d22d435ce76d3b2c38ead9c2c9345ef2ddcc210570480ffc",
	"S=3/step=3/INDEXEST":  "18b5b7cf153db7b96d0b10a9a973edf685b47299046008d2471bd4f8d6583b55",
	"S=3/step=3/INDEXEST+": "f971cae6c135ad84312380118f4ddf00054d58e9f03fc35c3efa8f59ef3e1d82",
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
