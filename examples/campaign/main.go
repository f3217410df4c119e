// Campaign: the paper's introductory scenario (Fig. 1). A synthetic
// retweet network carries four candidates' standpoints as hashtags; each
// campaign asks PITEX which standpoints are its "selling points" — the
// hashtags whose posts would influence the most voters — so the publicity
// team knows where to spend speech time. Run with:
//
//	go run ./examples/campaign
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"pitex"
)

// Issues are the latent topics of the electorate.
var issues = []string{
	"economy", "security", "healthcare", "infrastructure", "education",
}

// Hashtags are the observable tags, each tied to one or two issues.
var hashtags = []struct {
	name    string
	issue   int
	second  int
	overlap float64
}{
	{"income-tax-reduction", 0, -1, 0},
	{"jobs-for-all", 0, 4, 0.3},
	{"small-business", 0, -1, 0},
	{"border-security", 1, -1, 0},
	{"foreign-policy", 1, 0, 0.2},
	{"veterans-affairs", 1, 2, 0.3},
	{"single-payer", 2, -1, 0},
	{"drug-prices", 2, 0, 0.2},
	{"social-security", 2, 4, 0.2},
	{"infrastructure-rebuild", 3, 0, 0.4},
	{"rural-broadband", 3, 4, 0.3},
	{"public-transit", 3, -1, 0},
	{"student-debt", 4, 0, 0.3},
	{"teacher-pay", 4, -1, 0},
	{"stem-funding", 4, 3, 0.2},
}

func main() {
	const (
		numCandidates = 4
		votersPerBase = 400
		numVoters     = numCandidates * votersPerBase
	)
	rnd := rand.New(rand.NewSource(7))

	// Vertices: candidates 0..3, then voters. Each candidate has a base
	// that mostly cares about two issues, plus cross-base retweets.
	nb := pitex.NewNetworkBuilder(numCandidates+numVoters, len(issues))
	for c := 0; c < numCandidates; c++ {
		issueA := c % len(issues)
		issueB := (c + 2) % len(issues)
		for i := 0; i < votersPerBase; i++ {
			voter := numCandidates + c*votersPerBase + i
			nb.AddEdge(c, voter,
				pitex.TopicProb{Topic: issueA, Prob: 0.15 + 0.2*rnd.Float64()},
				pitex.TopicProb{Topic: issueB, Prob: 0.05 + 0.1*rnd.Float64()},
			)
			// Voters retweet within the base.
			if i > 0 && rnd.Float64() < 0.5 {
				prev := numCandidates + c*votersPerBase + rnd.Intn(i)
				nb.AddEdge(voter, prev, pitex.TopicProb{Topic: issueA, Prob: 0.1 + 0.2*rnd.Float64()})
			}
		}
	}
	// Sparse cross-base retweets on random issues.
	for i := 0; i < numVoters/2; i++ {
		from := numCandidates + rnd.Intn(numVoters)
		to := numCandidates + rnd.Intn(numVoters)
		if from == to {
			continue
		}
		nb.AddEdge(from, to, pitex.TopicProb{Topic: rnd.Intn(len(issues)), Prob: 0.05 * rnd.Float64()})
	}
	net, err := nb.Build()
	if err != nil {
		log.Fatal(err)
	}

	model, err := pitex.NewTagModel(len(hashtags), len(issues))
	if err != nil {
		log.Fatal(err)
	}
	for w, h := range hashtags {
		model.SetTagName(w, h.name)
		if err := model.SetTagTopic(w, h.issue, 0.5+0.4*rnd.Float64()); err != nil {
			log.Fatal(err)
		}
		if h.second >= 0 {
			if err := model.SetTagTopic(w, h.second, h.overlap); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The campaign war room wants instant answers: use the IndexEst+
	// strategy, paying the offline cost once.
	engine, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        pitex.StrategyIndexPruned,
		Seed:            7,
		MaxIndexSamples: 100000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built in %v over %d users / %d retweet edges\n\n",
		engine.IndexBuildTime, net.NumUsers(), net.NumEdges())

	for c := 0; c < numCandidates; c++ {
		res, err := engine.Query(context.Background(), pitex.Request{User: c, K: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("candidate %d should campaign on: %v\n", c, res.TagNames)
		fmt.Printf("  expected reach %.0f voters, decided in %v (%d tag sets estimated, %d branches pruned)\n",
			res.Influence, res.Elapsed, res.Explain.FullSetsEstimated,
			res.Explain.PrunedUnsupported+res.Explain.PrunedByBound)
	}
}
