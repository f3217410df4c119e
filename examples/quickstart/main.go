// Quickstart: build a seven-user network by hand (the paper's Fig. 2
// running example), ask PITEX which two tags maximize user u1's influence,
// and print the answer. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pitex"
)

func main() {
	// A tiny retweet network: 7 users, 3 latent topics. Each edge carries
	// p(e|z): how likely the edge fires when the content is about topic z.
	nb := pitex.NewNetworkBuilder(7, 3)
	nb.AddEdge(0, 1, pitex.TopicProb{Topic: 0, Prob: 0.4})
	nb.AddEdge(0, 2, pitex.TopicProb{Topic: 1, Prob: 0.5}, pitex.TopicProb{Topic: 2, Prob: 0.5})
	nb.AddEdge(2, 5, pitex.TopicProb{Topic: 0, Prob: 0.5})
	nb.AddEdge(2, 3, pitex.TopicProb{Topic: 2, Prob: 0.8})
	nb.AddEdge(3, 5, pitex.TopicProb{Topic: 2, Prob: 0.5})
	nb.AddEdge(3, 6, pitex.TopicProb{Topic: 2, Prob: 0.4})
	nb.AddEdge(5, 6, pitex.TopicProb{Topic: 2, Prob: 0.5})
	net, err := nb.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Four tags distributed over the three topics (Fig. 2b).
	model, err := pitex.NewTagModel(4, 3)
	if err != nil {
		log.Fatal(err)
	}
	probs := [][3]float64{{0.6, 0.4, 0}, {0.4, 0.6, 0}, {0, 0.4, 0.6}, {0, 0.4, 0.6}}
	names := []string{"income-tax", "foreign-policy", "infrastructure", "social-security"}
	for w, row := range probs {
		model.SetTagName(w, names[w])
		for z, p := range row {
			if err := model.SetTagTopic(w, z, p); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Default engine: lazy propagation sampling, paper-default ε and δ.
	engine, err := pitex.NewEngine(net, model, pitex.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	res, err := engine.Query(context.Background(), pitex.Request{User: 0, K: 2}) // two best tags for user 0
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("user 0's selling points:", res.TagNames)
	fmt.Printf("expected influence: %.2f of %d users\n", res.Influence, net.NumUsers())
	fmt.Println("query time:", res.Elapsed)

	// Cross-check a specific tag set.
	inf, err := engine.EstimateInfluence(0, []int{0, 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("influence of {income-tax, foreign-policy}: %.3f (exact value is 1.5125)\n", inf)
}
