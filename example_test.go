package pitex_test

import (
	"context"
	"fmt"
	"log"

	"pitex"
)

// buildFig2 constructs the paper's Fig. 2 running example.
func buildFig2() (*pitex.Network, *pitex.TagModel) {
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
	model, err := pitex.NewTagModel(4, 3)
	if err != nil {
		log.Fatal(err)
	}
	rows := [][3]float64{{0.6, 0.4, 0}, {0.4, 0.6, 0}, {0, 0.4, 0.6}, {0, 0.4, 0.6}}
	names := []string{"w1", "w2", "w3", "w4"}
	for w, row := range rows {
		model.SetTagName(w, names[w])
		for z, p := range row {
			if err := model.SetTagTopic(w, z, p); err != nil {
				log.Fatal(err)
			}
		}
	}
	return net, model
}

// ExampleEngine_Query answers the paper's running example: the two tags
// maximizing user u1's influence are {w3, w4}.
func ExampleEngine_Query() {
	net, model := buildFig2()
	engine, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        pitex.StrategyIndex,
		Epsilon:         0.1,
		Delta:           500,
		Seed:            1,
		MaxIndexSamples: 50000,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Query(context.Background(), pitex.Request{User: 0, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.TagNames)
	// Output: [w3 w4]
}

// ExampleEngine_Query_prefix pins tag w1 and asks for the best
// completion.
func ExampleEngine_Query_prefix() {
	net, model := buildFig2()
	engine, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        pitex.StrategyIndex,
		Epsilon:         0.1,
		Delta:           500,
		Seed:            1,
		MaxIndexSamples: 50000,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Query(context.Background(), pitex.Request{User: 0, K: 2, Prefix: []int{0}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Tags[0] == 0, len(res.Tags))
	// Output: true 2
}
