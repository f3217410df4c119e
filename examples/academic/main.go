// Academic: the paper's Sec. 7.5 case study. Researchers on a synthetic
// co-authorship network ask which keywords describe their most influential
// work; the planted ground truth scores the answers the way the paper's
// human annotators did (Table 4). Run with:
//
//	go run ./examples/academic
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"pitex"
)

func main() {
	net, model, researchers, err := pitex.GenerateCaseStudy(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-authorship network: %d users, %d edges, %d tags\n\n",
		net.NumUsers(), net.NumEdges(), model.NumTags())

	engine, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        pitex.StrategyIndexPruned,
		Seed:            1,
		MaxIndexSamples: 100000,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-18s  %-62s  %s\n", "researcher", "inferred selling points (k=5)", "accuracy")
	total := 0.0
	for _, r := range researchers {
		res, err := engine.Query(context.Background(), pitex.Request{User: r.User, K: 5})
		if err != nil {
			log.Fatal(err)
		}
		acc := pitex.CaseAccuracy(model, r, res.Tags)
		total += acc
		fmt.Printf("%-18s  %-62s  %.2f\n", r.Name, strings.Join(res.TagNames, ", "), acc)
	}
	fmt.Printf("\naverage accuracy: %.2f (the paper's annotator survey averaged 0.78)\n",
		total/float64(len(researchers)))
}
