// Marketing: a business positioning its messaging (paper intro, second
// scenario). On a lastfm-sized social network, a brand account wants the
// product features ("tags") that propagate to the most users, and needs
// the answer fast enough for an interactive dashboard — so the example
// also contrasts online sampling with the index-based strategies the
// paper builds for exactly this use. Run with:
//
//	go run ./examples/marketing
package main

import (
	"fmt"
	"log"
	"strings"

	"pitex"
)

func main() {
	// A mid-sized network with 50 feature tags over 20 interest topics.
	spec, err := pitex.BaseDatasetSpec("lastfm")
	if err != nil {
		log.Fatal(err)
	}
	net, model, err := pitex.GenerateDatasetSpec(spec, 3)
	if err != nil {
		log.Fatal(err)
	}
	// Name a few tags like product features for readability.
	for w, name := range []string{
		"energy-saving", "high-tech", "budget", "premium", "eco-friendly",
		"portable", "family", "gaming", "professional", "outdoor",
	} {
		model.SetTagName(w, name)
	}

	// The brand is a high-out-degree account.
	brand := net.UsersByGroup()["high"][0]
	fmt.Printf("network: %d users, %d edges; brand account: user %d (out-degree %d)\n\n",
		net.NumUsers(), net.NumEdges(), brand, net.OutDegree(brand))

	for _, strategy := range []pitex.Strategy{
		pitex.StrategyLazy,        // online: no index, slower per query
		pitex.StrategyIndexPruned, // index: offline cost, instant queries
		pitex.StrategyDelay,       // tiny index: per-user counters only
	} {
		engine, err := pitex.NewEngine(net, model, pitex.Options{
			Strategy:        strategy,
			Seed:            3,
			MaxSamples:      2000,
			MaxIndexSamples: 50000,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Query(brand, 3)
		if err != nil {
			log.Fatal(err)
		}
		line := fmt.Sprintf("%-10s query %8v", strategy, res.Elapsed.Round(10e3))
		if strategy.NeedsIndex() {
			line += fmt.Sprintf("  (index: %v, %.2f MB)",
				engine.IndexBuildTime.Round(10e3), float64(engine.IndexMemoryBytes())/(1<<20))
		}
		fmt.Println(line)
		fmt.Printf("           features to lead with: %s (reach %.1f users)\n",
			strings.Join(res.TagNames, ", "), res.Influence)
	}
}
