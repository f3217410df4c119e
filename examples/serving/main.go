// Serving: an HTTP service answering PITEX queries, the deployment shape
// the paper's index strategies are built for ("instantly suggesting
// influential tags once any user on Twitter wishes to post viral ads").
// The RR-Graph index is built once; the pitex/serve subsystem runs an
// engine-clone pool with admission control, a sharded result cache with
// in-flight deduplication, and latency histograms. Run with:
//
//	go run ./examples/serving &
//	curl 'localhost:8437/selling-points?user=12&k=3'
//	curl 'localhost:8437/selling-points?users=1,2,3&k=3'
//	curl 'localhost:8437/audience?user=12&tags=1,4&m=5'
//	curl 'localhost:8437/statsz'
//
// For a configurable production entry point see cmd/pitexserve.
package main

import (
	"log"
	"net/http"
	"time"

	"pitex"
	"pitex/serve"
)

func main() {
	net, model, err := pitex.GenerateDataset("lastfm", 1)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := pitex.NewEngine(net, model, pitex.Options{
		Strategy:        pitex.StrategyIndexPruned,
		Seed:            1,
		MaxIndexSamples: 100000,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("index built in %v (%.2f MB) over %d users",
		engine.IndexBuildTime, float64(engine.IndexMemoryBytes())/(1<<20), net.NumUsers())

	srv, err := serve.New(engine, pitex.ServeOptions{
		PoolSize:     8,
		QueryTimeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Println("listening on :8437")
	serveErr := http.ListenAndServe("localhost:8437", srv.Handler())
	srv.Close()
	log.Fatal(serveErr)
}
