package distrib

import (
	"encoding/json"
	"reflect"
	"testing"

	"pitex/internal/fixture"
	"pitex/internal/rrindex"
)

// FuzzWireDecode exercises the shard-protocol wire decoding the servers
// and the client perform on bytes from the network: JSON into the wire
// structs, probe validation and materialization, and update re-staging.
// The same holds for both forms of the estimate exchange: a request that
// validates is exactly one form with topic-wide rows, and a frontier
// response that passes the client's check can be gathered positionally —
// ragged rows, foreign or mixed shard ids never get that far.
// None of it may panic on arbitrary input, and the canonical form of an
// accepted update must be a fixed point of the re-staging round trip
// (RequestToBatch then BatchToRequest), since that is exactly the path a
// coordinator-staged batch takes through every shard server.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"user":3,"generation":1,"probe":{"posterior":[0.5,0.5]}}`))
	f.Add([]byte(`{"user":0,"probe":{"bound_supported":[true,false],"bound_weights":[1,0.25]}}`))
	f.Add([]byte(`{"probe":{"posterior":[1],"bound_weights":[1]}}`))
	f.Add([]byte(`{"generation":2,"add_users":1,"insert_edges":[{"from":9,"to":0,"probs":[{"topic":0,"prob":0.5}]}]}`))
	f.Add([]byte(`{"generation":2,"delete_edges":[{"from":0,"to":1}],"set_edges":[{"from":1,"to":2,"probs":[]}]}`))
	f.Add([]byte(`{"generation":1,"add_users":-4}`))
	f.Add([]byte(`{"generation":3,"total_shards":2,"strategy":"INDEXEST","network":"bm90IGEgZ3JhcGg=","shards":[{"shard":0,"users":1,"index":"AAAA"}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"user":3,"generation":1,"frontier":[[0.5,0.5],[0.25,0.75]]}`))
	f.Add([]byte(`{"user":3,"frontier":[[0.5,0.5],[1]],"probe":{"posterior":[1,0]}}`))
	f.Add([]byte(`{"generation":1,"frontier":[[{"shard":0,"hits":3,"samples":4,"contained":5,"theta":100,"users":10},{"shard":0,"hits":1,"theta":100,"users":10}],[{"shard":1,"theta":50,"users":5},{"shard":1,"theta":50,"users":5}]]}`))
	f.Add([]byte(`{"frontier":[[{"shard":0,"theta":100,"users":10}],[{"shard":1,"theta":50,"users":5},{"shard":0}]]}`))
	f.Add([]byte(`{"frontier":[[],[{"shard":7}]],"partials":[{"shard":0}]}`))
	g := fixture.Graph()
	f.Fuzz(func(t *testing.T, data []byte) {
		var er EstimateRequest
		if err := json.Unmarshal(data, &er); err == nil {
			if err := er.Probe.Validate(); err == nil {
				if p, err := er.Probe.Prober(g); err != nil || p == nil {
					t.Fatalf("validated probe failed to materialize: %v", err)
				}
			}
			if err := er.Validate(g.NumTopics()); err == nil {
				if (len(er.Frontier) > 0) == (er.Probe.Validate() == nil) {
					t.Fatalf("validated request is not exactly one form: %+v", er)
				}
				for _, row := range er.Frontier {
					if len(row) != g.NumTopics() {
						t.Fatalf("validated frontier row has %d values for %d topics", len(row), g.NumTopics())
					}
				}
			}
		}

		// What the client does with a frontier response from the network,
		// for a two-shard group and the response's own apparent width: an
		// accepted response folds without panicking, one estimate per
		// sibling, every row whole.
		var resp EstimateResponse
		if err := json.Unmarshal(data, &resp); err == nil && len(resp.Frontier) > 0 {
			width := len(resp.Frontier[0])
			if err := resp.check([]int{0, 1}, width); err == nil && width > 0 {
				if len(resp.Frontier) != 2 || resp.Frontier[0][0].Shard == resp.Frontier[1][0].Shard {
					t.Fatalf("accepted frontier does not cover shards {0,1} once each: %+v", resp.Frontier)
				}
				for _, row := range resp.Frontier {
					if len(row) != width {
						t.Fatalf("accepted a ragged frontier: %+v", resp.Frontier)
					}
				}
				if got := rrindex.GatherFrontierPartials(resp.Frontier); len(got) != width {
					t.Fatalf("gathered %d estimates for %d siblings", len(got), width)
				}
			}
		}

		var ur UpdateRequest
		if err := json.Unmarshal(data, &ur); err == nil {
			b, err := RequestToBatch(ur)
			if err == nil {
				canonical := BatchToRequest(b, ur.Generation)
				b2, err := RequestToBatch(canonical)
				if err != nil {
					t.Fatalf("canonical update rejected on re-staging: %v", err)
				}
				if again := BatchToRequest(b2, ur.Generation); !reflect.DeepEqual(canonical, again) {
					t.Fatalf("re-staging is not a fixed point:\n%+v\n%+v", canonical, again)
				}
			}
		}

		// The remaining wire shapes have no semantics beyond JSON, but the
		// client decodes them from untrusted responses — they must decode
		// or error, never panic.
		var ir InfoResponse
		_ = json.Unmarshal(data, &ir)
		var rs ResyncState
		_ = json.Unmarshal(data, &rs)
	})
}
