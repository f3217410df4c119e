package distrib

import (
	"encoding/json"
	"reflect"
	"testing"

	"pitex/internal/fixture"
)

// FuzzWireDecode exercises the shard-protocol's JSON decoding, which the
// servers and the client perform on bytes from the network: JSON into the
// wire structs, probe validation and materialization, and update
// re-staging. The frontier form has no JSON spelling (FuzzFrontierFrame
// covers its frame, and holds of it what this target used to hold of
// "frontier" bodies, whose seeds stay here as inputs): whatever the bytes
// say, a JSON request is the per-candidate form and a JSON response
// carries no frontier rows.
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
			if er.Width() != 0 || (er.Validate(g.NumTopics()) == nil) != (er.Probe.Validate() == nil) {
				t.Fatalf("a JSON request is not the per-candidate form alone: %+v", er)
			}
		}
		var resp EstimateResponse
		if err := json.Unmarshal(data, &resp); err == nil && resp.Frontier != nil {
			t.Fatalf("a JSON response carries frontier rows: %+v", resp)
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
