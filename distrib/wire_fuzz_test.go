package distrib

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzWireDecode exercises the JSON decoding of the shard protocol's
// control plane, which the servers and the client perform on bytes from
// the network: update re-staging, and the info and resync documents. (An estimate has no JSON spelling; FuzzFrontierFrame covers
// its frame.) None of it may panic on arbitrary input, and the canonical
// form of an accepted update must be a fixed point of the re-staging
// round trip (RequestToBatch then BatchToRequest), since that is exactly
// the path a coordinator-staged batch takes through every shard server.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"generation":1,"total_shards":2,"total_users":7,"strategy":"INDEXEST+","ready":true,"shards":[{"shard":0,"users":4,"theta":100,"graphs":90}]}`))
	f.Add([]byte(`{"total_shards":2,"strategy":"INDEXEST","ready":false}`))
	f.Add([]byte(`{"add_users":1,"delete_edges":[{"from":0,"to":1}],"insert_edges":[{"from":1,"to":0,"probs":[{"topic":0,"prob":0.5}]}]}`))
	f.Add([]byte(`{"generation":3,"total_shards":1,"strategy":"DELAYMAT","shards":[{"shard":0,"users":1,"delay":"AAAA"}]}`))
	f.Add([]byte(`{"generation":2,"add_users":1,"insert_edges":[{"from":9,"to":0,"probs":[{"topic":0,"prob":0.5}]}]}`))
	f.Add([]byte(`{"generation":2,"delete_edges":[{"from":0,"to":1}],"set_edges":[{"from":1,"to":2,"probs":[]}]}`))
	f.Add([]byte(`{"generation":1,"add_users":-4}`))
	f.Add([]byte(`{"generation":4,"set_edges":[{"from":0,"to":1,"probs":[{"topic":99,"prob":2}]}]}`))
	f.Add([]byte(`{"generation":2,"insert_edges":[{"from":-1,"to":0}]}`))
	f.Add([]byte(`{"generation":3,"total_shards":2,"strategy":"INDEXEST","network":"bm90IGEgZ3JhcGg=","shards":[{"shard":0,"users":1,"index":"AAAA"}]}`))
	f.Add([]byte(`{"shards":[{"shard":0,"users":1,"index":"!!"}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
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

		// The remaining documents have no semantics beyond JSON, but the
		// client decodes them from untrusted responses — they must decode
		// or error, never panic.
		var ir InfoResponse
		_ = json.Unmarshal(data, &ir)
		var rs ResyncState
		_ = json.Unmarshal(data, &rs)
	})
}
