package serve

import (
	"net/url"
	"testing"
)

// FuzzQueryParams checks parseQueryArgs against url.Values.Get on
// arbitrary raw queries: every /selling-points and /audience parameter
// reads as the first value url.ParseQuery keeps for it, decoded the same
// way.
func FuzzQueryParams(f *testing.F) {
	f.Add("user=12&k=3")
	f.Add("users=1,2,3&k=2&m=1")
	f.Add("user=0&k=3&prefix=1%2C4&trace=1&explain=1")
	f.Add("k=&k=5&user=%31")             // the first value wins, empty included
	f.Add("a;b=1&user=2&us%65r=3")       // ';' pairs skipped, escaped keys decoded
	f.Add("user=%zz&user=4&m=1+2&k=%2B") // a bad escape skips its pair
	f.Add("user=0&tags=2%2C3&m=3&samples=500&trace=1")
	f.Add("&&=&user&k=7=8")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		q := parseQueryArgs(raw)
		vals, _ := url.ParseQuery(raw)
		for _, c := range []struct{ key, got string }{
			{"k", q.k}, {"m", q.m}, {"user", q.user}, {"users", q.users},
			{"prefix", q.prefix}, {"tags", q.tags}, {"samples", q.samples},
			{"trace", q.trace}, {"explain", q.explain},
		} {
			if want := vals.Get(c.key); c.got != want {
				t.Fatalf("%q: %s = %q, url.Values.Get = %q", raw, c.key, c.got, want)
			}
		}
	})
}
