package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"pitex/internal/faultinject"
)

// TestRoundTripFaultInjection covers the client-side failpoint: error
// rules fail the call before any bytes move, corrupt rules mangle the
// response payload (so decode hardening downstream is exercised), and
// disabling restores clean traffic.
func TestRoundTripFaultInjection(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"generation":7}`))
	}))
	t.Cleanup(srv.Close)
	c := &Client{http: srv.Client(), opts: Options{}.withDefaults()}
	ep, err := newEndpoint(srv.URL, 1)
	if err != nil {
		t.Fatalf("newEndpoint: %v", err)
	}
	info := rpc{method: http.MethodGet, path: "/shard/info"}
	ctx := context.Background()

	// Error rule: the request never reaches the wire.
	if err := faultinject.Enable(1, []faultinject.Rule{
		{Point: faultinject.PointRoundTrip, Mode: faultinject.ModeError, Count: 1},
	}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	t.Cleanup(faultinject.Disable)
	_, err = c.roundTrip(ctx, ep, info)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if hits != 0 {
		t.Fatalf("injected error still reached the server (%d hits)", hits)
	}
	// The Count:1 schedule is spent: the next call goes through clean.
	data, err := c.roundTrip(ctx, ep, info)
	if err != nil || !json.Valid(data) {
		t.Fatalf("post-schedule call: err=%v data=%q", err, data)
	}

	// Corrupt rule: the response arrives, but mangled — a JSON decode
	// downstream must fail rather than trust the payload.
	if err := faultinject.Enable(1, []faultinject.Rule{
		{Point: faultinject.PointRoundTrip, Mode: faultinject.ModeCorrupt, Count: 1},
	}); err != nil {
		t.Fatalf("Enable corrupt: %v", err)
	}
	data, err = c.roundTrip(ctx, ep, info)
	if err != nil {
		t.Fatalf("corrupt round trip errored instead of mangling: %v", err)
	}
	if json.Valid(data) {
		t.Fatalf("corrupt fault produced valid JSON: %q", data)
	}

	faultinject.Disable()
	data, err = c.roundTrip(ctx, ep, info)
	if err != nil || !json.Valid(data) {
		t.Fatalf("post-disable call: err=%v data=%q", err, data)
	}
}

// TestRoundTripShipsDeadlineHeader: a deadline crosses the wire as
// X-Pitex-Deadline-Ms so shard-side admission can act on it — derived
// once per fan-out, so every group of one scatter is shipped the same
// budget: the caller's when that is the tighter one, ShardDeadline's
// otherwise. A call outside a fan-out carries none.
func TestRoundTripShipsDeadlineHeader(t *testing.T) {
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Get(DeadlineHeader))
		mu.Unlock()
		_, _ = w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	c := &Client{http: srv.Client(), opts: Options{ShardDeadline: 2 * time.Second}.withDefaults()}
	for i := 0; i < 3; i++ {
		ep, err := newEndpoint(srv.URL, 1)
		if err != nil {
			t.Fatalf("newEndpoint: %v", err)
		}
		c.groups = append(c.groups, &group{endpoints: []*endpoint{ep}})
	}
	info := rpc{method: http.MethodGet, path: "/shard/info"}

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	for bound, ctx := range map[int64]context.Context{250: ctx, 2000: context.Background()} {
		got = nil
		for i, r := range c.fanOut(ctx, info) {
			if r.err != nil {
				t.Fatalf("fanOut group %d: %v", i, r.err)
			}
		}
		ms, err := strconv.ParseInt(got[0], 10, 64)
		if len(got) != 3 || err != nil || ms <= bound/2 || ms > bound || got[1] != got[0] || got[2] != got[0] {
			t.Fatalf("deadline headers of one fan-out = %q, want one integer in (%d, %d] three times", got, bound/2, bound)
		}
	}

	got = nil
	if _, err := c.roundTrip(ctx, c.groups[0].endpoints[0], info); err != nil {
		t.Fatalf("roundTrip: %v", err)
	}
	if got[0] != "" {
		t.Fatalf("a call outside a fan-out carried the header %q", got[0])
	}
}
