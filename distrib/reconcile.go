package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// The anti-entropy reconciler. An endpoint that misses an update fan-out
// (crash, partition, overload) stays pinned at an old generation and
// answers head-stamped requests with 409 forever — the scatter path
// excludes it, but nothing would ever bring it back. The reconciler is
// that recovery path: a background loop that probes lagging endpoints
// (with per-endpoint jittered backoff between failed attempts) and heals
// them in one of two ways:
//
//   - Journal replay: when every generation in the endpoint's gap is
//     still retained in the coordinator's journal, the missed update
//     bodies are re-POSTed in order. Repairs are deterministic in
//     (batch, generation), so a replayed replica ends up byte-identical
//     to one that never missed the fan-out.
//   - Snapshot resync: when the gap reaches past the journal horizon,
//     the full state (network + owned index slices) is copied from an
//     in-group replica that is at head, via GET then POST /shard/resync.
//     Copying — never rebuilding — preserves byte-identity within the
//     group.

// reconcileLoop runs until Close, healing lagging endpoints every tick.
func (c *Client) reconcileLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.reconcileOnce(time.Now())
		}
	}
}

// reconcileOnce scans the fleet and attempts one heal per lagging, due
// endpoint. Heals run sequentially on the reconciler goroutine: healing
// is rare and bandwidth-heavy (resync ships whole index slices), so one
// transfer at a time is the right degree of pressure on a recovering
// fleet.
func (c *Client) reconcileOnce(now time.Time) {
	head := c.generation.Load()
	for _, g := range c.groups {
		for _, ep := range g.endpoints {
			if ep.gen.Load() >= head || !ep.healDue(now) {
				continue
			}
			if err := c.healEndpoint(c.healCtx, g, ep, head); err != nil {
				c.healFailures.Inc()
				ep.healFailed(time.Now(), c.opts.HealBackoff)
			} else {
				ep.healedOK()
			}
		}
	}
}

// healEndpoint probes one lagging endpoint's true generation and closes
// its gap to head by journal replay or snapshot resync.
func (c *Client) healEndpoint(ctx context.Context, g *group, ep *endpoint, head uint64) error {
	info, err := c.getInfo(ctx, ep)
	if err != nil {
		return err
	}
	if !info.Ready {
		return fmt.Errorf("%s still building its shards", ep.url)
	}
	ep.gen.Store(info.Generation)
	if info.Generation >= head {
		return nil // caught up on its own (or our view was stale)
	}
	if c.journal.covers(info.Generation+1, head) {
		return c.replayJournal(ctx, ep, info.Generation, head)
	}
	return c.resyncFrom(ctx, g, ep, head)
}

// replayJournal re-POSTs the missed update bodies in generation order.
func (c *Client) replayJournal(ctx context.Context, ep *endpoint, from, to uint64) error {
	for gen := from + 1; gen <= to; gen++ {
		body, ok := c.journal.get(gen)
		if !ok {
			return fmt.Errorf("journal no longer covers generation %d", gen)
		}
		rctx, cancel := context.WithTimeout(ctx, c.opts.UpdateDeadline)
		data, err := c.roundTrip(rctx, ep, rpc{method: http.MethodPost, path: "/shard/update", body: body})
		cancel()
		if err != nil {
			return fmt.Errorf("replay of generation %d: %w", gen, err)
		}
		var resp UpdateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("replay of generation %d: bad response: %w", gen, err)
		}
		ep.gen.Store(resp.Generation)
		c.journalReplays.Inc()
	}
	ep.succeed()
	return nil
}

// resyncFrom copies the full shard state from a caught-up replica in the
// same group onto the lagging endpoint. With no in-group source at head
// (the whole group fell behind together, past the horizon) the heal
// fails and retries later — a sibling healed by replay becomes the
// source on a subsequent tick.
func (c *Client) resyncFrom(ctx context.Context, g *group, ep *endpoint, head uint64) error {
	var src *endpoint
	for _, other := range g.endpoints {
		if other != ep && other.gen.Load() >= head {
			src = other
			break
		}
	}
	if src == nil {
		return fmt.Errorf("no in-group source at generation %d to resync %s from", head, ep.url)
	}
	rctx, cancel := context.WithTimeout(ctx, c.opts.UpdateDeadline)
	defer cancel()
	snap, err := c.roundTrip(rctx, src, rpc{method: http.MethodGet, path: "/shard/resync"})
	if err != nil {
		src.fail(time.Now(), failureCooldown)
		return fmt.Errorf("snapshot from %s: %w", src.url, err)
	}
	data, err := c.roundTrip(rctx, ep, rpc{method: http.MethodPost, path: "/shard/resync", body: snap})
	if err != nil {
		return fmt.Errorf("install on %s: %w", ep.url, err)
	}
	var resp ResyncResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("install on %s: bad response: %w", ep.url, err)
	}
	ep.gen.Store(resp.Generation)
	ep.succeed()
	c.resyncs.Inc()
	return nil
}
