package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pitex"
)

// numPasses is how many times a workload is set up and measured; every
// end-to-end metric is a median over passes (or pooled across them).
const numPasses = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or median (0 when the
	// metric is a single reading); printed, not part of the result line.
	N int `json:"-"`
}

// e2eResult is the outcome of a workload's measured passes.
type e2eResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// digest hashes the (tag_ids, influence) answers of the first
	// digestOps ops; seed-deterministic unless the workload's estimator
	// is not (see deterministic).
	digest uint64
	// passOpsPerS feeds the report's pass-spread noise row.
	passOpsPerS []float64
}

// deterministic reports whether the workload's answers are a pure
// function of (seed, user, generation). DELAYMAT's are not under
// concurrency: each pool clone recovers RR-Graphs from its own RNG
// stream, so an answer depends on which clone served which users before.
func (w *workload) deterministic() bool { return w.strategy != pitex.StrategyDelay }

// runEndToEnd runs numPasses full set-up + measure cycles with tracing
// off and checks every answer it can.
func runEndToEnd(ctx context.Context, w *workload, seed uint64, seconds float64) (e2eResult, error) {
	res := e2eResult{metrics: map[string]metric{}}
	var (
		p                         *plan
		setups, heaps             []float64
		passes                    []passResult
		last                      *deployment
		budget                    = time.Duration(seconds / numPasses * float64(time.Second))
		latencies                 []float64
		windowRates, windowAllocs []float64
	)
	if w.maxOps > 0 {
		budget = time.Hour // tiny scale: passes are bounded by count alone, so counts repeat
	}
	defer func() {
		if last != nil {
			last.Close()
		}
	}()
	for pass := 0; pass < numPasses; pass++ {
		if last != nil {
			last.Close() // one stack at a time, so live_heap_mb sees a single copy
		}
		start := time.Now()
		d, err := deploy(ctx, w, nil)
		if err != nil {
			return res, err
		}
		last = d
		setup := time.Since(start)
		if p == nil {
			p = newPlan(w, seed, d.net) // harness work, outside set-up time
		}
		start = time.Now()
		if err := warm(ctx, d.front, p); err != nil {
			return res, err
		}
		setup += time.Since(start)
		setups = append(setups, setup.Seconds())
		heaps = append(heaps, liveHeapMB())
		pr := runPass(ctx, d.front, p, w.clients, w.digestOps, budget)
		ops := len(pr.samples)
		res.passOpsPerS = append(res.passOpsPerS, float64(ops)/pr.wall.Seconds())
		rates, kb := windows(pr)
		windowRates, windowAllocs = append(windowRates, rates...), append(windowAllocs, kb...)
		res.attempted += ops
		passes = append(passes, pr)
	}
	if err := checkAnswers(ctx, last, p, passes); err != nil {
		return res, err
	}
	for pi, pr := range passes {
		h := uint64(fnvOffset)
		for _, s := range pr.samples {
			if s.update < 0 {
				if s.failed {
					latencies = append(latencies, failedLatencyMs)
				} else {
					latencies = append(latencies, ms(s.lat))
				}
				if int(s.idx) < w.digestOps {
					h = mixHash(mixHash(h, uint64(s.idx)), s.answer)
				}
			}
			if s.failed {
				res.failed++
				if res.failed <= 5 { // enough to start debugging from
					fmt.Fprintf(os.Stderr, "bench: %s: pass %d op %d (user %d, update %d, generations %d..%d) failed or answered wrongly\n",
						w.name, pi, s.idx, s.user, s.update, s.genLo, s.genHi)
				}
			}
		}
		if pi == 0 {
			res.digest = h
		} else if h != res.digest && w.deterministic() {
			res.failed++ // the passes disagree on the digest prefix
		}
	}
	reads := len(latencies) // quantile sorts in place; the count does not change
	res.metrics["setup_s"] = metric{median(setups), "s", numPasses}
	res.metrics["ops_per_s"] = metric{median(windowRates), "1/s", len(windowRates)}
	res.metrics["latency_p50_ms"] = metric{quantile(latencies, 0.50), "ms", reads}
	res.metrics["latency_p95_ms"] = metric{quantile(latencies, 0.95), "ms", reads}
	res.metrics["live_heap_mb"] = metric{median(heaps), "MB", numPasses}
	// The lower quartile, not the median: a fresh server's clones grow
	// their scratch in whichever windows the largest users so far arrive,
	// so the upper windows hold one-off growth (DELAYMAT: 250-600 KB/op
	// against a steady 155) and how many there are depends on the seed.
	res.metrics["alloc_kb_per_op"] = metric{quantile(windowAllocs, 0.25), "KB", len(windowAllocs)}
	return res, nil
}

// maxWindows bounds the windows one pass is cut into.
const maxWindows = 8

// windows merges a pass's marks into at most maxWindows windows of equal
// mark count and returns each window's throughput (ops/s) and allocation
// (KB per op). ops_per_s and alloc_kb_per_op are quantiles over the windows
// of all passes, not means over a pass: on a shared box whole seconds run
// 20 % slow, and a DELAYMAT pass may or may not meet a hub whose query
// takes two seconds — an order statistic over a few dozen windows forgets
// both. A trailing window of less than half the size is dropped.
func windows(pr passResult) (rates, allocKB []float64) {
	intervals := len(pr.marks) - 1
	per := (intervals + maxWindows - 1) / maxWindows
	for lo := 0; lo < intervals; lo += per {
		hi := min(lo+per, intervals)
		if hi-lo < (per+1)/2 && lo > 0 {
			break
		}
		a, b := pr.marks[lo], pr.marks[hi]
		ops := float64(b.ops - a.ops)
		rates = append(rates, ops/(b.at-a.at).Seconds())
		allocKB = append(allocKB, float64(b.alloc-a.alloc)/1024/ops)
	}
	return rates, allocKB
}

// resultHash is answerHash over an answer held in memory — a pitex.Result's
// or a bestfirst.Result's (tags, influence) — formatted exactly as the HTTP
// handler's JSON encoder formats tag_ids and influence.
func resultHash[T any](tags []T, influence float64) uint64 {
	t, err1 := json.Marshal(tags)
	inf, err2 := json.Marshal(influence)
	if err1 != nil || err2 != nil {
		return 0 // a non-finite influence; never equals a parsed answer
	}
	return answerHash(t, inf)
}

// referenceUsers is how many distinct users per generation are re-queried
// on a reference engine after the passes.
const referenceUsers = 24

// referenceEngine returns the engine whose direct answers the HTTP
// answers must equal. A fleet's reference is an in-process engine over
// the same three-shard layout; its early stop is disabled because a
// coordinator estimates one candidate per scatter and never stops a scan
// early, while an in-process sharded engine batches siblings and may.
func referenceEngine(d *deployment) (*pitex.Engine, error) {
	if !d.w.fleet {
		return d.engine, nil
	}
	opts := d.opts
	opts.DisableEarlyStop = true
	return pitex.NewEngine(d.net, d.model, opts)
}

// checkAnswers marks wrong answers as failed ops, in place:
//
//   - deterministic workloads: the same (user, generation) must always
//     produce the same answer, across clients and passes, and the first
//     referenceUsers users must equal a direct query on a reference engine;
//   - update-mix: a read is checked against the lockstep reference chain
//     at every generation it may have raced (genLo..genHi);
//   - DELAYMAT: the reported influence must be within the (ε, δ) band
//     [(1-ε)/(1+ε), (1+ε)/(1-ε)] of a reference clone's.
func checkAnswers(ctx context.Context, d *deployment, p *plan, passes []passResult) error {
	w := d.w
	ref, err := referenceEngine(d)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	users, _ := p.distinctUsers(referenceUsers)
	inRef := make(map[int32]bool, len(users))
	for _, u := range users {
		inRef[int32(u)] = true
	}
	maxGen := int32(0)
	for _, pr := range passes {
		for _, s := range pr.samples {
			if s.update < 0 && s.genHi > maxGen {
				maxGen = s.genHi
			}
		}
	}
	type key struct{ user, gen int32 }
	type refAnswer struct {
		hash      uint64
		influence float64
	}
	table := make(map[key]refAnswer)
	for g := int32(0); g <= maxGen; g++ {
		if g > 0 {
			if ref, _, err = ref.ApplyUpdates(p.batches[g-1].batch()); err != nil {
				return fmt.Errorf("reference update %d: %w", g, err)
			}
		}
		clone := ref.Clone() // pool workers are clones; so is the reference
		for _, u := range users {
			r, err := clone.QueryTopCtx(ctx, u, queryK, 1)
			if err != nil {
				return fmt.Errorf("reference query user %d: %w", u, err)
			}
			table[key{int32(u), g}] = refAnswer{resultHash(r.Tags, r.Influence), r.Influence}
		}
	}
	eps := d.opts.Epsilon
	lo, hi := (1-eps)/(1+eps), (1+eps)/(1-eps)
	seen := make(map[key]uint64)
	for _, pr := range passes {
		for i := range pr.samples {
			s := &pr.samples[i]
			if s.update >= 0 || s.failed {
				continue
			}
			if !w.deterministic() {
				if inRef[s.user] {
					q := s.influence / table[key{s.user, 0}].influence
					s.failed = q < lo || q > hi
				}
				continue
			}
			if s.genLo == s.genHi {
				k := key{s.user, s.genLo}
				if first, ok := seen[k]; !ok {
					seen[k] = s.answer
				} else if first != s.answer {
					s.failed = true
				}
			}
			if inRef[s.user] {
				ok := false
				for g := s.genLo; g <= s.genHi; g++ {
					ok = ok || table[key{s.user, g}].hash == s.answer
				}
				s.failed = s.failed || !ok
			}
		}
	}
	return nil
}
