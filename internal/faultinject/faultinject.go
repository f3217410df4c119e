// Package faultinject provides named failpoints with seeded,
// deterministic fault schedules for robustness testing.
//
// Production code threads Eval calls through the spots that talk to the
// network or commit state (one per named point). When no plan is armed —
// the normal case — Eval is a single atomic pointer load returning the
// zero Outcome, so the points can stay compiled in everywhere, including
// release builds. Tests and the chaos harness arm a plan with Enable
// (or the -faults CLI flag, parsed by Parse), run the scenario, and
// Disable it again.
//
// Determinism: whether a rule fires on its n-th eligible hit is a pure
// function of (plan seed, rule index, hit number) — no shared mutable
// RNG state — so schedules replay identically across runs and are safe
// under concurrency. The only per-rule mutable state is an atomic hit
// counter; the interleaving of hits across goroutines is the scheduler's,
// but for the single-threaded drivers used in tests the schedule is
// exactly reproducible.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pitex/internal/rng"
)

// Point names for the failpoints instrumented across the codebase.
// Keeping them here (rather than as loose strings at each site) lets the
// chaos harness and CLI flags reference the same registry.
const (
	// PointRoundTrip guards every HTTP exchange the coordinator-side
	// distrib.Client performs (scatter, hedges, info polls, heals).
	PointRoundTrip = "distrib/roundtrip"
	// PointUpdateFanout guards each per-endpoint delivery of the
	// coordinator's update fan-out.
	PointUpdateFanout = "distrib/update"
	// PointShardEstimate guards the shard server's /shard/estimate
	// handler (server side).
	PointShardEstimate = "serve/shard/estimate"
	// PointShardUpdate guards the shard server's /shard/update handler.
	PointShardUpdate = "serve/shard/update"
	// PointShardResync guards the shard server's /shard/resync handler
	// (both the snapshot read and the install).
	PointShardResync = "serve/shard/resync"
)

// Mode is what happens when a rule fires.
type Mode uint8

const (
	// ModeError fails the operation with an error wrapping ErrInjected.
	ModeError Mode = 1 + iota
	// ModeLatency sleeps Rule.Latency (bounded by the context) and then
	// lets the operation proceed.
	ModeLatency
	// ModeStall blocks until the context is done, then fails with the
	// context's error — a request that consumes its whole deadline.
	ModeStall
	// ModeCorrupt lets the operation proceed but tells the site to pass
	// its payload through CorruptBytes.
	ModeCorrupt
	// ModeDrop fails the operation with an error wrapping both
	// ErrInjected and ErrDropped — a torn connection rather than a
	// well-formed failure response.
	ModeDrop
)

// String names the mode as it appears in schedule specs and logs.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeStall:
		return "stall"
	case ModeCorrupt:
		return "corrupt"
	case ModeDrop:
		return "drop"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ErrInjected is wrapped by every error a firing rule produces, so sites
// and tests can tell injected faults from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrDropped is additionally wrapped by ModeDrop errors.
var ErrDropped = errors.New("faultinject: injected connection drop")

// Rule arms one failpoint. The zero Prob means "always fire" on eligible
// hits; After skips the first hits; Count bounds how many times the rule
// fires (0 = unlimited).
type Rule struct {
	Point   string        // failpoint name, matched exactly
	Mode    Mode          // what to do when the rule fires
	Latency time.Duration // ModeLatency: how long to sleep
	After   int           // skip this many hits before becoming eligible
	Count   int           // fire on at most this many eligible hits (0 = unlimited)
	Prob    float64       // per-eligible-hit fire probability; <=0 or >=1 means always
}

func (r Rule) validate() error {
	if r.Point == "" {
		return errors.New("faultinject: rule with empty point")
	}
	if r.Mode < ModeError || r.Mode > ModeDrop {
		return fmt.Errorf("faultinject: rule for %s has invalid mode %d", r.Point, r.Mode)
	}
	if r.Mode == ModeLatency && r.Latency <= 0 {
		return fmt.Errorf("faultinject: latency rule for %s needs a positive latency", r.Point)
	}
	if r.After < 0 || r.Count < 0 {
		return fmt.Errorf("faultinject: rule for %s has negative after/count", r.Point)
	}
	return nil
}

// Outcome is what Eval tells the instrumented site to do. The zero value
// means "proceed normally".
type Outcome struct {
	// Err, when non-nil, is the failure the site must return without
	// performing the operation. Always wraps ErrInjected.
	Err error
	// Corrupt tells the site to mangle its payload via CorruptBytes
	// before handing it on (response body, wire frame, ...).
	Corrupt bool
}

type armedRule struct {
	Rule
	idx  uint64       // position in the plan, part of the RNG key
	hits atomic.Int64 // total hits observed at this rule
}

type plan struct {
	seed  uint64
	rules []*armedRule
	// byPoint indexes rules by point name; sites on the hot path never
	// scan rules for other points.
	byPoint map[string][]*armedRule
}

var active atomic.Pointer[plan]

// Enabled reports whether a fault plan is currently armed.
func Enabled() bool { return active.Load() != nil }

// Enable arms a fault plan: from now on, Eval consults these rules.
// Replaces any previously armed plan (hit counters restart from zero).
func Enable(seed uint64, rules []Rule) error {
	p := &plan{seed: seed, byPoint: make(map[string][]*armedRule)}
	for i, r := range rules {
		if err := r.validate(); err != nil {
			return err
		}
		ar := &armedRule{Rule: r, idx: uint64(i)}
		p.rules = append(p.rules, ar)
		p.byPoint[r.Point] = append(p.byPoint[r.Point], ar)
	}
	active.Store(p)
	return nil
}

// Disable disarms the active plan; Eval reverts to its zero-cost path.
func Disable() { active.Store(nil) }

// Eval is the instrumented-site entry point. With no plan armed it is a
// single atomic load. With a plan armed it walks the rules for point in
// order: latency/stall rules block in place, error/drop rules
// short-circuit with Outcome.Err, corrupt rules set Outcome.Corrupt.
func Eval(ctx context.Context, point string) Outcome {
	p := active.Load()
	if p == nil {
		return Outcome{}
	}
	return p.eval(ctx, point)
}

func (p *plan) eval(ctx context.Context, point string) Outcome {
	var out Outcome
	for _, r := range p.byPoint[point] {
		n := r.hits.Add(1)
		if n <= int64(r.After) {
			continue
		}
		if r.Count > 0 && n > int64(r.After+r.Count) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 {
			// Deterministic per-hit coin flip: a pure function of the
			// plan seed, the rule's index, and the hit number.
			u := float64(rng.Mix(p.seed, r.idx, uint64(n))>>11) / float64(1<<53)
			if u >= r.Prob {
				continue
			}
		}
		switch r.Mode {
		case ModeError:
			out.Err = fmt.Errorf("%w: %s (hit %d)", ErrInjected, point, n)
			return out
		case ModeDrop:
			out.Err = fmt.Errorf("%w: %w: %s (hit %d)", ErrInjected, ErrDropped, point, n)
			return out
		case ModeStall:
			<-ctx.Done()
			out.Err = fmt.Errorf("%w: stall at %s: %w", ErrInjected, point, ctx.Err())
			return out
		case ModeLatency:
			t := time.NewTimer(r.Latency)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				out.Err = fmt.Errorf("%w: latency at %s: %w", ErrInjected, point, ctx.Err())
				return out
			}
		case ModeCorrupt:
			out.Corrupt = true
		}
	}
	return out
}

// CorruptBytes returns a deterministically mangled copy of b (the input
// is never modified): every 17th byte is XOR-flipped, which reliably
// breaks JSON and the binary index framing while keeping the length —
// the kind of damage a torn proxy buffer produces.
func CorruptBytes(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	for i := 0; i < len(out); i += 17 {
		out[i] ^= 0x5a
	}
	return out
}

// Parse turns a CLI fault spec into rules. The grammar is
// semicolon-separated rules of the form
//
//	point:mode[:key=value[:key=value...]]
//
// where mode is error, drop, stall, corrupt, or latency=DURATION, and the
// optional keys are after=N, count=N, p=FLOAT. Example:
//
//	distrib/roundtrip:error:after=10:count=3;serve/shard/estimate:latency=50ms:p=0.2
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faultinject: rule %q needs point:mode", part)
		}
		r := Rule{Point: fields[0]}
		mode := fields[1]
		if d, ok := strings.CutPrefix(mode, "latency="); ok {
			lat, err := time.ParseDuration(d)
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: bad latency: %v", part, err)
			}
			r.Mode, r.Latency = ModeLatency, lat
		} else {
			switch mode {
			case "error":
				r.Mode = ModeError
			case "drop":
				r.Mode = ModeDrop
			case "stall":
				r.Mode = ModeStall
			case "corrupt":
				r.Mode = ModeCorrupt
			default:
				return nil, fmt.Errorf("faultinject: rule %q: unknown mode %q", part, mode)
			}
		}
		for _, opt := range fields[2:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: rule %q: option %q is not key=value", part, opt)
			}
			switch k {
			case "after":
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad after: %v", part, err)
				}
				r.After = n
			case "count":
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad count: %v", part, err)
				}
				r.Count = n
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad p: %v", part, err)
				}
				r.Prob = f
			default:
				return nil, fmt.Errorf("faultinject: rule %q: unknown option %q", part, k)
			}
		}
		if err := r.validate(); err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("faultinject: empty fault spec")
	}
	return rules, nil
}
