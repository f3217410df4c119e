// Package sampling implements the online influence estimators of the paper
// — Monte-Carlo forward sampling (MC) and reverse-reachable-set sampling
// (RR) of Sec. 4, lazy propagation sampling (Lazy, Sec. 5.1), and the
// footnote-1 linear threshold samplers, forward (LT) and reverse
// (ReverseLT) — together with the Chernoff-derived sample sizes of
// Lemmas 2-3 (Eq. 2), the martingale early-stopping rule of Algo 2 line
// 17, and the frontier-batch plumbing (FrontierProbeCache) shared with the
// index estimators in internal/rrindex.
//
// The five samplers differ only in how they draw one sample instance.
// Each embeds one driver that does the rest — R_W(u), θ_W = Λ·|R_W(u)|,
// the stopping rule, the mean and the edge-probe count (WorkStats) — and
// supplies only that draw.
//
// # Prober contract
//
// Estimators never evaluate Eq. 1 directly; they are parameterized on an
// EdgeProber, so the same machinery estimates both real tag-set graphs
// (p(e|W), via PosteriorProber) and the best-effort upper-bound graphs
// (p+(e|W), Lemma 8, via bestfirst.Prober). A prober must be deterministic
// and side-effect-free for the duration of one estimation scope: callers may
// probe any edge any number of times, in any order, and cache the answers.
//
// # Cache scoping rules
//
// ProbeCache memoizes a single prober per estimation scope (one candidate
// tag set): Begin bumps an epoch, so invalidation is O(1) and a cache can be
// reused across millions of scopes without clearing. FrontierProbeCache
// widens the scope to a whole frontier expansion: the sibling candidate sets
// produced by expanding one partial set share k-1 tags, so their probability
// rows are computed once per distinct edge per frontier rather than once per
// sibling. The index estimators use only FrontierProbeCache: a single-row
// estimate under an arbitrary prober is a width-1 scope whose EdgeProbGraph
// answers from that prober. Both caches are goroutine-local scratch — never
// share one across estimators.
//
// # Determinism and seed discipline
//
// Estimators are stateful (scratch buffers plus a PRNG) and not safe for
// concurrent use; derive one per goroutine. All randomness flows from the
// seed supplied at construction through splitmix-style derivation — no
// global rand, no time-based seeding — so a (seed, graph, query) triple
// reproduces its estimate bit-for-bit, which the equivalence tests across
// estimator families rely on. Only the online samplers stop early (the
// Algo 2 rule, Options.DisableEarlyStop); the index estimators always
// scan every RR-Graph of the query user.
package sampling
