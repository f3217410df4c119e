// Package bestfirst implements the paper's best-effort exploration
// (Sec. 5.2, Appendix C, Algo 5): a best-first search over partial tag
// sets that prunes every size-k completion of a partial set whose
// influence upper bound cannot beat the m-th best solution found so far.
//
// # Bound derivation
//
// The per-edge upper bound p+(e|W) is Lemma 8's, combining a sparse
// branch (the maximum topic-wise probability among topics still
// supported by W) and a dense branch (a Jensen-inequality bound on the
// best achievable posterior mass of each topic over all k-completions
// of W): p+(e|W) = min(max_{z∈supp(W)} p(e|z), Σ_z p(e|z)·pzBound(z)).
// The dense branch is weighted AM-GM on Eq. 1's denominator,
// Σ_{z'} p(z')·Π_w p(w|z') ≥ Π_{z'} (Π_w p(w|z'))^{p(z')}, which gives
// p(z|W') ≤ p(z)·Π_{w∈W'} f(w,z) with f(w,z) = p(w|z)/Π_{z'} p(w|z')^{p(z')}
// — the prior once per set, as in the posterior; pzBound(z) is that
// product maximized over the completions of W, capped at 1. (Until the
// bounds rode the frontier the prior was multiplied in once per tag,
// which undercuts the posterior on models where every tag carries every
// topic; sparse models never noticed, their denominators vanish and
// pzBound saturates.)
// Because p+(e|W) ≥ p(e|W') for every completion W' ⊇ W, any influence
// estimate under p+ upper-bounds every completion's influence, which is
// what licenses pruning. The Bounder precomputes the per-(tag, topic)
// log factors once per explorer (they depend on the model alone; only k
// changes per query), so Prepare is a top-`need` scan.
//
// # Row bounds: bounds ride the frontier batch
//
// The dense branch Σ_z p(e|z)·pzBound(z) is an Eq. 1 evaluation with the
// completion-weight vector pzBound standing where a posterior stands. So
// when the estimator implements FrontierEstimator — the three index
// families and a coordinator's remote adapter — the bound of a partial
// set is literally one more row of an EstimateFrontier call: at every
// expansion the explorer prepares each partial child (posterior extended
// incrementally from the parent), copies its pzBound into a row, and
// bounds all surviving children in one call with stopping disarmed.
// Children whose bound cannot beat the threshold never enter the heap;
// survivors are keyed by their own bound. A prefix root takes the same
// path as a frontier of one.
//
// The row bound drops only the min with the sparse branch (graph.EdgeProb
// clamps at 1), so it is a valid Lemma 8 bound. On an index it is more:
// pzBound(z) ≥ p(z|W') for every completion W', hence the row's edge
// probability is ≥ p(e|W') edge by edge, hence in every RR-Graph — the
// same graphs, the same draws c(e), that will later score W' — the row
// keeps a superset of the live edges of W' and hits whenever W' does. Summed
// per shard and never stopped early, the bound therefore dominates every
// completion's *estimate*, deterministically, not just its expectation.
// Pruning on it can only discard sets that would have lost anyway, so
// the search remains the exact arg-max over estimates; only the set
// returned among exact ties depends on pop order.
//
// # Estimators without the capability
//
// Prepare returns a Prober valid until the next Prepare call; it
// satisfies sampling.EdgeProber, so an online sampler (Lazy, MC, RR, TIM,
// LT) bounds a popped partial set by estimating under it, lazily — eager
// sampling would reorder RNG consumption. With CheapBounds those
// estimators use the reachable-set size under positive p+(e|W) edges
// instead: Prober.LiveTopics characterizes edge positivity by a single
// topic bitmask, so the explorer memoizes that BFS per distinct mask —
// sibling partial sets overwhelmingly share masks — resolves one
// expansion's masks in one word-parallel traversal, and tests edges with
// one AND against a precomputed per-edge topic mask instead of
// evaluating Lemma 8 arithmetic. CheapBounds governs only these
// estimators; a FrontierEstimator never reads it.
//
// # Frontier batching
//
// Full-size children of one expansion form a batch too, evaluated lazily
// when its first member is popped — pop order, record order and (with
// stopping disabled) every estimate are identical to estimating each
// popped set on its own, because Algo 5 estimates every popped full set
// unconditionally. The batch hands the estimator all sibling posteriors
// at once plus a sampling.StopRule carrying the current pruning
// threshold, enabling frontier-scoped probe caching, bitset hit-testing
// and sequential stopping inside the index estimators (see
// internal/rrindex). Bound rows share the first two and never the third.
//
// # Determinism
//
// The explorer itself is deterministic: the heap orders by bound with
// deterministic tie-breaking via canonical (increasing-tag) generation,
// and all randomness lives in the estimators' seeded PRNGs. An Explorer
// is single-goroutine scratch; clone one per worker.
package bestfirst
