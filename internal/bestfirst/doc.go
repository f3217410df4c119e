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
// # Row bounds: bounds ride the round
//
// The dense branch Σ_z p(e|z)·pzBound(z) is an Eq. 1 evaluation with the
// completion-weight vector pzBound standing where a posterior stands. So
// when the estimator implements FrontierEstimator — the three index
// families and a coordinator's remote adapter — the bound of a partial
// set is literally one more row of an EstimateFrontier call: at every
// expansion the explorer prepares each partial child (posterior extended
// incrementally from the parent) and copies its pzBound into a row of
// the round (see Rounds). Children whose bound cannot beat the m-th best
// never enter the heap; survivors are keyed by their own bound. A child
// with fewer free tags above its last tag than it still needs cannot
// complete in canonical generation order, so it gets no row at all, and
// a prefix root is only checked for support: its bound could prune
// nothing, since nothing is recorded when it would be computed.
//
// The row bound drops only the min with the sparse branch (graph.EdgeProb
// clamps at 1), so it is a valid Lemma 8 bound. On an index it is more:
// pzBound(z) ≥ p(z|W') for every completion W', hence the row's edge
// probability is ≥ p(e|W') edge by edge, hence in every RR-Graph — the
// same graphs, the same draws c(e), that will later score W' — the row
// keeps a superset of the live edges of W' and hits whenever W' does. Summed
// per shard over every graph, the bound therefore dominates every
// completion's *estimate*, deterministically, not just its expectation.
// Pruning on it can only discard sets that would have lost anyway, so
// the search remains the exact arg-max over estimates, and — with the
// canonical order below — returns exactly the first m sets of every
// candidate sorted canonically, ties included.
//
// # Estimators without the capability
//
// An online sampler (Lazy, MC, RR, TIM, LT) estimates full sets only. It
// bounds a partial set W by the reachable-set size under positive
// p+(e|W) edges: every live edge of every completion is positive under
// p+, so the count is a true upper bound on every completion's influence,
// where a sampled estimate would only bound it in expectation.
// Prober.LiveTopics characterizes edge positivity by a single topic
// bitmask, so the explorer memoizes that BFS per distinct mask — sibling
// partial sets overwhelmingly share masks — resolves one expansion's
// masks in one word-parallel traversal, and tests edges with one AND
// against a precomputed per-edge topic mask instead of evaluating Lemma
// 8 arithmetic. A model with more than 64 topics has no mask; its bounds
// fall back to one BFS under Prober.Prob each.
//
// # Rounds
//
// Under a FrontierEstimator the explorer works in rounds. A round pops
// heap entries and stages all their children as rows of one
// EstimateFrontier call: the Eq. 1 posterior of each full-size child, the
// bound row of each partial one. Full sets are thus estimated at the
// expansion that forms them rather than when popped; Algo 5 estimates
// every popped full set unconditionally, so this only moves the
// estimate earlier. The results are handled in two steps: every full
// set is recorded, then every bound is admitted or pruned against the
// threshold those full sets raised. No row is ever stopped early: every
// estimate, full set or bound, is the full count over the user's
// RR-Graphs.
//
// How many entries a round takes is the estimator's to say
// (RoundSizer): a coordinator, whose every call is a scatter to every
// shard, asks for 64 rows — one masked-scan word — and the round takes
// entries while the staged rows plus the next entry's children fit,
// always taking the first. That roughly halves a query's scatters. An
// in-process estimator pays per row, not per call, so its rounds are one
// expansion each: wider rounds there cost rows and time.
//
// # Model work and user work
//
// Some of a query's work depends on the tag-topic model and k alone, so
// an Explorer does it once rather than per user. Per explorer: the
// Bounder's log-factor tables and sorted completion orders, and one topic
// bitmask per tag (models with at most 64 topics). Per explorer and k:
// the root round of an empty-prefix query. The root is that round's only
// entry, and expanding it reads neither the user, m nor the threshold, so
// its rows (Lemma 8 bound rows, or posteriors when k = 1), its
// PrunedUnsupported count and the undefined full sets it records at
// influence 1 are memoised on the first query at k and copied into the
// round arena on every later one — T−k+1 rows of Z floats, 7.5 KB at
// T = 50, Z = 20, k = 3. Prefix roots and every later round are per
// user: their rows depend on which entries the user's estimates admit.
// Deeper rows are not memoised; all of them together would cost about
// T²·Z floats per k.
//
// Two per-user steps are cheaper for the same reason. A full child whose
// tag's topic mask is disjoint from the topics its parent's tags all
// support has an exact zero in every topic's Eq. 1 numerator, so expand
// records it at influence 1 without a PosteriorInto; the converse does not
// hold (a product of positive factors may underflow), so an intersecting
// child still goes through PosteriorInto. And once the heap's top is cut,
// the whole heap is — cut is monotone in the heap order — so the round
// loop filters it in one pass instead of popping entry by entry.
//
// # Answer order
//
// Answers are in canonical order: influence descending, then sorted tag
// IDs ascending. record inserts in that order, and the round loop prunes
// in it: an entry W with bound ub is pruned iff ub is below the m-th
// best influence, or equals it and W's lexicographically smallest
// completion — W plus the smallest free tags above its last tag — does
// not sort before the m-th best's tags. Since every completion estimates
// at most ub, the answer is the head of the canonical order of all
// candidates whatever the pop order, so rounds of any width — a
// coordinator's and an in-process engine's — return the same sets. On
// the round path the heap pops equal bounds in ascending tag order,
// which reaches the canonically first of a tie early and keeps the
// tie-break pruning effective.
//
// # Determinism
//
// The explorer itself is deterministic: the heap orders by bound with
// deterministic tie-breaking, and all randomness lives in the
// estimators' seeded PRNGs. Without the frontier capability the online
// loop keeps its historical pop order, prune rule and RNG consumption
// (an online estimate is sampled, not a deterministic dominator, so the
// canonical tie-break prune would buy nothing there); its answers are
// recorded in canonical order too. An Explorer is single-goroutine
// scratch; clone one per worker.
package bestfirst
