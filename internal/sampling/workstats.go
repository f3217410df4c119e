package sampling

// WorkStats describes how much work an estimator has performed over its
// lifetime — the raw material of EXPLAIN output. Estimators that can
// attribute their cost expose it via a `WorkStats() WorkStats` method
// (an optional interface the engine discovers by type assertion, so
// estimators that predate it keep working untouched).
type WorkStats struct {
	// ProbesEvaluated is the number of edge-probability evaluations
	// (p(e|W) computations) the estimator issued, before caching.
	ProbesEvaluated int64
	// ProbeCacheHits / ProbeCacheMisses split ProbesEvaluated by whether
	// the estimator's ProbeCache answered from memory.
	ProbeCacheHits   int64
	ProbeCacheMisses int64
	// GraphsChecked is the number of pre-sampled RR graphs consulted
	// (index strategies only).
	GraphsChecked int64
	// GraphsPruned is the number of RR graphs skipped by frequency
	// pruning (pruned index strategies only).
	GraphsPruned int64
	// RecoveryAttempts is the number of Algo 4 attempts DelayMat recovery
	// charged to its 8θ+1024 budget, the empty cascades it jumped in bulk
	// included (DelayMat only). Against the RR-Graphs recovered it answers
	// "what does the acceptance rule cost": about θ attempts per
	// recovery whatever the user, since a cascade is accepted with
	// probability |V'|/|V|.
	RecoveryAttempts int64
	// RecoveryCascades is the number of those attempts whose forward
	// cascade was actually simulated — the ones at which the query user
	// fired at least one out-edge (DelayMat only). It answers "what did
	// recovery compute": attempts minus cascades were skipped at no cost.
	RecoveryCascades int64
}

// Add accumulates other into s.
func (s *WorkStats) Add(other WorkStats) {
	s.ProbesEvaluated += other.ProbesEvaluated
	s.ProbeCacheHits += other.ProbeCacheHits
	s.ProbeCacheMisses += other.ProbeCacheMisses
	s.GraphsChecked += other.GraphsChecked
	s.GraphsPruned += other.GraphsPruned
	s.RecoveryAttempts += other.RecoveryAttempts
	s.RecoveryCascades += other.RecoveryCascades
}

// Sub returns s minus other, the per-query delta between two lifetime
// snapshots.
func (s WorkStats) Sub(other WorkStats) WorkStats {
	return WorkStats{
		ProbesEvaluated:  s.ProbesEvaluated - other.ProbesEvaluated,
		ProbeCacheHits:   s.ProbeCacheHits - other.ProbeCacheHits,
		ProbeCacheMisses: s.ProbeCacheMisses - other.ProbeCacheMisses,
		GraphsChecked:    s.GraphsChecked - other.GraphsChecked,
		GraphsPruned:     s.GraphsPruned - other.GraphsPruned,
		RecoveryAttempts: s.RecoveryAttempts - other.RecoveryAttempts,
		RecoveryCascades: s.RecoveryCascades - other.RecoveryCascades,
	}
}
