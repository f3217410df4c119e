package sampling

import (
	"fmt"
	"math"

	"pitex/internal/graph"
)

// Options carries the accuracy parameters shared by all estimators.
type Options struct {
	// Epsilon is the relative error bound ε of the (1-ε)/(1+ε)
	// approximation (paper default 0.7).
	Epsilon float64
	// Delta controls the failure probability 1/δ (paper default 1000).
	Delta float64
	// LogSearchSpace is the log-cardinality of the tag-set search space
	// the union bound runs over: ln C(|Ω|,k) for plain enumeration
	// (Eq. 2), ln φ_k for best-effort exploration (Eq. 12), ln φ_K for
	// the offline index (Eq. 7).
	LogSearchSpace float64
	// MaxSamples caps θ_W per estimation. The theoretical θ_W can reach
	// millions for tight ε on large graphs; experiments cap it to keep
	// runs laptop-sized. 0 means no cap. The cap is a documented
	// deviation knob (DESIGN.md Sec. 6); the approximation guarantee
	// holds only when the cap never binds.
	MaxSamples int64
	// DisableEarlyStop turns off the Algo-2 stopping rule; used by the
	// early-stop ablation benchmark.
	DisableEarlyStop bool
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("sampling: epsilon = %v, want (0,1)", o.Epsilon)
	}
	if o.Delta <= 1 {
		return fmt.Errorf("sampling: delta = %v, want > 1", o.Delta)
	}
	if math.IsNaN(o.LogSearchSpace) || math.IsInf(o.LogSearchSpace, 1) {
		return fmt.Errorf("sampling: bad LogSearchSpace %v", o.LogSearchSpace)
	}
	if o.MaxSamples < 0 {
		return fmt.Errorf("sampling: MaxSamples = %d, want >= 0", o.MaxSamples)
	}
	return nil
}

// Lambda returns Λ = (2+ε)/ε² · (ln δ + LogSearchSpace + ln 2), the
// graph-independent factor of the paper's sample sizes (Sec. 4).
func (o Options) Lambda() float64 {
	return (2 + o.Epsilon) / (o.Epsilon * o.Epsilon) * o.LogTerm()
}

// LogTerm returns ln δ + LogSearchSpace + ln 2, the union-bound factor of
// Λ (an empty search space counts 0).
func (o Options) LogTerm() float64 {
	lss := o.LogSearchSpace
	if math.IsInf(lss, -1) {
		lss = 0
	}
	return math.Log(o.Delta) + lss + math.Ln2
}

// SampleSize returns θ_W of Eq. 2 with the unknown E[I(u|W)] replaced by
// its trivial lower bound 1 (the query user is always active):
// θ_W = Λ · |R_W(u)|. The early-stopping rule recovers the E[I(u|W)]
// denominator adaptively. The result is capped at MaxSamples when set,
// and saturates at math.MaxInt64 without a cap.
func (o Options) SampleSize(reachable int) int64 {
	theta, _ := CeilCap(o.Lambda()*float64(max(reachable, 1)), o.MaxSamples)
	return theta
}

// CeilCap turns a real sample count into an integer one: ⌈x⌉, at least
// 1, capped at limit when limit > 0. The cap is applied in float64, so a
// count past the int64 range (a tiny ε) meets the cap instead of
// wrapping negative; without a cap it saturates at math.MaxInt64 and ok
// is false.
func CeilCap(x float64, limit int64) (n int64, ok bool) {
	x = max(math.Ceil(x), 1)
	switch {
	case limit > 0 && x > float64(limit):
		return limit, true
	case x >= math.MaxInt64: // 2^63 as a float64
		return math.MaxInt64, false
	}
	return int64(x), true
}

// StopThreshold returns the normalized-sum threshold of Algo 2 line 17:
// sampling may stop once s/|R_W(u)| reaches
// 1 + (1+ε)·sqrt( (2/ε²) · ln(2·δ·|search space|) ).
// (The paper prints the argument of the logarithm as 2/(δ·C(Ω,k)), which is
// < 1 and would make the square root imaginary; we read it as the standard
// martingale stopping quantity with the factors multiplied.)
func (o Options) StopThreshold() float64 {
	lss := o.LogSearchSpace
	if math.IsInf(lss, -1) {
		lss = 0
	}
	inner := 2 / (o.Epsilon * o.Epsilon) * (math.Ln2 + math.Log(o.Delta) + lss)
	return 1 + (1+o.Epsilon)*math.Sqrt(inner)
}

// EdgeProber yields the activation probability of an edge under the
// current query. Estimators are parameterized on it so that the same
// machinery estimates both real tag-set graphs (p(e|W), Eq. 1) and the
// best-effort upper-bound graphs (p+(e|W), Lemma 8).
type EdgeProber interface {
	Prob(e graph.EdgeID) float64
}

// PosteriorProber is the standard Eq. 1 prober: p(e|W) = Σ_z p(e|z)·p(z|W).
type PosteriorProber struct {
	G         *graph.Graph
	Posterior []float64
}

// Prob implements EdgeProber.
func (p PosteriorProber) Prob(e graph.EdgeID) float64 {
	return p.G.EdgeProb(e, p.Posterior)
}

// Result is the outcome of one influence estimation.
type Result struct {
	// Influence is the estimate of E[I(u|W)].
	Influence float64
	// Samples is the number of sample instances actually generated
	// (early stopping can make this smaller than θ_W).
	Samples int64
	// Theta is the sample budget θ_W that was computed for this call.
	Theta int64
	// Reachable is |R_W(u)|.
	Reachable int
}
