package pitex

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Strategy selects which influence estimator the engine uses. The paper
// evaluates all seven (Fig. 7-8).
type Strategy int

const (
	// StrategyLazy is lazy propagation sampling (paper Sec. 5.1), the
	// fastest online sampler; the default because it needs no offline
	// construction.
	StrategyLazy Strategy = iota
	// StrategyMC is Monte-Carlo forward sampling (Sec. 4).
	StrategyMC
	// StrategyRR is reverse-reachable-set sampling (Sec. 4).
	StrategyRR
	// StrategyTIM is the tree-based maximum-influence-path baseline; fast
	// but without an approximation guarantee.
	StrategyTIM
	// StrategyIndex is the offline RR-Graph index (Sec. 6.1, "IndexEst").
	StrategyIndex
	// StrategyIndexPruned adds the edge-cut filter-and-verify layer
	// (Sec. 6.2, "IndexEst+").
	StrategyIndexPruned
	// StrategyDelay is delay materialization (Sec. 6.3, "DelayMat"):
	// index-speed queries from a per-user-counter index that is orders of
	// magnitude smaller.
	StrategyDelay
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyLazy:
		return "LAZY"
	case StrategyMC:
		return "MC"
	case StrategyRR:
		return "RR"
	case StrategyTIM:
		return "TIM"
	case StrategyIndex:
		return "INDEXEST"
	case StrategyIndexPruned:
		return "INDEXEST+"
	case StrategyDelay:
		return "DELAYMAT"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NeedsIndex reports whether the strategy requires offline RR-Graph
// construction inside NewEngine.
func (s Strategy) NeedsIndex() bool {
	return s == StrategyIndex || s == StrategyIndexPruned || s == StrategyDelay
}

// Distributes reports whether a shard fleet can serve the strategy: true
// for INDEXEST and INDEXEST+ only, whose RR-Graph index slices a shard
// server scans exactly as the in-process shard does. Online strategies
// have no index to shard, and DELAYMAT keeps only per-user counters and
// rebuilds RR-Graphs at query time, so it has no slice worth shipping.
// NewRemoteEngine and serve.NewShardServer both refuse the rest.
func (s Strategy) Distributes() bool {
	return s == StrategyIndex || s == StrategyIndexPruned
}

// ParseStrategy is the inverse of Strategy.String, case-insensitively
// accepting the paper names plus the short aliases the CLIs use
// ("index", "index+", "delay").
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "lazy":
		return StrategyLazy, nil
	case "mc":
		return StrategyMC, nil
	case "rr":
		return StrategyRR, nil
	case "tim":
		return StrategyTIM, nil
	case "indexest", "index":
		return StrategyIndex, nil
	case "indexest+", "index+":
		return StrategyIndexPruned, nil
	case "delaymat", "delay":
		return StrategyDelay, nil
	default:
		return 0, fmt.Errorf("pitex: unknown strategy %q", name)
	}
}

// Propagation selects the cascade model. The paper's main body uses the
// independent cascade (IC) model; footnote 1 notes the approaches extend to
// the linear threshold (LT) model, implemented here for the online
// strategies.
type Propagation int

const (
	// PropagationIC is the independent cascade model (default).
	PropagationIC Propagation = iota
	// PropagationLT is the linear threshold model with tag-aware weights
	// b(e|W) = p(e|W) / max(1, Σ_in p(e'|W)). Supported by the online
	// strategies: MC and Lazy dispatch to the threshold-based forward
	// sampler, RR to the reverse triggering-set sampler. The RR-Graph
	// index encodes IC possible worlds and rejects LT.
	PropagationLT
)

// String names the model.
func (p Propagation) String() string {
	if p == PropagationLT {
		return "LT"
	}
	return "IC"
}

// Options configures an Engine. The zero value gives the paper's default
// parameters with the Lazy strategy.
type Options struct {
	// Strategy selects the estimator (default StrategyLazy).
	Strategy Strategy
	// Propagation selects the cascade model (default PropagationIC).
	Propagation Propagation
	// Epsilon is the relative error ε of the (1-ε)/(1+ε) approximation.
	// Default 0.7, the paper's default.
	Epsilon float64
	// Delta controls the failure probability 1/δ. Default 1000.
	Delta float64
	// MaxK is the largest query size k the engine must support; it enters
	// the union bound (φ_K) of the sample sizes. Default 10, the paper's
	// K. Queries with k > MaxK are rejected.
	MaxK int
	// Seed makes every randomized component deterministic. Default 1.
	Seed uint64
	// MaxSamples caps θ_W per online estimation; 0 keeps the theoretical
	// Eq. 2 value. A cap trades the formal guarantee for bounded latency
	// (DESIGN.md Sec. 6).
	MaxSamples int64
	// MaxIndexSamples caps the offline θ of Eq. 7 for index strategies;
	// 0 keeps the theoretical value.
	MaxIndexSamples int64
	// IndexShards hash-partitions the users of an index strategy's offline
	// structure into this many independent shards, built and repaired in
	// parallel, with queries scattered across shards and gathered into the
	// same unbiased estimate. 0 or 1 keeps the single monolithic index
	// (whose estimates S=1 reproduces byte-for-byte). Raise it when
	// offline build/repair latency or the single store's size becomes the
	// bottleneck; see the package documentation's Sharding section.
	// Ignored by online strategies and when loading a saved index: the
	// file's shard layout wins, and the engine's Options reports it (a 0
	// stays 0 for a one-shard file).
	IndexShards int
	// DisableBestEffort switches the query loop from best-effort
	// exploration (Sec. 5.2) to plain enumeration of all C(|Ω|,k) sets.
	DisableBestEffort bool
	// CheapBounds is read by nothing. Online strategies always bound a
	// partial tag set by its reach count, and index and coordinator
	// engines by one more row of the frontier batch. The field stays only
	// because the benchmark harness in bench/ still sets it; ROADMAP
	// item 1 removes both.
	CheapBounds bool
	// DisableEarlyStop turns off the Algo-2 martingale stopping rule of
	// the online samplers (ablation knob). Index strategies never stop a
	// scan early and ignore it.
	DisableEarlyStop bool
	// TrackUpdates is read by nothing. Index strategies always repair, and
	// Engine.ApplyUpdates always recounts a DelayMat. The field stays only
	// because the benchmark harness in bench/ still sets it; ROADMAP item
	// 1(e) removes both.
	TrackUpdates bool
}

// withDefaults fills unset fields with the paper's defaults.
func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.7
	}
	if o.Delta == 0 {
		o.Delta = 1000
	}
	if o.MaxK == 0 {
		o.MaxK = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ServeOptions configures the query-serving subsystem (package
// pitex/serve): how many engine clones answer queries, how much waiting
// traffic is admitted, and how results are cached. The zero value gives
// sensible production defaults; see WithDefaults.
type ServeOptions struct {
	// PoolSize is the number of engine clones serving queries
	// concurrently. Clones share the prototype engine's offline index, so
	// the marginal cost of a worker is only estimator scratch state.
	// Default runtime.GOMAXPROCS(0).
	PoolSize int
	// QueueDepth bounds how many requests may wait for a free engine
	// beyond the PoolSize in service. Requests arriving past
	// PoolSize+QueueDepth are rejected immediately with ErrOverloaded
	// (load shedding beats unbounded queueing). Default 4*PoolSize;
	// negative disables queueing entirely (shed as soon as every engine
	// is busy).
	QueueDepth int
	// QueueTimeout caps how long an admitted request waits for a free
	// engine before failing with ErrQueueTimeout. Default 5s; negative
	// disables the timeout.
	QueueTimeout time.Duration
	// QueryTimeout is the per-query deadline enforced through
	// Engine.Query once an engine is checked out; the explorer observes
	// it between best-first expansions. Estimations are decoupled from the
	// requesting client's cancellation (deduplicated requests share them),
	// so this deadline is what bounds work for disconnected clients.
	// Default 30s; negative disables the deadline.
	QueryTimeout time.Duration
	// CacheCapacity is the total number of results kept across all cache
	// shards. Default 4096; negative disables caching (in-flight
	// deduplication stays active).
	CacheCapacity int
	// SweepCheckpointDir is the directory sweep jobs started over HTTP
	// (POST /admin/jobs) may persist checkpoints into: a request's
	// checkpoint_path must be a bare file name, joined under this
	// directory — never an arbitrary server path. Empty (the default)
	// rejects checkpointed jobs over HTTP entirely; programmatic callers
	// (analytics.Run, Server.StartSweep) are unaffected.
	SweepCheckpointDir string
}

// WithDefaults fills unset ServeOptions fields with their defaults. It is
// exported (unlike Options.withDefaults) because package serve applies it.
func (o ServeOptions) WithDefaults() ServeOptions {
	if o.PoolSize == 0 {
		o.PoolSize = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 4 * o.PoolSize
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = 5 * time.Second
	}
	if o.QueryTimeout == 0 {
		o.QueryTimeout = 30 * time.Second
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 4096
	}
	return o
}

// Validate reports whether the serving options are usable.
func (o ServeOptions) Validate() error {
	if o.PoolSize < 0 {
		return fmt.Errorf("pitex: PoolSize = %d, want >= 0", o.PoolSize)
	}
	return nil
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("pitex: Epsilon = %v, want (0,1)", o.Epsilon)
	}
	if o.Delta <= 1 {
		return fmt.Errorf("pitex: Delta = %v, want > 1", o.Delta)
	}
	if o.MaxK < 1 {
		return fmt.Errorf("pitex: MaxK = %d, want >= 1", o.MaxK)
	}
	if o.Strategy < StrategyLazy || o.Strategy > StrategyDelay {
		return fmt.Errorf("pitex: unknown strategy %d", int(o.Strategy))
	}
	if o.MaxSamples < 0 || o.MaxIndexSamples < 0 {
		return fmt.Errorf("pitex: negative sample caps")
	}
	if o.IndexShards < 0 {
		return fmt.Errorf("pitex: IndexShards = %d, want >= 0", o.IndexShards)
	}
	if o.Propagation != PropagationIC && o.Propagation != PropagationLT {
		return fmt.Errorf("pitex: unknown propagation model %d", int(o.Propagation))
	}
	if o.Propagation == PropagationLT &&
		o.Strategy != StrategyMC && o.Strategy != StrategyLazy && o.Strategy != StrategyRR {
		return fmt.Errorf("pitex: the LT model requires an online strategy (MC, Lazy or RR; got %v)", o.Strategy)
	}
	return nil
}
