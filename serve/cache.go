package serve

import (
	"container/list"
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// errComputeAborted surfaces to waiters whose flight owner panicked before
// producing a result.
var errComputeAborted = errors.New("serve: cached computation aborted")

// Key identifies one cacheable serving answer. Two requests with equal
// keys receive byte-identical results (answers are deterministic per
// engine seed), so caching is exact.
type Key struct {
	// Kind separates endpoint namespaces ("query", "audience", ...).
	Kind string
	// Gen is the engine generation the answer was computed by (see
	// Server.ApplyUpdates). Lookups always use the current generation, so
	// an entry computed before a hot-swap — including one inserted by an
	// in-flight computation that straddled the swap — can never be served
	// afterwards, even before Purge evicts it.
	Gen uint64
	// User, K and M are the query parameters (K is zero for kinds without
	// a size-k component, e.g. audience profiles).
	User, K, M int
	// Samples is the cascade count of sampling-based answers (audience
	// profiles); zero for estimator queries.
	Samples int64
	// Tags is the canonical comma-joined tag list (the prefix of a
	// constrained query, or the tag set of an audience profile); empty for
	// plain queries. Build it with TagsKey so order never matters.
	Tags string
}

// TagsKey canonicalizes a tag list into Key.Tags form: sorted ascending,
// comma-joined. The input is not modified.
func TagsKey(tags []int) string {
	if len(tags) == 0 {
		return ""
	}
	// Both buffers stay on the stack for the tag lists requests carry.
	var ids [16]int
	var b [64]byte
	sorted := append(ids[:0], tags...)
	slices.Sort(sorted)
	out := b[:0]
	for i, w := range sorted {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(w), 10)
	}
	return string(out)
}

// hash is FNV-1a over the key's fields, used only for shard selection.
func (k Key) hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // field separator
		h *= prime
	}
	mixInt := func(v int) {
		for i := 0; i < 8; i++ {
			h ^= uint64(v) >> (8 * i) & 0xff
			h *= prime
		}
	}
	mix(k.Kind)
	mixInt(int(k.Gen))
	mixInt(k.User)
	mixInt(k.K)
	mixInt(k.M)
	mixInt(int(k.Samples))
	mix(k.Tags)
	return h
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups answered from a stored entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that ran the computation.
	Misses int64 `json:"misses"`
	// Deduped counts lookups that piggybacked on an identical in-flight
	// computation instead of starting their own (singleflight).
	Deduped int64 `json:"deduped"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of stored results.
	Entries int64 `json:"entries"`
}

// flight is one in-progress computation that concurrent identical
// requests wait on.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

type cacheEntry struct {
	key Key
	val any
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	inflight map[Key]*flight
}

// Cache is a sharded LRU over serving answers with in-flight request
// deduplication: concurrent lookups of the same key run the computation
// once and share its result. A nil *Cache is valid and computes every
// lookup (no storage, no dedup).
type Cache struct {
	shards []cacheShard
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	deduped   atomic.Int64
	evictions atomic.Int64
	entries   atomic.Int64
}

// NewCache builds a cache holding up to capacity entries across the given
// number of shards (rounded up to a power of two). capacity < 1 disables
// storage but keeps in-flight deduplication: concurrent identical lookups
// still collapse into one computation, repeated sequential ones recompute.
func NewCache(capacity, shards int) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	// Shrink the shard count below tiny capacities so the per-shard floor
	// division never lets total residency exceed the configured bound.
	for n > 1 && n > capacity {
		n >>= 1
	}
	perShard := 0
	if capacity > 0 {
		perShard = capacity / n
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: perShard,
			ll:       list.New(),
			items:    make(map[Key]*list.Element),
			inflight: make(map[Key]*flight),
		}
	}
	return c
}

// stored returns key's stored value and marks it most recently used.
// The caller holds sh.mu.
func (sh *cacheShard) stored(key Key) (any, bool) {
	el, ok := sh.items[key]
	if !ok {
		return nil, false
	}
	sh.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Get returns the stored value for key, counted as a hit, or reports
// false without counting anything: it neither waits on nor starts a
// computation, and the GetOrCompute that follows a miss counts it. Safe
// on a nil cache (always false).
func (c *Cache) Get(key Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[key.hash()&c.mask]
	sh.mu.Lock()
	v, ok := sh.stored(key)
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// GetOrCompute returns the cached value for key, or runs compute exactly
// once across all concurrent callers with the same key, stores a
// successful result, and returns it. The second return reports whether the
// answer came without running compute in this call (a stored hit or a
// piggyback on another caller's in-flight computation). Waiters abandon
// the wait (not the computation) when ctx is done, and retry instead of
// failing when the flight they joined died of its own caller's
// cancellation.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func() (any, error)) (any, bool, error) {
	if c == nil {
		v, err := compute()
		return v, false, err
	}
	sh := &c.shards[key.hash()&c.mask]

	var fl *flight
	for fl == nil {
		sh.mu.Lock()
		if v, ok := sh.stored(key); ok {
			sh.mu.Unlock()
			c.hits.Add(1)
			return v, true, nil
		}
		if other, ok := sh.inflight[key]; ok {
			sh.mu.Unlock()
			select {
			case <-other.done:
				if errors.Is(other.err, errWaitAborted) && ctx.Err() == nil {
					// The flight died because its own caller's context
					// ended during the queue wait — a failure that is
					// theirs, not ours. Retry: become the owner or join a
					// newer flight. Shared verdicts (query timeout, pool
					// errors) are NOT retried: they bind every waiter, and
					// re-running a deterministically timing-out estimation
					// would pin pool workers in a loop.
					continue
				}
				if other.err != nil {
					return nil, false, other.err
				}
				c.deduped.Add(1)
				return other.val, true, nil
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		fl = &flight{done: make(chan struct{})}
		sh.inflight[key] = fl
		sh.mu.Unlock()
	}

	// Pre-set an error so that if compute panics (the panic propagates to
	// our caller, e.g. net/http's recover) the deferred cleanup still
	// unblocks waiters with a failure instead of poisoning the key.
	fl.err = errComputeAborted
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, key)
		// No concurrent writer can have inserted key meanwhile:
		// inflight[key] (held until this delete, under the same lock)
		// admits one owner.
		if fl.err == nil && sh.capacity > 0 {
			sh.items[key] = sh.ll.PushFront(&cacheEntry{key: key, val: fl.val})
			c.entries.Add(1)
			if sh.ll.Len() > sh.capacity {
				oldest := sh.ll.Back()
				sh.ll.Remove(oldest)
				delete(sh.items, oldest.Value.(*cacheEntry).key)
				c.entries.Add(-1)
				c.evictions.Add(1)
			}
		}
		sh.mu.Unlock()
		close(fl.done)
		c.misses.Add(1)
	}()
	fl.val, fl.err = compute()
	return fl.val, false, fl.err
}

// Purge evicts every stored entry (counted as evictions), leaving
// in-flight computations to finish; their results land under the keys
// they started with. Called on engine hot-swap: entries of the retired
// generation would never be read again (keys carry the generation), so
// holding them would only crowd out live entries. Safe on a nil cache.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := sh.ll.Len()
		sh.ll.Init()
		clear(sh.items)
		sh.mu.Unlock()
		c.entries.Add(int64(-n))
		c.evictions.Add(int64(n))
	}
}

// Stats snapshots the cache counters. Safe on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Deduped:   c.deduped.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
	}
}
