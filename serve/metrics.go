package serve

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitex/obsv"
)

// histogram bucket layout: geometric upper bounds 50µs·2^i, i in
// [0, histBuckets-2], plus one overflow bucket. The top finite bound is
// 50µs·2^18 ≈ 13.1s — beyond any sane serving deadline; slower samples
// land in the overflow bucket and report quantiles as the observed max.
const (
	histBuckets   = 20
	histBase      = 50 * time.Microsecond
	histOverflow  = histBuckets - 1
	histTopFinite = histBuckets - 2
)

func bucketBound(i int) time.Duration { return histBase << uint(i) }

// Histogram is a lock-free latency histogram with geometric buckets.
// The zero value is ready to use.
type Histogram struct {
	buckets  [histBuckets]atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i <= histTopFinite && d > bucketBound(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	for {
		cur := h.maxNanos.Load()
		if int64(d) <= cur || h.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough view of a histogram for
// reporting: counts may lag each other by in-flight observations.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Snapshot summarizes the histogram. Quantiles are upper bucket bounds
// (conservative: the true quantile is at most the reported value, within
// one geometric bucket).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	if s.Count == 0 {
		return s
	}
	s.Mean = time.Duration(h.sumNanos.Load() / s.Count)
	s.Max = time.Duration(h.maxNanos.Load())
	quantile := func(q float64) time.Duration {
		target := int64(math.Ceil(q * float64(s.Count)))
		if target < 1 {
			target = 1
		}
		var seen int64
		for i := 0; i < histBuckets; i++ {
			seen += h.buckets[i].Load()
			if seen >= target {
				if i == histOverflow {
					return s.Max
				}
				return bucketBound(i)
			}
		}
		return s.Max
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	return s
}

// Export converts the histogram to the exposition shape: per-bucket
// counts under upper bounds in seconds. Like Snapshot, counts may lag
// each other by in-flight observations.
func (h *Histogram) Export() obsv.HistogramData {
	d := obsv.HistogramData{
		Bounds: make([]float64, histOverflow),
		Counts: make([]int64, histBuckets),
	}
	for i := 0; i < histOverflow; i++ {
		d.Bounds[i] = bucketBound(i).Seconds()
		d.Counts[i] = h.buckets[i].Load()
	}
	d.Counts[histOverflow] = h.buckets[histOverflow].Load()
	for _, c := range d.Counts {
		d.Count += c
	}
	d.Sum = float64(h.sumNanos.Load()) / 1e9
	return d
}

// Metrics is the unified metrics plane of a server: labelled latency
// histograms (label convention: "endpoint/STRATEGY", e.g.
// "selling-points/INDEXEST+") plus an obsv.Registry of counters and
// gauges, all exposed together through the Prometheus /metrics handler.
// Safe for concurrent use; Observe on a hot label is a read-lock plus
// atomics.
type Metrics struct {
	mu   sync.RWMutex
	hist map[string]*Histogram
	reg  *obsv.Registry
}

// NewMetrics returns an empty registry. The latency histograms are
// pre-wired into the exposition as pitex_request_duration_seconds with
// the serve label split into endpoint/strategy dimensions.
func NewMetrics() *Metrics {
	m := &Metrics{hist: make(map[string]*Histogram), reg: obsv.NewRegistry()}
	m.reg.RegisterCollector(m.collectHistograms)
	return m
}

// Registry returns the underlying counter/gauge registry, for wiring
// subsystem-owned counters (distrib client, pool, cache) into the same
// exposition.
func (m *Metrics) Registry() *obsv.Registry { return m.reg }

// collectHistograms exports every labelled latency histogram as one
// pitex_request_duration_seconds family, splitting the serve-layer
// "endpoint/STRATEGY" label into proper dimensions.
func (m *Metrics) collectHistograms() []obsv.Family {
	m.mu.RLock()
	labels := make([]string, 0, len(m.hist))
	hists := make(map[string]*Histogram, len(m.hist))
	for l, h := range m.hist {
		labels = append(labels, l)
		hists[l] = h
	}
	m.mu.RUnlock()
	if len(labels) == 0 {
		return nil
	}
	sort.Strings(labels)
	fam := obsv.Family{
		Name: "pitex_request_duration_seconds",
		Help: "Request latency by endpoint and strategy.",
		Type: "histogram",
	}
	for _, l := range labels {
		endpoint, strategy, _ := strings.Cut(l, "/")
		lbls := []obsv.Label{{Key: "endpoint", Value: endpoint}}
		if strategy != "" {
			lbls = append(lbls, obsv.Label{Key: "strategy", Value: strategy})
		}
		hd := hists[l].Export()
		fam.Samples = append(fam.Samples, obsv.Sample{Labels: lbls, Hist: &hd})
	}
	return []obsv.Family{fam}
}

// Observe records a latency sample under the given label, creating the
// histogram on first use.
func (m *Metrics) Observe(label string, d time.Duration) {
	m.mu.RLock()
	h, ok := m.hist[label]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		h, ok = m.hist[label]
		if !ok {
			h = &Histogram{}
			m.hist[label] = h
		}
		m.mu.Unlock()
	}
	h.Observe(d)
}

// Snapshot returns every labelled histogram's summary. (JSON encoding of
// the map sorts keys itself, so /statsz output is stable.)
func (m *Metrics) Snapshot() map[string]HistogramSnapshot {
	m.mu.RLock()
	hists := make(map[string]*Histogram, len(m.hist))
	for l, h := range m.hist {
		hists[l] = h
	}
	m.mu.RUnlock()
	out := make(map[string]HistogramSnapshot, len(hists))
	for l, h := range hists {
		out[l] = h.Snapshot()
	}
	return out
}

// p50MinSamples is how many observations a histogram needs before its
// median is trusted for admission decisions; colder histograms report
// ok=false and admission stays open.
const p50MinSamples = 64

// P50 reports the median latency observed under label once enough
// samples back it. Deadline-aware admission compares a request's
// remaining budget against this: a caller that cannot possibly receive
// its answer in time is shed before it occupies a worker.
func (m *Metrics) P50(label string) (time.Duration, bool) {
	m.mu.RLock()
	h := m.hist[label]
	m.mu.RUnlock()
	if h == nil {
		return 0, false
	}
	s := h.Snapshot()
	if s.Count < p50MinSamples {
		return 0, false
	}
	return s.P50, true
}
