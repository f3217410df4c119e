// Package obsv is the observability plane shared by every pitex tier: a
// dependency-free metrics registry with Prometheus text exposition, a
// lightweight distributed-tracing implementation (spans, trace
// propagation headers, a /tracez ring buffer), build-info reporting and
// slog helpers with trace-ID correlation.
//
// The package deliberately reimplements the small slice of
// OpenTelemetry/client_golang surface the fleet needs instead of
// importing either: counters and gauges are single atomics, spans are
// appended under one mutex, and everything is nil-safe so un-traced
// paths pay one pointer check.
//
// A trace is cheap to keep and costs its export only when read. IDs are
// random 64-bit integers, rendered as hex when a header or an export
// needs them; a span keeps its attributes in a small slice; Finish seals
// the trace and puts the *Trace itself in the /tracez ring, and the JSON
// form (TraceData) is built only by Trace.Data — for /tracez and
// ?trace=1. A cache hit's trace (one span, one attribute, its two
// context values) costs 432 B in 4 allocations and a shard server's
// estimate trace (two spans, five attributes) 648 B in 5
// (BenchmarkTrace, Go 1.24, linux/amd64).
package obsv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use and nil-safe.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter (one not yet attached to a
// registry — see Registry.RegisterCounter for adopting it later).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use and nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (a CAS loop — gauges are read-mostly).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// HistogramData is the exposition form of a latency histogram:
// per-bucket (non-cumulative) counts under ascending upper Bounds in
// seconds, with an implicit +Inf bucket as Counts' final entry
// (len(Counts) == len(Bounds)+1).
type HistogramData struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Sample is one series of a family: its labels and either a scalar
// value (counter/gauge) or histogram data.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *HistogramData
}

// Family is one named metric with its samples, the unit the Prometheus
// text writer consumes.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge" or "histogram"
	Samples []Sample
}

// metricEntry is one registered series.
type metricEntry struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	cfn     func() int64
	gfn     func() float64
}

type familyEntry struct {
	help    string
	typ     string
	order   []string // label signatures, registration order
	entries map[string]*metricEntry
}

// Registry is the unified metrics plane: counters, gauges, value
// functions and collectors registered under Prometheus-style family
// names, exposed by WriteTo/Handler in the text exposition format. Safe
// for concurrent use.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*familyEntry
	order      []string
	collectors []func() []Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*familyEntry)}
}

func labelSignature(labels []Label) string {
	s := ""
	for _, l := range labels {
		s += l.Key + "\x00" + l.Value + "\x00"
	}
	return s
}

func (r *Registry) family(name, help, typ string) *familyEntry {
	f := r.families[name]
	if f == nil {
		f = &familyEntry{help: help, typ: typ, entries: make(map[string]*metricEntry)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

func (r *Registry) entry(name, help, typ string, labels []Label) *metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	sig := labelSignature(labels)
	e := f.entries[sig]
	if e == nil {
		e = &metricEntry{labels: labels}
		f.entries[sig] = e
		f.order = append(f.order, sig)
	}
	return e
}

// Counter returns the counter registered under (name, labels), creating
// it on first use. Repeated calls with the same identity return the
// same counter, so callers need not cache the handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.entry(name, help, "counter", labels)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns the gauge registered under (name, labels), creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.entry(name, help, "gauge", labels)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// RegisterCounter adopts an existing counter (one owned by another
// subsystem, like the distrib client's scatter counters) as the series
// (name, labels).
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) {
	r.entry(name, help, "counter", labels).counter = c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for subsystems that already keep their
// own atomic counters.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.entry(name, help, "counter", labels).cfn = fn
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.entry(name, help, "gauge", labels).gfn = fn
}

// RegisterCollector registers a callback producing whole families at
// exposition time — the bridge for dynamically labelled metrics like
// per-endpoint latency histograms.
func (r *Registry) RegisterCollector(fn func() []Family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Gather snapshots every registered metric as families sorted by name
// (series keep registration order within a family; collector families
// merge with registered ones of the same name).
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	out := make([]Family, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		fam := Family{Name: name, Help: f.help, Type: f.typ}
		for _, sig := range f.order {
			e := f.entries[sig]
			s := Sample{Labels: e.labels}
			switch {
			case e.counter != nil:
				s.Value = float64(e.counter.Value())
			case e.gauge != nil:
				s.Value = e.gauge.Value()
			case e.cfn != nil:
				s.Value = float64(e.cfn())
			case e.gfn != nil:
				s.Value = e.gfn()
			}
			fam.Samples = append(fam.Samples, s)
		}
		out = append(out, fam)
	}
	collectors := r.collectors
	r.mu.Unlock()

	for _, fn := range collectors {
		for _, cf := range fn() {
			merged := false
			for i := range out {
				if out[i].Name == cf.Name {
					out[i].Samples = append(out[i].Samples, cf.Samples...)
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, cf)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// validateFamily sanity-checks a family before exposition; Gather output
// always passes, collector output might not.
func validateFamily(f Family) error {
	if !validMetricName(f.Name) {
		return fmt.Errorf("obsv: invalid metric name %q", f.Name)
	}
	switch f.Type {
	case "counter", "gauge", "histogram":
	default:
		return fmt.Errorf("obsv: metric %s has invalid type %q", f.Name, f.Type)
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
