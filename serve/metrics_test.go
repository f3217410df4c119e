package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pitex/obsv"
)

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("empty snapshot count = %d", s.Count)
	}
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Max != 10*time.Millisecond {
		t.Errorf("max = %v, want 10ms", s.Max)
	}
	// Quantiles are conservative upper bucket bounds: p50 must cover 100µs
	// without reaching the 10ms population; p99 must cover 10ms.
	if s.P50 < 100*time.Microsecond || s.P50 >= 10*time.Millisecond {
		t.Errorf("p50 = %v, want in [100µs, 10ms)", s.P50)
	}
	if s.P99 < 10*time.Millisecond {
		t.Errorf("p99 = %v, want >= 10ms", s.P99)
	}
	if s.Mean <= 0 {
		t.Errorf("mean = %v, want > 0", s.Mean)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(time.Hour) // beyond the top finite bound
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 2 || s.Max != time.Hour {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.P99 != time.Hour {
		t.Errorf("overflow p99 = %v, want max", s.P99)
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	m := NewMetrics()
	labels := []string{"a/X", "b/X", "c/X"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Observe(labels[(i+j)%len(labels)], time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	snap := m.Snapshot()
	var total int64
	for _, l := range labels {
		s, ok := snap[l]
		if !ok {
			t.Fatalf("label %q missing", l)
		}
		total += s.Count
	}
	if total != 800 {
		t.Errorf("total observations = %d, want 800", total)
	}
}

func TestHistogramExport(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Microsecond)
	h.Observe(10 * time.Millisecond)
	h.Observe(time.Hour) // overflow
	d := h.Export()
	if len(d.Bounds) != histOverflow || len(d.Counts) != histBuckets {
		t.Fatalf("shape = %d bounds, %d counts", len(d.Bounds), len(d.Counts))
	}
	if d.Count != 3 {
		t.Fatalf("count = %d, want 3", d.Count)
	}
	if d.Counts[histOverflow] != 1 {
		t.Errorf("overflow count = %d, want 1", d.Counts[histOverflow])
	}
	want := (100*time.Microsecond + 10*time.Millisecond + time.Hour).Seconds()
	if diff := d.Sum - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %v, want %v", d.Sum, want)
	}
	for i := 1; i < len(d.Bounds); i++ {
		if d.Bounds[i] <= d.Bounds[i-1] {
			t.Fatalf("bounds not ascending at %d", i)
		}
	}
}

// TestMetricsConcurrentSnapshotExport hammers Observe while concurrent
// readers take Snapshots and render the Prometheus exposition; run under
// -race this is the data-race contract of the metrics plane.
func TestMetricsConcurrentSnapshotExport(t *testing.T) {
	m := NewMetrics()
	ctr := m.Registry().Counter("pitex_test_events_total", "test counter")
	g := m.Registry().Gauge("pitex_test_level", "test gauge")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				m.Observe("load/X", time.Duration(j%5)*time.Millisecond)
				ctr.Inc()
				g.Set(float64(j))
				// Write-then-check: at least one observation lands even if
				// the readers finish before this goroutine is scheduled.
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		m.Snapshot()
		var sb strings.Builder
		if err := m.Registry().WriteText(&sb); err != nil {
			t.Errorf("WriteText: %v", err)
		}
		if _, err := obsv.ParseText(sb.String()); err != nil {
			t.Errorf("exposition invalid mid-load: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	snap := m.Snapshot()
	if snap["load/X"].Count == 0 {
		t.Fatal("no observations recorded")
	}
	if ctr.Value() == 0 {
		t.Fatal("counter never incremented")
	}
}
