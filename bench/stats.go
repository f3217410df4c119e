package main

import (
	"math"
	"sort"
	"time"
)

// failedLatencyMs stands in for +∞ when a percentile lands on a failed
// operation: a failed or refused request misses every latency limit, but
// the result line must stay valid JSON.
const failedLatencyMs = 1e12

// quantile returns the q-quantile (0 <= q <= 1) of vals by the
// nearest-rank rule; vals is sorted in place. An empty slice yields 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

// median is the 0.5-quantile with the two middle values averaged, so a
// three-pass median is the middle pass and a two-pass one the mean.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ratio is a/b with 0/0 = 0, for hit ratios over possibly empty counts.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// FNV-1a, inlined rather than hash/fnv: one answer hash per op must not
// allocate a hasher on the 40k req/s path.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds b into the running 64-bit FNV-1a hash h.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// mixHash folds one 64-bit word into a running digest.
func mixHash(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
