package metrics

import (
	"fmt"
	"math"
	"sync"
)

// Histogram is a streaming latency histogram with geometrically spaced
// buckets, the substrate behind the serving layer's p50/p95/p99 numbers.
// Values are recorded in O(1) with bounded memory; quantile estimates
// carry a relative error no worse than the bucket growth factor. It is
// safe for concurrent use.
//
// The default range covers 1ns..100s in seconds, which spans everything
// the serving path can observe; values outside the range clamp into the
// edge buckets.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	n      uint64
	sum    float64
	min    float64
	max    float64

	lo     float64 // lower edge of bucket 0
	growth float64 // bucket width ratio
	invLog float64 // 1/ln(growth), cached for the index computation
}

// histBuckets returns the bucket count covering [lo, hi] at the growth
// factor.
func histBuckets(lo, hi, growth float64) int {
	return int(math.Ceil(math.Log(hi/lo)/math.Log(growth))) + 1
}

// NewHistogram returns a histogram over [lo, hi] with the given bucket
// growth factor (e.g. 1.04 for ~4% quantile error). It panics on a
// non-positive range or a growth factor <= 1.
func NewHistogram(lo, hi, growth float64) *Histogram {
	if lo <= 0 || hi <= lo {
		panic("metrics: NewHistogram needs 0 < lo < hi")
	}
	if growth <= 1 {
		panic("metrics: NewHistogram needs growth > 1")
	}
	return &Histogram{
		counts: make([]uint64, histBuckets(lo, hi, growth)),
		min:    math.Inf(1),
		max:    math.Inf(-1),
		lo:     lo,
		growth: growth,
		invLog: 1 / math.Log(growth),
	}
}

// NewLatencyHistogram returns the serving default: 1ns..100s at ~2%
// resolution.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1e-9, 100, 1.02)
}

// bucket maps a value to its bucket index, clamping to the edges.
func (h *Histogram) bucket(v float64) int {
	if v <= h.lo {
		return 0
	}
	i := int(math.Log(v/h.lo) * h.invLog)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// Observe records one value. Non-finite or negative values clamp into the
// edge buckets rather than corrupting the state.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.counts[h.bucket(v)]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the geometric
// midpoint of the bucket holding the q-th ranked observation, clamped to
// the exact observed min/max so tails never overshoot. It returns 0 when
// empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// quantileLocked is Quantile's body; caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// Geometric midpoint of [lo*g^i, lo*g^(i+1)).
			v := h.lo * math.Pow(h.growth, float64(i)+0.5)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Snapshot is a consistent point-in-time summary of a histogram. All
// values are in the histogram's native unit (seconds on the serving path).
type Snapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot returns the count, mean, min/max and the standard serving
// quantiles in one consistent view: every field is computed under a
// single lock acquisition, so concurrent Observe calls cannot make the
// summary internally inconsistent (e.g. a mean outside [min, max], or
// quantiles over a different population than Count reports).
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Count: h.n}
	if h.n == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.n)
	s.Min, s.Max = h.min, h.max
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// String renders the snapshot compactly with latency units.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, Seconds(s.Mean), Seconds(s.P50), Seconds(s.P95), Seconds(s.P99), Seconds(s.Max))
}
