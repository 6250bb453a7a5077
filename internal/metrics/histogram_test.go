package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// exactQuantile computes the ceil-rank quantile on a sorted copy, the
// definition Histogram.Quantile approximates.
func exactQuantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// checkQuantiles asserts the histogram estimate is within rel of the exact
// sorted answer for the serving quantiles.
func checkQuantiles(t *testing.T, name string, vals []float64, rel float64) {
	t.Helper()
	h := NewLatencyHistogram()
	for _, v := range vals {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := exactQuantile(vals, q)
		got := h.Quantile(q)
		if want == 0 {
			if got != 0 {
				t.Errorf("%s q=%v: got %v, want 0", name, q, got)
			}
			continue
		}
		if err := math.Abs(got-want) / want; err > rel {
			t.Errorf("%s q=%v: got %v, want %v (rel err %.3f > %.3f)", name, q, got, want, err, rel)
		}
	}
}

func TestHistogramQuantileRandom(t *testing.T) {
	r := xrand.New(42)
	// Uniform latencies in [100us, 10ms].
	uniform := make([]float64, 20000)
	for i := range uniform {
		uniform[i] = 100e-6 + r.Float64()*9.9e-3
	}
	checkQuantiles(t, "uniform", uniform, 0.03)

	// Log-normal-ish: exp of a Gaussian, the shape real latency tails take.
	logn := make([]float64, 20000)
	for i := range logn {
		logn[i] = 1e-3 * math.Exp(r.NormFloat64()*0.8)
	}
	checkQuantiles(t, "lognormal", logn, 0.03)
}

func TestHistogramQuantileAdversarial(t *testing.T) {
	// Single repeated value: every quantile must land in its bucket.
	constant := make([]float64, 1000)
	for i := range constant {
		constant[i] = 2.5e-3
	}
	checkQuantiles(t, "constant", constant, 0.03)

	// Bimodal with a 1000x gap: fast cache hits vs slow misses. Quantiles
	// on either side of the gap must not blend the modes.
	bimodal := make([]float64, 0, 10000)
	for i := 0; i < 9000; i++ {
		bimodal = append(bimodal, 10e-6)
	}
	for i := 0; i < 1000; i++ {
		bimodal = append(bimodal, 10e-3)
	}
	checkQuantiles(t, "bimodal", bimodal, 0.03)

	// Sorted ascending ramp (worst case for naive streaming estimators).
	ramp := make([]float64, 10000)
	for i := range ramp {
		ramp[i] = 1e-6 * float64(i+1)
	}
	checkQuantiles(t, "ramp", ramp, 0.03)

	// Values outside the histogram range clamp without corrupting counts.
	h := NewLatencyHistogram()
	h.Observe(-1)
	h.Observe(0)
	h.Observe(1e12)
	h.Observe(math.NaN())
	if h.Count() != 3 {
		t.Errorf("out-of-range count = %d, want 3 (NaN dropped)", h.Count())
	}
	if got := h.Quantile(1); got != 1e12 {
		t.Errorf("max clamp: got %v, want 1e12", got)
	}
}

func TestHistogramEmptyAndSnapshot(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram must report zeros")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty snapshot %+v", s)
	}

	h.Observe(1e-3)
	h.Observe(3e-3)
	s = h.Snapshot()
	if s.Count != 2 {
		t.Errorf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-2e-3) > 1e-9 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Min != 1e-3 || s.Max != 3e-3 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.String() == "" {
		t.Error("snapshot renders empty")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < per; i++ {
				h.Observe(1e-4 + r.Float64()*1e-2)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	if p50 := h.Quantile(0.5); p50 < 1e-4 || p50 > 1.02e-2 {
		t.Errorf("p50 = %v out of input range", p50)
	}
}

// TestHistogramQuantileEdgeCases pins the quantile contract at the
// degenerate populations dashboards actually hit: an empty histogram, a
// single sample, and q at the closed [0, 1] endpoints.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	empty := NewLatencyHistogram()
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty histogram q=%v: got %v, want 0", q, got)
		}
	}

	one := NewLatencyHistogram()
	one.Observe(2.5e-3)
	// Every quantile of a single-sample population is that sample: the
	// min/max clamp must override the bucket-midpoint estimate.
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 2.5e-3 {
			t.Errorf("single sample q=%v: got %v, want 2.5e-3 exactly", q, got)
		}
	}
	s := one.Snapshot()
	if s.P50 != 2.5e-3 || s.P99 != 2.5e-3 || s.Min != 2.5e-3 || s.Max != 2.5e-3 {
		t.Errorf("single-sample snapshot %+v", s)
	}

	// Out-of-range q clamps to the observed extremes.
	two := NewLatencyHistogram()
	two.Observe(1e-3)
	two.Observe(9e-3)
	if got := two.Quantile(-0.5); got != 1e-3 {
		t.Errorf("q<0: got %v, want min", got)
	}
	if got := two.Quantile(1.5); got != 9e-3 {
		t.Errorf("q>1: got %v, want max", got)
	}
}
