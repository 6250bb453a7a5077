package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("bucket %d count %d deviates >20%% from uniform", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(19)
	z := NewZipf(1000, 1.0)
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Rank 0 should dominate rank 100 by roughly 100x under s=1.
	if counts[0] < 20*counts[100] {
		t.Errorf("insufficient skew: counts[0]=%d counts[100]=%d", counts[0], counts[100])
	}
	// Empirical frequency of rank 0 should match its probability within 15%.
	want := z.Prob(0)
	got := float64(counts[0]) / float64(n)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("rank-0 freq %v, want ~%v", got, want)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(23)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("s=0 bucket %d count %d not ~uniform", i, c)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(500, 1.2)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestZipfSampleInRange(t *testing.T) {
	r := New(29)
	z := NewZipf(7, 2.0)
	for i := 0; i < 10000; i++ {
		if v := z.Sample(r); v < 0 || v >= 7 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkZipfSample(b *testing.B) {
	r := New(1)
	z := NewZipf(4096, 1.0)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = z.Sample(r)
	}
	_ = sink
}
