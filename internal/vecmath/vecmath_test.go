package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestL2SquaredKnown(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := L2Squared(a, b); got != 25 {
		t.Fatalf("L2Squared = %v, want 25", got)
	}
}

func TestL2SquaredZero(t *testing.T) {
	a := []float32{1.5, -2.5, 0, 7}
	if got := L2Squared(a, a); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

func TestL2SquaredOddLength(t *testing.T) {
	// Exercise the tail loop (len not divisible by 4).
	a := []float32{1, 2, 3, 4, 5, 6, 7}
	b := []float32{0, 0, 0, 0, 0, 0, 0}
	want := float32(1 + 4 + 9 + 16 + 25 + 36 + 49)
	if got := L2Squared(a, b); got != want {
		t.Fatalf("L2Squared = %v, want %v", got, want)
	}
}

func TestL2SquaredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	L2Squared([]float32{1}, []float32{1, 2})
}

func TestDotKnown(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestSubAddRoundTrip(t *testing.T) {
	r := xrand.New(1)
	a := make([]float32, 33)
	b := make([]float32, 33)
	for i := range a {
		a[i] = r.Float32()
		b[i] = r.Float32()
	}
	d := Sub(nil, a, b)
	back := Add(nil, d, b)
	for i := range a {
		if !almostEq(float64(back[i]), float64(a[i]), 1e-6) {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, back[i], a[i])
		}
	}
}

func TestSubReusesDst(t *testing.T) {
	dst := make([]float32, 4)
	a := []float32{5, 6, 7, 8}
	b := []float32{1, 2, 3, 4}
	out := Sub(dst, a, b)
	if &out[0] != &dst[0] {
		t.Fatal("Sub did not reuse dst")
	}
}

func TestScaleAXPY(t *testing.T) {
	a := []float32{1, 2, 3}
	Scale(a, 2)
	if a[0] != 2 || a[1] != 4 || a[2] != 6 {
		t.Fatalf("Scale wrong: %v", a)
	}
	y := []float32{1, 1, 1}
	AXPY(3, a, y)
	if y[0] != 7 || y[1] != 13 || y[2] != 19 {
		t.Fatalf("AXPY wrong: %v", y)
	}
}

func TestL2IdentityProperty(t *testing.T) {
	// |a-b|^2 == |a|^2 + |b|^2 - 2<a,b>
	r := xrand.New(2)
	f := func(seed uint32) bool {
		rr := xrand.New(uint64(seed) ^ r.Uint64())
		n := rr.Intn(64) + 1
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rr.Float32()*2 - 1
			b[i] = rr.Float32()*2 - 1
		}
		lhs := float64(L2Squared(a, b))
		rhs := float64(Dot(a, a)) + float64(Dot(b, b)) - 2*float64(Dot(a, b))
		return almostEq(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL2SymmetryProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rr := xrand.New(uint64(seed))
		n := rr.Intn(32) + 1
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rr.Float32()
			b[i] = rr.Float32()
		}
		return L2Squared(a, b) == L2Squared(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixRowAccess(t *testing.T) {
	m := NewMatrix(3, 4)
	m.SetRow(1, []float32{1, 2, 3, 4})
	row := m.Row(1)
	if row[2] != 3 {
		t.Fatalf("Row(1)[2] = %v", row[2])
	}
	if m.Data[6] != 3 {
		t.Fatal("SetRow did not write the backing array")
	}
}

func TestWrapMatrixValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad shape")
		}
	}()
	WrapMatrix(make([]float32, 5), 2, 3)
}

func TestArgminL2(t *testing.T) {
	m := NewMatrix(4, 2)
	m.SetRow(0, []float32{10, 10})
	m.SetRow(1, []float32{0, 1})
	m.SetRow(2, []float32{5, 5})
	m.SetRow(3, []float32{0, 2})
	idx, d := m.ArgminL2([]float32{0, 0})
	if idx != 1 || d != 1 {
		t.Fatalf("ArgminL2 = (%d, %v), want (1, 1)", idx, d)
	}
}

func TestArgminEmpty(t *testing.T) {
	m := NewMatrix(0, 3)
	idx, d := m.ArgminL2([]float32{0, 0, 0})
	if idx != -1 || !math.IsInf(float64(d), 1) {
		t.Fatalf("empty ArgminL2 = (%d, %v)", idx, d)
	}
}

func TestTopNL2Sorted(t *testing.T) {
	r := xrand.New(5)
	m := NewMatrix(100, 8)
	for i := range m.Data {
		m.Data[i] = r.Float32()
	}
	q := make([]float32, 8)
	ids, ds := m.TopNL2Into(nil, nil, q, 10)
	if len(ids) != 10 {
		t.Fatalf("got %d results", len(ids))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i] < ds[i-1] {
			t.Fatalf("distances not ascending: %v", ds)
		}
	}
	// Cross-check against exhaustive scan.
	wantBest, wantD := m.ArgminL2(q)
	if ids[0] != int32(wantBest) || ds[0] != wantD {
		t.Fatalf("TopN[0] = (%d,%v), argmin = (%d,%v)", ids[0], ds[0], wantBest, wantD)
	}
}

func TestTopNL2ClampsToRows(t *testing.T) {
	m := NewMatrix(3, 2)
	ids, _ := m.TopNL2Into(nil, nil, []float32{0, 0}, 10)
	if len(ids) != 3 {
		t.Fatalf("got %d, want 3", len(ids))
	}
}

func TestTopNMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rr := xrand.New(uint64(seed))
		rows := rr.Intn(50) + 2
		dim := rr.Intn(8) + 1
		m := NewMatrix(rows, dim)
		for i := range m.Data {
			m.Data[i] = rr.Float32()
		}
		q := make([]float32, dim)
		for i := range q {
			q[i] = rr.Float32()
		}
		n := rr.Intn(rows) + 1
		ids, ds := m.TopNL2Into(nil, nil, q, n)
		// Every returned distance must be <= every excluded distance.
		maxIn := ds[len(ds)-1]
		in := make(map[int32]bool)
		for _, id := range ids {
			in[id] = true
		}
		for i := 0; i < rows; i++ {
			if !in[int32(i)] && L2Squared(q, m.Row(i)) < maxIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkL2Squared128(b *testing.B) {
	r := xrand.New(1)
	a := make([]float32, 128)
	c := make([]float32, 128)
	for i := range a {
		a[i] = r.Float32()
		c[i] = r.Float32()
	}
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = L2Squared(a, c)
	}
	_ = sink
}

func BenchmarkTopN4096x64(b *testing.B) {
	r := xrand.New(1)
	m := NewMatrix(4096, 64)
	for i := range m.Data {
		m.Data[i] = r.Float32()
	}
	q := make([]float32, 64)
	for i := range q {
		q[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TopNL2Into(nil, nil, q, 32)
	}
}
