package vecmath

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// uniform32 returns a uniform float32 in [0, 1).
func uniform32(r *xrand.RNG) float32 { return float32(r.Uint64()>>40) / (1 << 24) }

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

func TestSubAddRoundTrip(t *testing.T) {
	r := xrand.New(1)
	a := make([]float32, 33)
	b := make([]float32, 33)
	for i := range a {
		a[i] = uniform32(r)
		b[i] = uniform32(r)
	}
	d := Sub(nil, a, b)
	for i := range a {
		if back := d[i] + b[i]; !almostEq(float64(back), float64(a[i]), 1e-6) {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, back, a[i])
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

func TestL2IdentityProperty(t *testing.T) {
	// |a-b|^2 == |a|^2 + |b|^2 - 2<a,b>
	r := xrand.New(2)
	f := func(seed uint32) bool {
		rr := xrand.New(uint64(seed) ^ r.Uint64())
		n := rr.Intn(64) + 1
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = uniform32(rr)*2 - 1
			b[i] = uniform32(rr)*2 - 1
		}
		lhs := float64(L2Squared(a, b))
		var rhs float64
		for i := range a {
			rhs += float64(a[i])*float64(a[i]) + float64(b[i])*float64(b[i]) - 2*float64(a[i])*float64(b[i])
		}
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
			a[i] = uniform32(rr)
			b[i] = uniform32(rr)
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
	// Every squared distance overflows to +Inf: a row must still win.
	if idx, _ := m.ArgminL2([]float32{3e38, -3e38}); idx != 0 {
		t.Fatalf("ArgminL2 with overflowing distances = %d, want 0", idx)
	}
	// Duplicated rows: the lowest index wins, in any block.
	dup := NewMatrix(200, 4)
	for i := 0; i < dup.Rows; i++ {
		dup.SetRow(i, []float32{float32(i % 7), 1, 2, 3})
	}
	if idx, d := dup.ArgminL2([]float32{0, 1, 2, 3}); idx != 0 || d != 0 {
		t.Fatalf("ArgminL2 over duplicates = (%d, %v), want (0, 0)", idx, d)
	}
	if idx, _ := dup.ArgminL2([]float32{6, 1, 2, 3}); idx != 6 {
		t.Fatalf("ArgminL2 over duplicates = %d, want 6", idx)
	}
	// A dimension mismatch still panics.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on query length mismatch")
		}
	}()
	m.ArgminL2([]float32{0, 0, 0})
}

// argminOld and topNOld are ArgminL2 and TopNL2Into as they were before
// the row-block kernel: one L2Squared call and one comparison per row.
// The block paths must agree with them on every input, NaNs included.
func argminOld(m *Matrix, q []float32) (int, float32) {
	best := -1
	bestD := float32(math.Inf(1))
	for i := 0; i < m.Rows; i++ {
		d := l2Ref(q, m.Row(i))
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func topNOld(m *Matrix, q []float32, n int) ([]int32, []float32) {
	var ids []int32
	var ds []float32
	for i := 0; i < m.Rows; i++ {
		d := l2Ref(q, m.Row(i))
		if len(ds) == n && d >= ds[n-1] {
			continue
		}
		lo, hi := 0, len(ds)
		for lo < hi {
			mid := (lo + hi) / 2
			if ds[mid] < d {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if len(ds) < n {
			ids = append(ids, 0)
			ds = append(ds, 0)
		}
		copy(ids[lo+1:], ids[lo:])
		copy(ds[lo+1:], ds[lo:])
		ids[lo] = int32(i)
		ds[lo] = d
	}
	return ids, ds
}

// randomL2Matrix draws a rows x dim matrix whose rows are sometimes
// duplicated, sometimes all +Inf away from the origin, and sometimes
// NaN, so ties, overflow and NaN rows all reach the selection.
func randomL2Matrix(r *xrand.RNG, rows, dim int) *Matrix {
	m := NewMatrix(rows, dim)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		switch r.Intn(8) {
		case 0:
			if i > 0 {
				copy(row, m.Row(r.Intn(i)))
				continue
			}
		case 1:
			for j := range row {
				row[j] = 3e38
			}
			continue
		case 2:
			row[r.Intn(dim)] = float32(math.NaN())
		}
		for j := range row {
			if row[j] == 0 {
				row[j] = float32(r.Intn(4))
			}
		}
	}
	return m
}

func TestArgminL2MatchesOldLoop(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 400; trial++ {
		rows, dim := 1+r.Intn(200), []int{1, 3, 4, 8, 12}[r.Intn(5)]
		m := randomL2Matrix(r, rows, dim)
		q := make([]float32, dim)
		switch trial % 4 {
		case 1:
			q[0] = -3e38 // every distance overflows to +Inf
		case 2:
			q[0] = float32(math.NaN())
		default:
			copy(q, m.Row(r.Intn(rows)))
		}
		gi, gd := m.ArgminL2(q)
		wi, wd := argminOld(m, q)
		if gi != wi || !sameBits(gd, wd) {
			t.Fatalf("trial %d (%dx%d): ArgminL2 = (%d, %v), old loop (%d, %v)", trial, rows, dim, gi, gd, wi, wd)
		}
	}
}

func TestTopNL2MatchesOldLoop(t *testing.T) {
	r := xrand.New(8)
	for trial := 0; trial < 400; trial++ {
		rows, dim := 1+r.Intn(200), []int{1, 3, 4, 8, 12}[r.Intn(5)]
		m := randomL2Matrix(r, rows, dim)
		q := make([]float32, dim)
		if trial%3 == 1 {
			q[0] = -3e38
		} else {
			copy(q, m.Row(r.Intn(rows)))
		}
		n := 1 + r.Intn(rows)
		gi, gd := m.TopNL2Into(nil, nil, q, n)
		wi, wd := topNOld(m, q, n)
		if len(gi) != len(wi) {
			t.Fatalf("trial %d: %d results, old loop %d", trial, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] || !sameBits(gd[i], wd[i]) {
				t.Fatalf("trial %d (%dx%d, n %d) rank %d: (%d, %v), old loop (%d, %v)",
					trial, rows, dim, n, i, gi[i], gd[i], wi[i], wd[i])
			}
		}
	}
}

func TestTopNL2Edges(t *testing.T) {
	// Duplicates keep the lowest indices (a later row must be strictly
	// closer to enter), a later one sorting first within the tie, as the
	// per-row loop always did; all +Inf keeps rows 0 and 1 the same way.
	m := NewMatrix(130, 4)
	for i := 0; i < m.Rows; i++ {
		m.SetRow(i, []float32{float32(i % 2), 0, 0, 0})
	}
	ids, _ := m.TopNL2Into(nil, nil, []float32{0, 0, 0, 0}, 3)
	if ids[0] != 4 || ids[1] != 2 || ids[2] != 0 {
		t.Fatalf("TopNL2 over duplicates = %v, want [4 2 0]", ids)
	}
	ids, ds := m.TopNL2Into(nil, nil, []float32{-3e38, 0, 0, 0}, 2)
	if ids[0] != 1 || ids[1] != 0 || !math.IsInf(float64(ds[0]), 1) {
		t.Fatalf("TopNL2 over +Inf distances = %v %v, want [1 0]", ids, ds)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on query length mismatch")
		}
	}()
	m.TopNL2Into(nil, nil, []float32{0, 0}, 2)
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
		m.Data[i] = uniform32(r)
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
			m.Data[i] = uniform32(rr)
		}
		q := make([]float32, dim)
		for i := range q {
			q[i] = uniform32(rr)
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

// TestBlockScansAllocateNothing: the distance block lives on the stack,
// so ArgminL2, and TopNL2Into with caller backing, allocate nothing.
func TestBlockScansAllocateNothing(t *testing.T) {
	r := xrand.New(9)
	m := randomL2Matrix(r, 300, 8)
	q := make([]float32, 8)
	ids, ds := make([]int32, 0, 10), make([]float32, 0, 10)
	if n := testing.AllocsPerRun(50, func() { m.ArgminL2(q) }); n != 0 {
		t.Fatalf("ArgminL2 allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.TopNL2Into(ids, ds, q, 10) }); n != 0 {
		t.Fatalf("TopNL2Into allocates %v per call", n)
	}
}

func BenchmarkTopN4096x64(b *testing.B) {
	r := xrand.New(1)
	m := NewMatrix(4096, 64)
	for i := range m.Data {
		m.Data[i] = uniform32(r)
	}
	q := make([]float32, 64)
	for i := range q {
		q[i] = uniform32(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TopNL2Into(nil, nil, q, 32)
	}
}

// BenchmarkArgminL2 times the block fill plus the first-minimum
// selection at the index build's two shapes: PQ training (256
// codewords of dsub 8) and coarse training (1024 centroids of dim 128).
func BenchmarkArgminL2(b *testing.B) {
	for _, shape := range []struct{ rows, dim int }{{256, 8}, {1024, 128}} {
		r := xrand.New(1)
		m := NewMatrix(shape.rows, shape.dim)
		for i := range m.Data {
			m.Data[i] = uniform32(r)
		}
		qs := make([][]float32, 64)
		for i := range qs {
			qs[i] = make([]float32, shape.dim)
			for j := range qs[i] {
				qs[i][j] = uniform32(r)
			}
		}
		b.Run(fmt.Sprintf("rows=%d/dim=%d", shape.rows, shape.dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				argminSink, _ = m.ArgminL2(qs[i%len(qs)])
			}
		})
	}
}

var argminSink int
