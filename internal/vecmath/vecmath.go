// Package vecmath implements the dense float32 vector primitives used by
// every index and backend in the repository: squared L2 distance, inner
// product, residual computation, and batched argmin scans. Hot loops are
// written with 4-way manual unrolling, which the Go compiler turns into
// reasonable straight-line code without cgo or assembly.
package vecmath

import "math"

// L2Squared returns the squared Euclidean distance between a and b.
// It panics if the lengths differ.
//
// Every product is rounded by an explicit float32 conversion. The Go
// spec lets a compiler fuse x*y+z into one FMA (arm64 does), and the
// conversion forbids that, so the result — and every LUT built from it —
// is the same on every GOARCH. pq's dsub-8 LUT kernel relies on this.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float32(d * d)
	}
	return s0 + s1 + s2 + s3
}

// Sub stores a-b into dst and returns dst. If dst is nil or too short a new
// slice is allocated. Panics if len(a) != len(b).
func Sub(dst, a, b []float32) []float32 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	if len(dst) < len(a) {
		dst = make([]float32, len(a))
	}
	dst = dst[:len(a)]
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Matrix is a dense row-major collection of equal-length float32 vectors
// backed by one contiguous allocation, the layout every backend shares.
type Matrix struct {
	Data []float32 // len == Rows*Dim
	Rows int
	Dim  int
}

// NewMatrix allocates a zeroed rows x dim matrix.
func NewMatrix(rows, dim int) *Matrix {
	if rows < 0 || dim <= 0 {
		panic("vecmath: invalid matrix shape")
	}
	return &Matrix{Data: make([]float32, rows*dim), Rows: rows, Dim: dim}
}

// WrapMatrix wraps an existing flat buffer as a matrix. Panics if the
// buffer length is not rows*dim.
func WrapMatrix(data []float32, rows, dim int) *Matrix {
	if len(data) != rows*dim {
		panic("vecmath: buffer length does not match shape")
	}
	return &Matrix{Data: data, Rows: rows, Dim: dim}
}

// Row returns the i-th vector as a subslice (no copy).
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// SetRow copies v into row i. Panics if len(v) != Dim.
func (m *Matrix) SetRow(i int, v []float32) {
	if len(v) != m.Dim {
		panic("vecmath: SetRow length mismatch")
	}
	copy(m.Row(i), v)
}

// ArgminL2 scans rows of m and returns the index of the row closest to q
// in squared L2 along with that distance. Returns (-1, +Inf) for an empty
// matrix. When every distance overflows to +Inf (coordinates near the
// float32 range), the first row wins: callers index by the result.
func (m *Matrix) ArgminL2(q []float32) (int, float32) {
	best := -1
	bestD := float32(math.Inf(1))
	for i := 0; i < m.Rows; i++ {
		d := L2Squared(q, m.Row(i))
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// TopNL2Into returns the indices of the n rows closest to q in ascending
// distance order, together with their distances, in caller-provided
// backing: ids and ds (either may be nil) are truncated and reused when
// their capacity covers n (no allocation), and grown otherwise. n is
// clamped to Rows; the returned slices share backing with the inputs when
// capacity sufficed.
func (m *Matrix) TopNL2Into(ids []int32, ds []float32, q []float32, n int) ([]int32, []float32) {
	if n > m.Rows {
		n = m.Rows
	}
	if n <= 0 {
		return nil, nil
	}
	if cap(ids) < n {
		ids = make([]int32, 0, n)
	}
	if cap(ds) < n {
		ds = make([]float32, 0, n)
	}
	// Bounded insertion into a sorted prefix: for the small n used in
	// cluster filtering (nprobe << |C|) this beats a heap in practice.
	ids = ids[:0]
	ds = ds[:0]
	for i := 0; i < m.Rows; i++ {
		d := L2Squared(q, m.Row(i))
		if len(ds) == n && d >= ds[n-1] {
			continue
		}
		// Find insertion point.
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
