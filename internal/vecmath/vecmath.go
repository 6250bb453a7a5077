// Package vecmath implements the dense float32 vector primitives used by
// every index and backend in the repository: squared L2 distance,
// residual computation, and batched argmin scans.
//
// Squared L2 has one summation contract: four lane accumulators s0..s3,
// where element i adds to lane i%4 (tail elements past the last full
// group of four add to s0), every product rounded to float32 before it
// is added, and the lanes summed as ((s0+s1)+s2)+s3. l2Ref spells it in
// Go. On amd64 the SSE assembly kernel in l2_amd64.s holds the four
// lanes in one XMM register and computes four rows per pass; it returns
// l2Ref's bits (a NaN where l2Ref returns a NaN: Go pins no NaN
// payload), so every distance, argmin, trained centroid and PQ code is
// the same on every GOARCH. Other GOARCHes, and dimensions that are not
// a multiple of 4, run l2Ref.
package vecmath

import "math"

// L2Squared returns the squared Euclidean distance between a and b.
// It panics if the lengths differ.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	if len(a) < 16 {
		// Below 16 floats the call into the kernel costs more than
		// the loop it replaces; the bits are the same either way.
		return l2Ref(a, b)
	}
	var d [1]float32
	l2Rows(d[:], a, b)
	return d[0]
}

// L2Rows sets dst[i] to L2Squared(q, row i), bit for bit, for the
// len(dst) consecutive rows of len(q) floats at the start of rows. It
// panics if rows is shorter than len(dst)*len(q).
func L2Rows(dst, q, rows []float32) {
	l2Rows(dst, q, rows[:len(dst)*len(q)])
}

// l2Ref is the scalar reference for the summation contract in the
// package comment, and what L2Squared runs where no kernel applies.
//
// Every product is rounded by an explicit float32 conversion. The Go
// spec lets a compiler fuse x*y+z into one FMA (arm64 does), and the
// conversion forbids that, so the result — and every LUT built from it —
// is the same on every GOARCH. The SSE kernel, and pq's BuildLUTInto
// and Encode on L2Rows, rely on this.
func l2Ref(a, b []float32) float32 {
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

// L2RowsReference is L2Rows computed by the scalar reference, one l2Ref
// call per row: what the kernel is pinned to, kept exported so the
// kernels benchmark can time the two against each other.
func L2RowsReference(dst, q, rows []float32) {
	d := len(q)
	for i := range dst {
		dst[i] = l2Ref(q, rows[i*d:(i+1)*d])
	}
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

// blockRows is how many distances ArgminL2 and TopNL2Into compute per
// kernel call into a stack block before selecting from it.
const blockRows = 64

// ArgminL2 scans rows of m and returns the index of the row closest to q
// in squared L2 along with that distance. Ties go to the lowest index.
// Returns (-1, +Inf) for an empty matrix. When every distance overflows
// to +Inf (coordinates near the float32 range), the first row wins:
// callers index by the result. A NaN distance never displaces an earlier
// row; a NaN in row 0 is never displaced. Panics if len(q) != Dim on a
// non-empty matrix.
func (m *Matrix) ArgminL2(q []float32) (int, float32) {
	if m.Rows == 0 {
		return -1, float32(math.Inf(1))
	}
	if len(q) != m.Dim {
		panic("vecmath: length mismatch")
	}
	var block [blockRows]float32
	best, bestD := 0, float32(0)
	for lo := 0; lo < m.Rows; lo += blockRows {
		ds := block[:min(blockRows, m.Rows-lo)]
		l2Rows(ds, q, m.Data[lo*m.Dim:(lo+len(ds))*m.Dim])
		if lo == 0 {
			bestD = ds[0]
		}
		if i := argminBelow(ds, bestD); i >= 0 {
			best, bestD = lo+i, ds[i]
		}
	}
	return best, bestD
}

// TopNL2Into returns the indices of the n rows closest to q in ascending
// distance order, together with their distances, in caller-provided
// backing: ids and ds (either may be nil) are truncated and reused when
// their capacity covers n (no allocation), and grown otherwise. n is
// clamped to Rows; the returned slices share backing with the inputs when
// capacity sufficed. A row must be strictly closer than the current n-th
// to enter, so among equal distances the lowest indices are kept; within
// a tie a later row sorts ahead of an earlier one.
func (m *Matrix) TopNL2Into(ids []int32, ds []float32, q []float32, n int) ([]int32, []float32) {
	if n > m.Rows {
		n = m.Rows
	}
	if n <= 0 {
		return nil, nil
	}
	if len(q) != m.Dim {
		panic("vecmath: length mismatch")
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
	var block [blockRows]float32
	for lo := 0; lo < m.Rows; lo += blockRows {
		blk := block[:min(blockRows, m.Rows-lo)]
		l2Rows(blk, q, m.Data[lo*m.Dim:(lo+len(blk))*m.Dim])
		for j, d := range blk {
			if len(ds) == n && d >= ds[n-1] {
				continue
			}
			// Find insertion point.
			at, hi := 0, len(ds)
			for at < hi {
				mid := (at + hi) / 2
				if ds[mid] < d {
					at = mid + 1
				} else {
					hi = mid
				}
			}
			if len(ds) < n {
				ids = append(ids, 0)
				ds = append(ds, 0)
			}
			copy(ids[at+1:], ids[at:])
			copy(ds[at+1:], ds[at:])
			ids[at] = int32(lo + j)
			ds[at] = d
		}
	}
	return ids, ds
}
