//go:build !purego

package vecmath

// l2RowsSSE is the SSE kernel in l2_amd64.s. Each row keeps one XMM
// accumulator whose four lanes are L2Squared's s0..s3, so its results
// are bit-identical to l2Ref's. SSE2 is part of the amd64 baseline.
//
//go:noescape
func l2RowsSSE(dst, q, rows []float32)

// l2Rows runs the SSE kernel when len(q) is a multiple of 4, the shape
// it handles, and the scalar reference otherwise. rows holds at least
// len(dst)*len(q) floats.
func l2Rows(dst, q, rows []float32) {
	if len(q)%4 != 0 {
		L2RowsReference(dst, q, rows)
		return
	}
	l2RowsSSE(dst, q, rows)
}

// argminBelow returns the index of the first minimum of ds when it is
// below bound, else -1; SSE assembly in l2_amd64.s.
//
//go:noescape
func argminBelow(ds []float32, bound float32) int
