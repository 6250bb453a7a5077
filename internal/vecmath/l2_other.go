//go:build !amd64 || purego

package vecmath

// l2Rows is the scalar reference on every GOARCH without a kernel.
func l2Rows(dst, q, rows []float32) { L2RowsReference(dst, q, rows) }

// argminBelow returns the index of the first minimum of ds when it is
// below bound, else -1: where `if d < best` ends when best starts at
// bound. NaNs never win, and a NaN bound admits nothing.
func argminBelow(ds []float32, bound float32) int {
	best := -1
	for i, d := range ds {
		if d < bound {
			best, bound = i, d
		}
	}
	return best
}
