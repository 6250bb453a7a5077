package vecmath

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/xrand"
)

// l2Scales spans denormal squares (1e-20² is below float32's smallest
// normal) through overflow to +Inf (1e30² is above its largest).
var l2Scales = []float32{1e-20, 1e-10, 1, 1e10, 1e19, 1e30}

// l2Specials are the IEEE values sprinkled into some inputs.
var l2Specials = []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
	-float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

// sameBits reports whether a kernel result matches the reference: the
// same float32 bits, or NaN for NaN. Which operand's NaN payload an add
// propagates is not part of the contract: Go does not define it, and the
// compiler may commute the reference's own adds (a coverage-instrumented
// build of l2Ref returns a different payload than a plain one).
func sameBits(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (got != got && want != want)
}

// fillL2 fills v with uniform values in [-scale, scale); with special
// set, about one value in eight is replaced by an IEEE special.
func fillL2(r *xrand.RNG, v []float32, scale float32, special bool) {
	for i := range v {
		v[i] = (2*uniform32(r) - 1) * scale
		if special && r.Intn(8) == 0 {
			v[i] = l2Specials[r.Intn(len(l2Specials))]
		}
	}
}

// checkL2Rows runs l2Rows on n rows of dim floats and requires every
// result to have l2Ref's exact bits, and dst past n to stay untouched.
func checkL2Rows(t *testing.T, r *xrand.RNG, dim, n int, scale float32, special bool) {
	t.Helper()
	q := make([]float32, dim)
	rows := make([]float32, n*dim)
	fillL2(r, q, scale, special)
	fillL2(r, rows, scale, special)
	const sentinel = 12345
	dst := make([]float32, n+1)
	dst[n] = sentinel
	l2Rows(dst[:n], q, rows)
	for i := 0; i < n; i++ {
		want := l2Ref(q, rows[i*dim:(i+1)*dim])
		if !sameBits(dst[i], want) {
			t.Fatalf("dim %d rows %d scale %g special %v: row %d = %v (%#08x), reference %v (%#08x)",
				dim, n, scale, special, i, dst[i], math.Float32bits(dst[i]), want, math.Float32bits(want))
		}
	}
	if dst[n] != sentinel {
		t.Fatalf("dim %d rows %d: wrote past dst", dim, n)
	}
}

// TestL2RowsMatchesReference pins the kernel to the scalar reference bit
// for bit: every dim 1..260 (multiples of 4 run the kernel, the rest the
// fallback) at 67 rows (16 four-row passes and a 3-row tail), every row
// count 0..67 at the dims that matter (PQ's 8, SIFT's 128, deep's 96,
// and odd shapes), each across magnitudes from denormal to overflow,
// with and without ±0, NaN and ±Inf inputs.
func TestL2RowsMatchesReference(t *testing.T) {
	r := xrand.New(40)
	for dim := 1; dim <= 260; dim++ {
		for _, scale := range l2Scales {
			checkL2Rows(t, r, dim, 67, scale, false)
		}
		checkL2Rows(t, r, dim, 67, 1, true)
	}
	for _, dim := range []int{1, 3, 4, 7, 8, 12, 96, 128, 132} {
		for n := 0; n <= 67; n++ {
			for _, scale := range l2Scales {
				checkL2Rows(t, r, dim, n, scale, n%2 == 0)
			}
		}
	}
}

// TestL2SquaredMatchesReference checks the single-row entry point the
// same way, including the kernel's one-row tail path.
func TestL2SquaredMatchesReference(t *testing.T) {
	r := xrand.New(41)
	for dim := 1; dim <= 260; dim++ {
		for _, scale := range l2Scales {
			a := make([]float32, dim)
			b := make([]float32, dim)
			fillL2(r, a, scale, dim%3 == 0)
			fillL2(r, b, scale, dim%3 == 0)
			got, want := L2Squared(a, b), l2Ref(a, b)
			if !sameBits(got, want) {
				t.Fatalf("dim %d scale %g: L2Squared %v, reference %v", dim, scale, got, want)
			}
		}
	}
}

// argminBelowRef is the scalar scan argminBelow must match: the index
// where `if d < best` ends when best starts at bound, or -1.
func argminBelowRef(ds []float32, bound float32) int {
	best := -1
	for i, d := range ds {
		if d < bound {
			best, bound = i, d
		}
	}
	return best
}

// TestArgminBelowMatchesReference pins the selection kernel to the
// scalar scan at every length 0..67 (the 4-wide body and the tail), for
// bounds below, inside and above the data, NaN bounds, ties and NaNs.
func TestArgminBelowMatchesReference(t *testing.T) {
	r := xrand.New(42)
	vals := []float32{0, 1, 2, 3, float32(math.Inf(1)), float32(math.NaN())}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 50; trial++ {
			ds := make([]float32, n)
			for i := range ds {
				ds[i] = vals[r.Intn(len(vals))]
				if trial%2 == 0 {
					ds[i] = float32(r.Intn(1000)) // few ties
				}
			}
			for _, bound := range []float32{-1, 0, 1, 2.5, 999, float32(math.Inf(1)), float32(math.NaN())} {
				if got, want := argminBelow(ds, bound), argminBelowRef(ds, bound); got != want {
					t.Fatalf("n %d bound %v %v: argminBelow = %d, reference %d", n, bound, ds, got, want)
				}
			}
		}
	}
}

func TestL2RowsPanicsOnShortRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when rows hold fewer than len(dst) rows")
		}
	}()
	L2Rows(make([]float32, 3), make([]float32, 4), make([]float32, 11))
}

// FuzzL2Rows drives the kernel with arbitrary float bits: the fuzzer
// picks the dimension, the row count and every input value.
func FuzzL2Rows(f *testing.F) {
	f.Add(uint8(8), uint8(5), []byte{0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0xc0, 0x7f})
	f.Add(uint8(128), uint8(4), []byte{0xff, 0xff, 0x7f, 0x7f, 0x01, 0x00, 0x00, 0x00})
	f.Add(uint8(3), uint8(9), []byte{0x00, 0x00, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, dim, n uint8, raw []byte) {
		d, rows := int(dim)%160+1, int(n)%70
		vals := make([]float32, d*(rows+1))
		for i := range vals {
			if len(raw) >= 4 {
				j := 4 * (i % (len(raw) / 4))
				vals[i] = math.Float32frombits(uint32(raw[j]) | uint32(raw[j+1])<<8 | uint32(raw[j+2])<<16 | uint32(raw[j+3])<<24)
				raw[j] ^= byte(i) // vary repeated words
			}
		}
		q, data := vals[:d], vals[d:]
		dst := make([]float32, rows)
		L2Rows(dst, q, data)
		for i := range dst {
			want := l2Ref(q, data[i*d:(i+1)*d])
			if !sameBits(dst[i], want) {
				t.Fatalf("dim %d rows %d: row %d = %#08x, reference %#08x",
					d, rows, i, math.Float32bits(dst[i]), math.Float32bits(want))
			}
		}
	})
}

func BenchmarkL2Squared(b *testing.B) {
	for _, dim := range []int{8, 12, 16, 24, 32, 64, 128} {
		r := xrand.New(1)
		x := make([]float32, dim)
		y := make([]float32, dim)
		fillL2(r, x, 1, false)
		fillL2(r, y, 1, false)
		b.Run("ref/dim="+strconv.Itoa(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l2Sink = l2Ref(x, y)
			}
		})
		b.Run("kernel/dim="+strconv.Itoa(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l2Sink = L2Squared(x, y)
			}
		})
	}
}

var l2Sink float32

func BenchmarkL2Rows(b *testing.B) {
	for _, dim := range []int{8, 128} {
		r := xrand.New(1)
		q := make([]float32, dim)
		rows := make([]float32, 256*dim)
		fillL2(r, q, 1, false)
		fillL2(r, rows, 1, false)
		dst := make([]float32, 256)
		b.Run("ref/dim="+strconv.Itoa(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				L2RowsReference(dst, q, rows)
			}
		})
		b.Run("kernel/dim="+strconv.Itoa(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l2Rows(dst, q, rows)
			}
		})
	}
}
