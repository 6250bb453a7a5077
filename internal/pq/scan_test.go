package pq

import (
	"math/rand"
	"testing"
)

// randomScanCase builds a random LUT, its quantized table, and n random
// m-byte codes.
func randomScanCase(rng *rand.Rand, n, m int) (LUT, []uint16, []uint8) {
	lut := make(LUT, m*CodebookSize)
	for i := range lut {
		lut[i] = rng.Float32() * 4
	}
	tbl := make([]uint16, len(lut))
	QuantizeWithScaleInto(tbl, lut, 1024)
	codes := make([]uint8, n*m)
	for i := range codes {
		codes[i] = uint8(rng.Intn(CodebookSize))
	}
	return lut, tbl, codes
}

// TestScanDistsMatchesReference pins the blocked kernels to the scalar
// reference bit for bit across awkward shapes: m below, at, and above the
// 4-way group width, n crossing ScanBlock, and a gather pattern.
func TestScanDistsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32} {
		for _, n := range []int{1, 3, 255, 256, 257, 1000} {
			lut, tbl, codes := randomScanCase(rng, n, m)

			dists := make([]float32, n)
			ScanDists(dists, lut, codes, m)
			qdists := make([]uint32, n)
			ScanQDists(qdists, tbl, codes, m)
			for i := 0; i < n; i++ {
				want := ADCDistance(lut, codes[i*m:(i+1)*m])
				if dists[i] != want {
					t.Fatalf("m=%d n=%d: ScanDists[%d] = %v, reference %v", m, n, i, dists[i], want)
				}
				qwant := QDistanceTab(tbl, codes[i*m:(i+1)*m])
				if qdists[i] != qwant {
					t.Fatalf("m=%d n=%d: ScanQDists[%d] = %d, reference %d", m, n, i, qdists[i], qwant)
				}
			}

			// Gather forms over a random subset, shuffled so at is not
			// monotone.
			at := make([]int32, 0, n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					at = append(at, int32(i))
				}
			}
			rng.Shuffle(len(at), func(i, j int) { at[i], at[j] = at[j], at[i] })
			ad := make([]float32, len(at))
			ScanDistsAt(ad, lut, codes, m, at)
			aq := make([]uint32, len(at))
			ScanQDistsAt(aq, tbl, codes, m, at)
			for j, a := range at {
				if want := ADCDistance(lut, codes[int(a)*m:int(a+1)*m]); ad[j] != want {
					t.Fatalf("m=%d n=%d: ScanDistsAt[%d] (pos %d) = %v, reference %v", m, n, j, a, ad[j], want)
				}
				if qwant := QDistanceTab(tbl, codes[int(a)*m:int(a+1)*m]); aq[j] != qwant {
					t.Fatalf("m=%d n=%d: ScanQDistsAt[%d] (pos %d) = %d, reference %d", m, n, j, a, aq[j], qwant)
				}
			}
		}
	}
}

// TestScanDistsEmpty covers the zero-length fast exits.
func TestScanDistsEmpty(t *testing.T) {
	lut := make(LUT, 8*CodebookSize)
	tbl := make([]uint16, len(lut))
	ScanDists(nil, lut, nil, 8)
	ScanQDists(nil, tbl, nil, 8)
	ScanDistsAt(nil, lut, nil, 8, nil)
	ScanQDistsAt(nil, tbl, nil, 8, nil)
}

// TestQuantizeWithScaleIntoMatchesQuantizeWithScale pins the into-form to
// the allocating form.
func TestQuantizeWithScaleIntoMatchesQuantizeWithScale(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := trainedQuantizer(t, rng, 16, 4)
	vec := make([]float32, 16)
	for i := range vec {
		vec[i] = rng.Float32()
	}
	lut := buildLUT(q, vec)
	ql := q.QuantizeWithScale(lut, 512)
	dst := make([]uint16, len(lut))
	QuantizeWithScaleInto(dst, lut, 512)
	for i := range dst {
		if dst[i] != ql.Table[i] {
			t.Fatalf("entry %d: %d vs %d", i, dst[i], ql.Table[i])
		}
	}
}

// trainedQuantizer trains a small quantizer for tests needing a real one.
func trainedQuantizer(t *testing.T, rng *rand.Rand, dim, m int) *Quantizer {
	t.Helper()
	_ = rng
	return train(randomData(3, 256, dim), m, 3)
}

// FuzzADCScan feeds arbitrary code bytes and LUT contents through every
// scan kernel and cross-checks each against the scalar reference. The
// fuzzer owns the shape knobs (m, n) so the unrolled group logic and the
// tails are both exercised.
func FuzzADCScan(f *testing.F) {
	f.Add(uint8(4), uint8(8), []byte{0, 1, 2, 255, 17, 3, 9, 200})
	f.Add(uint8(1), uint8(1), []byte{42})
	f.Add(uint8(7), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint8, raw []byte) {
		m := int(mRaw)%12 + 1
		n := int(nRaw)%40 + 1
		codes := make([]uint8, n*m)
		rng := rand.New(rand.NewSource(int64(len(raw))))
		for i := range codes {
			if i < len(raw) {
				codes[i] = raw[i]
			} else {
				codes[i] = uint8(rng.Intn(CodebookSize))
			}
		}
		lut := make(LUT, m*CodebookSize)
		for i := range lut {
			lut[i] = rng.Float32() * 8
		}
		tbl := make([]uint16, len(lut))
		QuantizeWithScaleInto(tbl, lut, 256)

		dists := make([]float32, n)
		ScanDists(dists, lut, codes, m)
		qdists := make([]uint32, n)
		ScanQDists(qdists, tbl, codes, m)
		at := make([]int32, n)
		for i := range at {
			at[i] = int32(n - 1 - i)
		}
		ad := make([]float32, n)
		ScanDistsAt(ad, lut, codes, m, at)
		aq := make([]uint32, n)
		ScanQDistsAt(aq, tbl, codes, m, at)
		for i := 0; i < n; i++ {
			c := codes[i*m : (i+1)*m]
			if want := ADCDistance(lut, c); dists[i] != want {
				t.Fatalf("ScanDists[%d] = %v, reference %v (m=%d n=%d)", i, dists[i], want, m, n)
			}
			if qwant := QDistanceTab(tbl, c); qdists[i] != qwant {
				t.Fatalf("ScanQDists[%d] = %d, reference %d (m=%d n=%d)", i, qdists[i], qwant, m, n)
			}
			ri := n - 1 - i // at[ri] == i
			if dists[i] != ad[ri] {
				t.Fatalf("ScanDistsAt diverges at %d: %v vs %v", i, ad[ri], dists[i])
			}
			if qdists[i] != aq[ri] {
				t.Fatalf("ScanQDistsAt diverges at %d: %d vs %d", i, aq[ri], qdists[i])
			}
		}
	})
}
