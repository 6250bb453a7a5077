package pq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

func randomData(seed uint64, rows, dim int) *vecmath.Matrix {
	r := xrand.New(seed)
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

func TestTrainShapes(t *testing.T) {
	data := randomData(1, 2000, 32)
	q := Train(data, 8, 1)
	if q.Dsub != 4 || q.M != 8 || q.Dim != 32 {
		t.Fatalf("bad shapes: %+v", q)
	}
	if len(q.Codebooks) != 8*CodebookSize*4 {
		t.Fatalf("codebook size %d", len(q.Codebooks))
	}
	if q.CodeBytes() != 8 {
		t.Fatalf("CodeBytes = %d", q.CodeBytes())
	}
}

func TestTrainPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Train(randomData(1, 10, 10), 3, 1)
}

func TestEncodeDecodeReducesError(t *testing.T) {
	data := randomData(2, 3000, 16)
	q := Train(data, 4, 2)
	var quantErr, norm float64
	dec := make([]float32, 16)
	codes := make([]uint8, 4)
	for i := 0; i < 200; i++ {
		v := data.Row(i)
		q.Encode(codes, v)
		q.Decode(dec, codes)
		quantErr += float64(vecmath.L2Squared(v, dec))
		norm += float64(vecmath.Dot(v, v))
	}
	// PQ with 256 centroids per 4-dim subspace should capture most energy.
	if quantErr/norm > 0.35 {
		t.Errorf("relative quantization error %v too high", quantErr/norm)
	}
}

func TestEncodeIdempotentOnCodebookEntries(t *testing.T) {
	data := randomData(3, 1000, 8)
	q := Train(data, 2, 3)
	// A vector assembled from codebook entries must reconstruct exactly.
	vec := make([]float32, 8)
	copy(vec[0:4], q.CodebookEntry(0, 17))
	copy(vec[4:8], q.CodebookEntry(1, 203))
	got := q.Encode(nil, vec)
	// Distance must be zero even if another entry is identical.
	dec := q.Decode(nil, got)
	if d := vecmath.L2Squared(vec, dec); d != 0 {
		t.Fatalf("reconstruction distance %v for exact codebook vector (codes %v)", d, got)
	}
}

func TestADCMatchesDecodedDistance(t *testing.T) {
	data := randomData(4, 2000, 24)
	q := Train(data, 6, 4)
	r := xrand.New(99)
	codes := make([]uint8, 6)
	dec := make([]float32, 24)
	for trial := 0; trial < 50; trial++ {
		query := make([]float32, 24)
		for i := range query {
			query[i] = float32(r.NormFloat64())
		}
		v := data.Row(r.Intn(data.Rows))
		q.Encode(codes, v)
		q.Decode(dec, codes)
		lut := q.BuildLUT(query)
		adc := float64(ADCDistance(lut, codes))
		direct := float64(vecmath.L2Squared(query, dec))
		if math.Abs(adc-direct) > 1e-3*(1+direct) {
			t.Fatalf("ADC %v != direct %v", adc, direct)
		}
	}
}

func TestADCPropertyRandomCodes(t *testing.T) {
	data := randomData(5, 1500, 8)
	q := Train(data, 4, 5)
	f := func(seed uint32, c0, c1, c2, c3 uint8) bool {
		r := xrand.New(uint64(seed))
		query := make([]float32, 8)
		for i := range query {
			query[i] = float32(r.NormFloat64())
		}
		codes := []uint8{c0, c1, c2, c3}
		lut := q.BuildLUT(query)
		adc := float64(ADCDistance(lut, codes))
		direct := float64(vecmath.L2Squared(query, q.Decode(nil, codes)))
		return math.Abs(adc-direct) <= 1e-3*(1+direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeMonotonicity(t *testing.T) {
	// Quantized distances must (approximately) preserve the ordering of
	// float distances across many candidates.
	data := randomData(6, 3000, 16)
	q := Train(data, 4, 6)
	r := xrand.New(7)
	query := make([]float32, 16)
	for i := range query {
		query[i] = float32(r.NormFloat64())
	}
	lut := q.BuildLUT(query)
	ql := q.Quantize(lut)

	type pair struct {
		f  float32
		qd uint32
	}
	pairs := make([]pair, 300)
	codes := make([]uint8, 4)
	for i := range pairs {
		q.Encode(codes, data.Row(i))
		pairs[i] = pair{ADCDistance(lut, codes), ql.QDistance(codes)}
	}
	// Count strong inversions: float says clearly smaller but integer says
	// larger. Allow slack for quantization rounding.
	inv := 0
	for i := range pairs {
		for j := range pairs {
			if pairs[i].f < pairs[j].f*0.98 && pairs[i].qd > pairs[j].qd {
				inv++
			}
		}
	}
	if inv > 0 {
		t.Errorf("%d strong order inversions after uint16 quantization", inv)
	}
}

func TestQuantizeRoundTripScale(t *testing.T) {
	data := randomData(8, 1000, 8)
	q := Train(data, 2, 8)
	r := xrand.New(11)
	query := make([]float32, 8)
	for i := range query {
		query[i] = float32(r.NormFloat64())
	}
	lut := q.BuildLUT(query)
	ql := q.Quantize(lut)
	codes := make([]uint8, 2)
	for i := 0; i < 100; i++ {
		q.Encode(codes, data.Row(i))
		fd := float64(ADCDistance(lut, codes))
		qd := float64(ql.ToFloat(ql.QDistance(codes)))
		if math.Abs(fd-qd) > 0.01*(1+fd) {
			t.Fatalf("quantized distance %v far from float %v", qd, fd)
		}
	}
}

func TestQuantizeAllZerosLUT(t *testing.T) {
	data := randomData(9, 600, 8)
	q := Train(data, 2, 9)
	lut := make(LUT, 2*CodebookSize) // all zeros
	ql := q.Quantize(lut)
	if ql.QDistance([]uint8{0, 1}) != 0 {
		t.Fatal("zero LUT must give zero distances")
	}
	if ql.ToFloat(0) != 0 {
		t.Fatal("ToFloat(0) != 0")
	}
}

func TestBuildLUTIntoValidation(t *testing.T) {
	data := randomData(10, 600, 8)
	q := Train(data, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short LUT")
		}
	}()
	q.BuildLUTInto(make(LUT, 10), make([]float32, 8))
}

func TestEncodeReusesDst(t *testing.T) {
	data := randomData(11, 600, 8)
	q := Train(data, 2, 11)
	dst := make([]uint8, 2)
	out := q.Encode(dst, data.Row(0))
	if &out[0] != &dst[0] {
		t.Fatal("Encode did not reuse dst")
	}
}

// randomQuantizer builds an untrained quantizer with Gaussian codebook
// entries of the given scale — enough to exercise LUT construction at any
// shape without paying k-means.
func randomQuantizer(r *xrand.RNG, m, dsub, ksub int, scale float64) *Quantizer {
	q := &Quantizer{Dim: m * dsub, M: m, Dsub: dsub, KSub: ksub, Codebooks: make([]float32, m*ksub*dsub)}
	for i := range q.Codebooks {
		q.Codebooks[i] = float32(r.NormFloat64() * scale)
	}
	return q
}

// sameBits reports whether a and b are the same float32 bit pattern;
// any two NaNs count as equal, since IEEE leaves NaN payloads to the
// hardware.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkLUTMatchesReference builds vec's table with BuildLUTInto and
// BuildLUTReference and demands bitwise-equal float tables and equal
// uint16 tables at every scale.
func checkLUTMatchesReference(t *testing.T, label string, q *Quantizer, vec []float32, scales []float32) {
	t.Helper()
	got, want := make(LUT, q.M*CodebookSize), make(LUT, q.M*CodebookSize)
	q.BuildLUTInto(got, vec)
	q.BuildLUTReference(want, vec)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)", label, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	gq, wq := make([]uint16, len(got)), make([]uint16, len(want))
	for _, s := range scales {
		QuantizeWithScaleInto(gq, got, s)
		QuantizeWithScaleInto(wq, want, s)
		for i := range gq {
			if gq[i] != wq[i] {
				t.Fatalf("%s: scale %v: u16 entry %d = %d, reference %d", label, s, i, gq[i], wq[i])
			}
		}
	}
}

// TestBuildLUTMatchesReference pins BuildLUTInto — the dsub-8 row kernel
// and the dispatch around it — to the scalar BuildLUTReference bit for
// bit, float and uint16 tables alike, across subspace widths, codebook
// sizes and query magnitudes from 1e-4 to 1e4. The third scale
// saturates part of every table at 65535.
func TestBuildLUTMatchesReference(t *testing.T) {
	r := xrand.New(27)
	for _, dsub := range []int{1, 2, 3, 4, 8, 16} {
		for _, ksub := range []int{2, 17, 256} {
			for _, mag := range []float64{1e-4, 1e-2, 1, 1e2, 1e4} {
				q := randomQuantizer(r, 16, dsub, ksub, mag)
				vec := make([]float32, q.Dim)
				for i := range vec {
					vec[i] = float32(r.NormFloat64() * mag)
				}
				ref := q.BuildLUT(vec)
				var maxV float32
				for _, v := range ref {
					maxV = max(maxV, v)
				}
				saturating := 65535 / (maxV / 2)
				label := fmt.Sprintf("dsub=%d ksub=%d mag=%g", dsub, ksub, mag)
				checkLUTMatchesReference(t, label, q, vec, []float32{1, 1024, saturating})
				qt := make([]uint16, len(ref))
				QuantizeWithScaleInto(qt, ref, saturating)
				if slices.Max(qt) != 65535 {
					t.Fatalf("%s: scale %v saturates nothing", label, saturating)
				}
			}
		}
	}
}

// FuzzLUTBuild feeds fuzzer-chosen shapes, query bits and codebook bits
// (infinities and NaNs included) through BuildLUTInto and Encode and
// cross-checks both against their scalar references.
func FuzzLUTBuild(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint8(255), []byte{0, 0, 128, 63, 0, 0, 0, 64})
	f.Add(uint8(0), uint8(1), uint8(0), []byte{})
	f.Add(uint8(2), uint8(3), uint8(15), []byte{0, 0, 128, 127, 0, 0, 192, 127})
	f.Fuzz(func(t *testing.T, dRaw, mRaw, kRaw uint8, raw []byte) {
		dsubs := []int{1, 2, 3, 4, 8, 16}
		dsub, m, ksub := dsubs[int(dRaw)%len(dsubs)], int(mRaw)%4+1, int(kRaw)%(CodebookSize-1)+2
		r := xrand.New(uint64(len(raw)))
		q := randomQuantizer(r, m, dsub, ksub, 1)
		vec := make([]float32, q.Dim)
		for i := range vec {
			vec[i] = float32(r.NormFloat64())
		}
		// The fuzzer's bytes overwrite the query first, then the codebooks.
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			if j := i / 4; j < len(vec) {
				vec[j] = v
			} else if j-len(vec) < len(q.Codebooks) {
				q.Codebooks[j-len(vec)] = v
			}
		}
		label := fmt.Sprintf("dsub=%d m=%d ksub=%d", dsub, m, ksub)
		checkLUTMatchesReference(t, label, q, vec, []float32{1, 1024})
		if got, want := q.Encode(nil, vec), encodeReference(q, vec); !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode %v, reference %v", label, got, want)
		}
	})
}

// encodeReference is Encode's original loop: one L2Squared call per
// entry, first argmin.
func encodeReference(q *Quantizer, vec []float32) []uint8 {
	codes := make([]uint8, q.M)
	for mi := range codes {
		sv := vec[mi*q.Dsub : (mi+1)*q.Dsub]
		best, bestD := 0, vecmath.L2Squared(sv, q.CodebookEntry(mi, 0))
		for j := 1; j < q.KSub; j++ {
			if d := vecmath.L2Squared(sv, q.CodebookEntry(mi, j)); d < bestD {
				best, bestD = j, d
			}
		}
		codes[mi] = uint8(best)
	}
	return codes
}

// TestEncodeMatchesReference pins Encode to the reference loop at every
// subspace width, including exact ties: codebooks with only three
// distinct entries repeated across KSub slots make every distance tie
// with its duplicates, and the lowest code must win.
func TestEncodeMatchesReference(t *testing.T) {
	r := xrand.New(28)
	for _, dsub := range []int{1, 2, 4, 8, 16} {
		for _, ksub := range []int{2, 17, 256} {
			q := randomQuantizer(r, 16, dsub, ksub, 1)
			// Entry j copies entry j%3 in every subspace.
			for mi := 0; mi < q.M; mi++ {
				for j := 3; j < ksub; j++ {
					copy(q.CodebookEntry(mi, j), q.CodebookEntry(mi, j%3))
				}
			}
			vec := make([]float32, q.Dim)
			for trial := 0; trial < 20; trial++ {
				for i := range vec {
					vec[i] = float32(r.NormFloat64())
				}
				if trial%2 == 1 {
					// Sit exactly on a duplicated entry: distance 0, tied.
					for mi := 0; mi < q.M; mi++ {
						copy(vec[mi*dsub:(mi+1)*dsub], q.CodebookEntry(mi, ksub-1))
					}
				}
				got, want := q.Encode(nil, vec), encodeReference(q, vec)
				if !bytes.Equal(got, want) {
					t.Fatalf("dsub=%d ksub=%d trial %d: Encode %v, reference %v", dsub, ksub, trial, got, want)
				}
				for _, c := range got {
					if int(c) >= min(3, ksub) {
						t.Fatalf("dsub=%d ksub=%d: code %d is a duplicate, not the first argmin", dsub, ksub, c)
					}
				}
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	data := randomData(1, 2000, 128)
	q := Train(data, 16, 1)
	codes := make([]uint8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Encode(codes, data.Row(i%data.Rows))
	}
}

func BenchmarkBuildLUT(b *testing.B) {
	data := randomData(1, 2000, 128)
	q := Train(data, 16, 1)
	lut := make(LUT, 16*CodebookSize)
	query := data.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.BuildLUTInto(lut, query)
	}
}

func BenchmarkADCDistance(b *testing.B) {
	data := randomData(1, 2000, 128)
	q := Train(data, 16, 1)
	lut := q.BuildLUT(data.Row(0))
	codes := q.Encode(nil, data.Row(1))
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = ADCDistance(lut, codes)
	}
	_ = sink
}
