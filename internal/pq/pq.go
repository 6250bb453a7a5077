// Package pq implements Product Quantization (Jégou et al., TPAMI 2011),
// the compression half of IVFPQ. A vector of dimension D is split into M
// sub-vectors of dimension D/M; each sub-vector is encoded as the index of
// its nearest centroid in a per-subspace codebook of 256 entries, so a
// vector compresses to M bytes.
//
// Query-time distances use the standard Asymmetric Distance Computation
// (ADC) lookup table: for a query (residual) q, LUT[m][j] holds the squared
// L2 distance between q's m-th sub-vector and codebook entry j; the distance
// to an encoded point is the sum of M table entries selected by its codes.
//
// Two LUT representations are provided: float32 (used by the CPU and GPU
// baselines) and the uint16 fixed-point form the paper stores in DPU WRAM
// (M x 256 x 2 bytes = 8 KB for M=16). Integer LUTs make the UpANNS
// co-occurrence partial sums bit-exact with the plain scan.
//
// ADCDistance and QDistanceTab are the scalar per-vector references;
// scan.go holds the blocked batch kernels (ScanDists and friends) that
// the host search paths actually run. Both obey the same fixed float
// summation order, so kernel results are bit-identical to the scalar
// forms — see the contract note in scan.go.
package pq

import (
	"fmt"

	"repro/internal/kmeans"
	"repro/internal/vecmath"
)

// CodebookSize is the LUT row stride: the maximum number of centroids per
// subspace addressable by uint8 codes. Quantizers may train fewer entries
// (KSub < 256) — scaled-down experiments use this to keep the fixed LUT
// construction cost proportional to the reduced cluster sizes — but LUT
// addressing always uses the 256 stride so direct addresses stay stable.
const CodebookSize = 256

// Quantizer is a trained product quantizer.
type Quantizer struct {
	Dim  int // full vector dimension
	M    int // number of subspaces; Dim % M == 0
	Dsub int // Dim / M
	KSub int // trained centroids per subspace, 1 < KSub <= CodebookSize
	// Codebooks is laid out as M blocks of KSub x Dsub floats:
	// entry (m, j) starts at ((m*KSub)+j)*Dsub.
	Codebooks []float32
}

// TrainK trains ksub centroids per subspace (2 <= ksub <= CodebookSize).
func TrainK(data *vecmath.Matrix, m, ksub int, seed uint64) *Quantizer {
	if m <= 0 || data.Dim%m != 0 {
		panic(fmt.Sprintf("pq: dim %d not divisible by M %d", data.Dim, m))
	}
	if data.Rows == 0 {
		panic("pq: no training data")
	}
	if ksub < 2 || ksub > CodebookSize {
		panic(fmt.Sprintf("pq: KSub %d outside [2,%d]", ksub, CodebookSize))
	}
	q := &Quantizer{
		Dim:       data.Dim,
		M:         m,
		Dsub:      data.Dim / m,
		KSub:      ksub,
		Codebooks: make([]float32, m*ksub*(data.Dim/m)),
	}
	// Train each subspace independently on the sub-vector slice.
	sub := vecmath.NewMatrix(data.Rows, q.Dsub)
	for mi := 0; mi < m; mi++ {
		for i := 0; i < data.Rows; i++ {
			copy(sub.Row(i), data.Row(i)[mi*q.Dsub:(mi+1)*q.Dsub])
		}
		res := kmeans.Train(sub, kmeans.Config{K: ksub, Seed: seed + uint64(mi)*7919, MaxIters: 15})
		copy(q.Codebooks[mi*ksub*q.Dsub:(mi+1)*ksub*q.Dsub], res.Centroids.Data)
	}
	return q
}

// CodebookEntry returns the centroid for subspace m, code j (no copy).
// j must be below KSub.
func (q *Quantizer) CodebookEntry(m, j int) []float32 {
	base := (m*q.KSub + j) * q.Dsub
	return q.Codebooks[base : base+q.Dsub : base+q.Dsub]
}

// Encode writes the M-byte code of vec into dst and returns it. If dst is
// too short a new slice is allocated. Panics if len(vec) != Dim.
func (q *Quantizer) Encode(dst []uint8, vec []float32) []uint8 {
	if len(vec) != q.Dim {
		panic("pq: Encode dimension mismatch")
	}
	if len(dst) < q.M {
		dst = make([]uint8, q.M)
	}
	dst = dst[:q.M]
	var buf [CodebookSize]float32
	row := buf[:q.KSub]
	for mi := 0; mi < q.M; mi++ {
		sv := vec[mi*q.Dsub : (mi+1)*q.Dsub]
		if q.Dsub == 8 {
			lutRow8(row, (*[8]float32)(sv), q.subspace(mi))
		} else {
			for j := range row {
				row[j] = vecmath.L2Squared(sv, q.CodebookEntry(mi, j))
			}
		}
		// First argmin: ties keep the lowest code.
		best, bestD := 0, row[0]
		for j, d := range row {
			if d < bestD {
				best, bestD = j, d
			}
		}
		dst[mi] = uint8(best)
	}
	return dst
}

// subspace returns subspace m's KSub x Dsub codebook block (no copy).
func (q *Quantizer) subspace(m int) []float32 {
	n := q.KSub * q.Dsub
	return q.Codebooks[m*n : (m+1)*n : (m+1)*n]
}

// Decode reconstructs the approximate vector for codes into dst and returns
// it. Panics if len(codes) != M.
func (q *Quantizer) Decode(dst []float32, codes []uint8) []float32 {
	if len(codes) != q.M {
		panic("pq: Decode code length mismatch")
	}
	if len(dst) < q.Dim {
		dst = make([]float32, q.Dim)
	}
	dst = dst[:q.Dim]
	for mi := 0; mi < q.M; mi++ {
		copy(dst[mi*q.Dsub:(mi+1)*q.Dsub], q.CodebookEntry(mi, int(codes[mi])))
	}
	return dst
}

// LUT is a float32 ADC lookup table for one query residual:
// len == M*CodebookSize, entry (m, j) at m*CodebookSize+j.
type LUT []float32

// BuildLUTInto fills an existing table (len M*CodebookSize) in place.
// Rows keep the 256 stride and only their first KSub entries are
// written: entries past KSub keep whatever the table held (zero for a
// fresh one) and are never referenced, since codes are < KSub by
// construction. At dsub 8 — SIFT's D 128 / M 16 — each row comes from
// the lutRow8 kernel; other shapes run BuildLUTReference. Both produce
// bit-identical tables.
func (q *Quantizer) BuildLUTInto(lut LUT, vec []float32) {
	q.checkLUT(lut, vec)
	if q.Dsub != 8 {
		q.BuildLUTReference(lut, vec)
		return
	}
	for mi := 0; mi < q.M; mi++ {
		lutRow8(lut[mi*CodebookSize:mi*CodebookSize+q.KSub], (*[8]float32)(vec[mi*8:]), q.subspace(mi))
	}
}

// BuildLUTReference is the retained scalar LUT construction: one
// vecmath.L2Squared call per (subspace, entry). It is the reference the
// dsub-8 kernel is pinned to, the way ADCDistance is for ScanDists, and
// what ivfpq.SearchReference builds its tables with.
func (q *Quantizer) BuildLUTReference(lut LUT, vec []float32) {
	q.checkLUT(lut, vec)
	for mi := 0; mi < q.M; mi++ {
		sv := vec[mi*q.Dsub : (mi+1)*q.Dsub]
		row := lut[mi*CodebookSize : (mi+1)*CodebookSize]
		for j := 0; j < q.KSub; j++ {
			row[j] = vecmath.L2Squared(sv, q.CodebookEntry(mi, j))
		}
	}
}

func (q *Quantizer) checkLUT(lut LUT, vec []float32) {
	if len(vec) != q.Dim {
		panic("pq: BuildLUT dimension mismatch")
	}
	if len(lut) != q.M*CodebookSize {
		panic("pq: LUT length mismatch")
	}
}

// lutRow8 is the dsub-8 LUT row kernel: row[j] = ‖sv − entry j‖² for
// the entries of cb, one subspace's KSub x 8 codebook block (len(cb) ==
// 8*len(row)). The query and each entry are read through *[8]float32
// array pointers, so the loop carries no call and no bounds checks. It
// is vecmath.L2Squared unrolled for length 8 — the same differences,
// every product rounded by an explicit float32 conversion, summed in
// L2Squared's order (((d0²+d4²)+(d1²+d5²))+(d2²+d6²))+(d3²+d7²) — so its
// entries are bit-identical to BuildLUTReference's.
func lutRow8(row []float32, sv *[8]float32, cb []float32) {
	q0, q1, q2, q3, q4, q5, q6, q7 := sv[0], sv[1], sv[2], sv[3], sv[4], sv[5], sv[6], sv[7]
	for j := 0; j < len(row) && len(cb) >= 8; j++ {
		e := (*[8]float32)(cb)
		cb = cb[8:]
		d0, d1, d2, d3 := q0-e[0], q1-e[1], q2-e[2], q3-e[3]
		d4, d5, d6, d7 := q4-e[4], q5-e[5], q6-e[6], q7-e[7]
		row[j] = (((float32(d0*d0) + float32(d4*d4)) + (float32(d1*d1) + float32(d5*d5))) +
			(float32(d2*d2) + float32(d6*d6))) + (float32(d3*d3) + float32(d7*d7))
	}
}

// ADCDistance sums the LUT entries selected by codes. It is the scalar
// reference for the blocked kernels in scan.go and accumulates in the
// same canonical order — 4-entry groups summed as (e0+e1)+(e2+e3),
// groups and tail entries chained in subspace order — so its float
// results are bit-identical to ScanDists.
func ADCDistance(lut LUT, codes []uint8) float32 {
	m := len(codes)
	var s float32
	mi := 0
	for ; mi+4 <= m; mi += 4 {
		s += (lut[mi*CodebookSize+int(codes[mi])] + lut[(mi+1)*CodebookSize+int(codes[mi+1])]) +
			(lut[(mi+2)*CodebookSize+int(codes[mi+2])] + lut[(mi+3)*CodebookSize+int(codes[mi+3])])
	}
	for ; mi < m; mi++ {
		s += lut[mi*CodebookSize+int(codes[mi])]
	}
	return s
}

// QLUT is the uint16 fixed-point lookup table stored in DPU WRAM. Distances
// computed from it are uint32 sums of its entries; Scale converts back to
// the float domain (dist ≈ float(sum) / Scale).
type QLUT struct {
	Table []uint16 // len == M*CodebookSize
	Scale float32  // multiplier applied when the table was quantized
	M     int
}

// QuantizeEntry converts one float LUT entry to its uint16 fixed-point
// form under scale, saturating at the top of the range. The exact same
// rounding runs on the host reference and inside the DPU kernels, so the
// two paths stay bit-identical.
func QuantizeEntry(v, scale float32) uint16 {
	f := v * scale
	if f > 65535 {
		f = 65535
	}
	if f < 0 {
		f = 0
	}
	return uint16(f + 0.5)
}

// QuantizeWithScale converts a float LUT using a caller-provided scale.
// PIM kernels use a fixed per-index scale so integer distances compare
// across clusters without re-normalization.
func (q *Quantizer) QuantizeWithScale(lut LUT, scale float32) *QLUT {
	t := make([]uint16, len(lut))
	for i, v := range lut {
		t[i] = QuantizeEntry(v, scale)
	}
	return &QLUT{Table: t, Scale: scale, M: q.M}
}

// QDistance sums the quantized LUT entries selected by codes.
func (ql *QLUT) QDistance(codes []uint8) uint32 {
	var s uint32
	for mi := 0; mi < ql.M; mi++ {
		s += uint32(ql.Table[mi*CodebookSize+int(codes[mi])])
	}
	return s
}

// ToFloat converts an integer distance back to the float domain.
func (ql *QLUT) ToFloat(sum uint32) float32 {
	if ql.Scale == 0 {
		return 0
	}
	return float32(sum) / ql.Scale
}
