package pq

// This file holds the blocked ADC scan kernels — the raw-speed path every
// search in the repository funnels through. The scalar per-vector forms
// (ADCDistance, QLUT.QDistance) remain the reference implementation;
// golden tests pin these kernels to them bit for bit.
//
// Layout and strategy:
//
//   - LUTs stay flat ([M x 256] row-major, CodebookSize stride) exactly as
//     the DPU WRAM layout, but the kernels view each row through a
//     *[CodebookSize]T array pointer obtained by re-slicing. Indexing an
//     array pointer with a uint8-derived int is provably in bounds, so the
//     inner loops carry no bounds checks.
//   - Scans are subspace-major: for each group of 4 LUT rows the row
//     pointers are hoisted into registers and a whole block of vectors is
//     accumulated before moving to the next group. The 4 gathers per
//     iteration are independent, which keeps the load ports saturated —
//     the kernel is load-port-bound, which is as close to the roofline as
//     scalar gather code gets.
//   - Callers block their scans (ScanBlock vectors at a time) so the
//     dists accumulator stays in L1 next to the 8–16 KB LUT.
//
// Float summation order is part of the kernel contract: every kernel and
// the scalar reference accumulate in the same 4-entry group tree
// (g = (e0+e1)+(e2+e3), groups and tail entries chained in subspace
// order), so float distances are bit-identical across paths. Integer
// (uint16 LUT) sums are order-independent and exact by construction.
//
// LUT construction is held to the same standard: BuildLUTInto's dsub-8
// row kernel sums squared differences in vecmath.L2Squared's order, so
// its tables equal BuildLUTReference's bit for bit. That also needs one
// portability rule: every float product on these paths is spelled
// float32(x*y). The Go spec lets a compiler fuse x*y+z into one FMA —
// arm64 does — and an explicit conversion is the only thing that
// forbids it, so without it bit-identity would depend on GOARCH.
// scripts/check_fma.sh reads the arm64 assembly to enforce the rule.

// ScanBlock is the number of vectors callers should scan per kernel call:
// the dists accumulator (1–2 KB) then stays L1-resident alongside the LUT.
const ScanBlock = 256

// ScanDists computes the float ADC distance of n = len(dists) contiguous
// M-byte codes against lut (len M*CodebookSize), writing dists[i] for
// codes[i*m:(i+1)*m]. len(codes) must be at least len(dists)*m.
func ScanDists(dists []float32, lut LUT, codes []uint8, m int) {
	n := len(dists)
	if n == 0 {
		return
	}
	_ = codes[n*m-1]
	for i := range dists {
		dists[i] = 0
	}
	mi := 0
	for ; mi+4 <= m; mi += 4 {
		r0 := (*[CodebookSize]float32)(lut[mi*CodebookSize:])
		r1 := (*[CodebookSize]float32)(lut[(mi+1)*CodebookSize:])
		r2 := (*[CodebookSize]float32)(lut[(mi+2)*CodebookSize:])
		r3 := (*[CodebookSize]float32)(lut[(mi+3)*CodebookSize:])
		p := mi
		for i := 0; i < n; i++ {
			c := codes[p : p+4 : p+4]
			dists[i] += (r0[c[0]] + r1[c[1]]) + (r2[c[2]] + r3[c[3]])
			p += m
		}
	}
	for ; mi < m; mi++ {
		r := (*[CodebookSize]float32)(lut[mi*CodebookSize:])
		p := mi
		for i := 0; i < n; i++ {
			dists[i] += r[codes[p]]
			p += m
		}
	}
}

// ScanQDists is ScanDists over a quantized uint16 table (len
// M*CodebookSize), accumulating exact uint32 sums.
func ScanQDists(dists []uint32, tbl []uint16, codes []uint8, m int) {
	n := len(dists)
	if n == 0 {
		return
	}
	_ = codes[n*m-1]
	for i := range dists {
		dists[i] = 0
	}
	mi := 0
	for ; mi+4 <= m; mi += 4 {
		r0 := (*[CodebookSize]uint16)(tbl[mi*CodebookSize:])
		r1 := (*[CodebookSize]uint16)(tbl[(mi+1)*CodebookSize:])
		r2 := (*[CodebookSize]uint16)(tbl[(mi+2)*CodebookSize:])
		r3 := (*[CodebookSize]uint16)(tbl[(mi+3)*CodebookSize:])
		p := mi
		for i := 0; i < n; i++ {
			c := codes[p : p+4 : p+4]
			dists[i] += (uint32(r0[c[0]]) + uint32(r1[c[1]])) + (uint32(r2[c[2]]) + uint32(r3[c[3]]))
			p += m
		}
	}
	for ; mi < m; mi++ {
		r := (*[CodebookSize]uint16)(tbl[mi*CodebookSize:])
		p := mi
		for i := 0; i < n; i++ {
			dists[i] += uint32(r[codes[p]])
			p += m
		}
	}
}

// ScanDistsAt is the gather form of ScanDists for the fused filtered
// scan: dists[j] is the distance of the vector at position at[j] in the
// flat codes slice (codes[at[j]*m : (at[j]+1)*m]). Filtered queries
// collect the allow-bitmap survivors of a block into at and stream their
// codes in the same pass, instead of paying a per-vector branch inside
// the kernel. Summation order matches ScanDists exactly.
func ScanDistsAt(dists []float32, lut LUT, codes []uint8, m int, at []int32) {
	if len(at) == 0 {
		return
	}
	dists = dists[:len(at)]
	for j := range dists {
		dists[j] = 0
	}
	mi := 0
	for ; mi+4 <= m; mi += 4 {
		r0 := (*[CodebookSize]float32)(lut[mi*CodebookSize:])
		r1 := (*[CodebookSize]float32)(lut[(mi+1)*CodebookSize:])
		r2 := (*[CodebookSize]float32)(lut[(mi+2)*CodebookSize:])
		r3 := (*[CodebookSize]float32)(lut[(mi+3)*CodebookSize:])
		for j, a := range at {
			p := int(a)*m + mi
			c := codes[p : p+4 : p+4]
			dists[j] += (r0[c[0]] + r1[c[1]]) + (r2[c[2]] + r3[c[3]])
		}
	}
	for ; mi < m; mi++ {
		r := (*[CodebookSize]float32)(lut[mi*CodebookSize:])
		for j, a := range at {
			dists[j] += r[codes[int(a)*m+mi]]
		}
	}
}

// ScanQDistsAt is ScanDistsAt over a quantized uint16 table.
func ScanQDistsAt(dists []uint32, tbl []uint16, codes []uint8, m int, at []int32) {
	if len(at) == 0 {
		return
	}
	dists = dists[:len(at)]
	for j := range dists {
		dists[j] = 0
	}
	mi := 0
	for ; mi+4 <= m; mi += 4 {
		r0 := (*[CodebookSize]uint16)(tbl[mi*CodebookSize:])
		r1 := (*[CodebookSize]uint16)(tbl[(mi+1)*CodebookSize:])
		r2 := (*[CodebookSize]uint16)(tbl[(mi+2)*CodebookSize:])
		r3 := (*[CodebookSize]uint16)(tbl[(mi+3)*CodebookSize:])
		for j, a := range at {
			p := int(a)*m + mi
			c := codes[p : p+4 : p+4]
			dists[j] += (uint32(r0[c[0]]) + uint32(r1[c[1]])) + (uint32(r2[c[2]]) + uint32(r3[c[3]]))
		}
	}
	for ; mi < m; mi++ {
		r := (*[CodebookSize]uint16)(tbl[mi*CodebookSize:])
		for j, a := range at {
			dists[j] += uint32(r[codes[int(a)*m+mi]])
		}
	}
}

// QuantizeWithScaleInto fills dst (len == len(lut)) with the uint16
// fixed-point form of lut under scale — QuantizeWithScale without the
// per-probe allocation. Entry rounding is QuantizeEntry, identical to the
// DPU kernels.
func QuantizeWithScaleInto(dst []uint16, lut LUT, scale float32) {
	if len(dst) != len(lut) {
		panic("pq: QuantizeWithScaleInto length mismatch")
	}
	for i, v := range lut {
		dst[i] = QuantizeEntry(v, scale)
	}
}

// QDistanceTab sums the entries of a quantized table (len m*CodebookSize,
// as produced by QuantizeWithScaleInto) selected by codes. It is the
// table-slice form of QLUT.QDistance for callers that manage the table
// buffer themselves.
func QDistanceTab(tbl []uint16, codes []uint8) uint32 {
	var s uint32
	for mi := 0; mi < len(codes); mi++ {
		s += uint32(tbl[mi*CodebookSize+int(codes[mi])])
	}
	return s
}
