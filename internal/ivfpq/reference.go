package ivfpq

import (
	"repro/internal/pq"
	"repro/internal/topk"
)

// SearchReference is the retained scalar implementation of Search: the
// original per-vector loop over pq.ADCDistance / pq.QLUT.QDistance, one
// heap push per scanned code, no blocking, no preallocated scratch
// (o.Scratch is ignored), and LUTs from pq.BuildLUTReference. Golden
// equivalence tests pin the optimized kernels — scan and LUT build — to
// it bit for bit, and the kernelbench experiment reports the optimized
// path's achieved bandwidth against it.
//
// Unlike Search it does not feed the obs.Kernel bandwidth counters, so
// running it (tests, benchmarks) never dilutes the /metrics view of the
// production kernels.
func (ix *Index) SearchReference(query []float32, o SearchOpts) ([]topk.Candidate, SearchStats) {
	var st SearchStats
	probes, _ := ix.Coarse.ProbeInto(nil, nil, query, o.NProbe)
	st.CentroidScans = ix.Coarse.NList()
	st.ProbedClusters = len(probes)

	heap := topk.NewHeap(o.K)
	resid := make([]float32, ix.Dim)
	lut := make(pq.LUT, ix.PQ.M*pq.CodebookSize)
	var ql *pq.QLUT
	m := ix.PQ.M
	for _, cl := range probes {
		list := &ix.Lists[cl]
		if list.Len() == 0 {
			continue
		}
		haveLUT := false
		for i := 0; i < list.Len(); i++ {
			if o.Allow != nil && !o.Allow(list.IDs[i]) {
				st.CodesFiltered++
				continue
			}
			if !haveLUT {
				ix.Coarse.Residual(resid, query, cl)
				ix.PQ.BuildLUTReference(lut, resid)
				if o.Quantized {
					ql = ix.PQ.QuantizeWithScale(lut, ix.QScale)
				}
				st.LUTEntries += ix.PQ.M * ix.PQ.KSub
				haveLUT = true
			}
			var d float32
			if o.Quantized {
				d = ql.ToFloat(ql.QDistance(list.Code(i, m)))
			} else {
				d = pq.ADCDistance(lut, list.Code(i, m))
			}
			st.CodesScanned++
			st.CodeBytes += m
			st.HeapPushes++
			if heap.Push(list.IDs[i], d) {
				st.HeapAccepted++
			}
		}
	}
	return heap.Sorted(), st
}
