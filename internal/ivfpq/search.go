package ivfpq

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/topk"
)

// SearchOpts shapes one Search call. The zero value is not useful: K and
// NProbe must be positive for any result to come back.
type SearchOpts struct {
	// NProbe is the number of coarse clusters scanned (clamped to NList;
	// <= 0 probes nothing and returns an empty result).
	NProbe int
	// K is the number of nearest candidates returned. It must be
	// positive.
	K int
	// Allow, when non-nil, is a predicate pushed into the scan kernel:
	// codes whose ID fails it are skipped before any ADC arithmetic, so a
	// selective filter saves almost the whole distance stage. The
	// per-cluster LUT is built lazily — a probed cluster containing no
	// allowed IDs never pays LUT construction at all.
	Allow func(id int64) bool
	// Quantized switches the scan to the uint16 fixed-scale LUT
	// arithmetic the DPU kernels use (distances are uint32 sums mapped
	// back through the index's QScale), so results can be checked for
	// exact equality against the PIM backends. False scans the float32
	// LUT.
	Quantized bool
	// Scratch, when non-nil, provides the per-query working memory (LUT,
	// residual, distance blocks, heap, result buffer); the steady-state
	// search path then performs zero heap allocations, and the returned
	// candidates alias the scratch (valid until its next use). When nil,
	// the search finds its own scratch and the result is freshly
	// allocated.
	Scratch *Scratch
}

// Fold is a top-k heap with its acceptance threshold cached, so folding
// a block of distances costs a compare per code and a heap call only per
// accepted one. The skip condition is topk.Heap.Push's reject case,
// !topk.Less(candidate, worst), with the id read only on an equal
// distance.
type Fold struct {
	heap    topk.Heap
	full    bool
	worst   float32
	worstID int64
}

// Reset empties the fold and sets its depth to k. It panics if k <= 0
// (matching topk.NewHeap).
func (f *Fold) Reset(k int) {
	f.heap.ResetK(k)
	f.full = false
}

// AppendSorted appends the retained candidates to dst in ascending
// distance order.
func (f *Fold) AppendSorted(dst []topk.Candidate) []topk.Candidate {
	return f.heap.AppendSorted(dst)
}

// push folds one block: dists[j] belongs to ids[j], or to ids[at[j]]
// when at is non-nil. It returns how many candidates the heap retained.
func (f *Fold) push(ids []int64, at []int32, dists []float32) int {
	accepted := 0
	for j, d := range dists {
		i := j
		if at != nil {
			i = int(at[j])
		}
		if f.full && d >= f.worst && (d > f.worst || ids[i] >= f.worstID) {
			continue
		}
		f.heap.Push(ids[i], d)
		accepted++
		if f.full = f.heap.Full(); f.full {
			w := f.heap.Worst()
			f.worst, f.worstID = w.Dist, w.ID
		}
	}
	return accepted
}

// Payload serves the clusters Run scans: ScanCluster feeds cluster c's
// ids and M-byte codes to fn, in one call if the cluster is resident,
// else in runs of at most rows rows, and returns the first error. *Index
// serves its posting lists; tier.Store its pinned slabs and cold chunks.
type Payload interface {
	ScanCluster(c int32, rows int, fn func(ids []int64, codes []uint8) error) (resident bool, err error)
}

// ScanCluster serves posting list c in one resident call.
func (ix *Index) ScanCluster(c int32, _ int, fn func(ids []int64, codes []uint8) error) (bool, error) {
	return true, fn(ix.Lists[c].IDs, ix.Lists[c].Codes)
}

// Scratch is the preallocated working memory for one searcher goroutine
// and the one place a probed cluster's payload is scored. Between Begin
// and Finish it is a per-query scanner: Run streams each probed
// cluster's (ids, codes) from a Payload through the ADC kernels, building
// the cluster's LUT on the first code that needs it, at most once, and
// ScanAt scores further codes of the current cluster off that LUT.
//
// A single Scratch serves indexes of any shape — every buffer is grown on
// first use and reused afterwards — but must not be shared concurrently.
type Scratch struct {
	// AfterCluster, when set, runs after Run scans each cluster, while
	// its LUT is current, so ScanAt in it scores extra codes of the
	// cluster (mutable's overlay runs) off the same table.
	AfterCluster func(c int32)

	probes []int32
	pdists []float32
	resid  []float32
	lut    pq.LUT
	qtab   []uint16
	dists  []float32
	qdists []uint32
	at     []int32
	top    Fold
	out    []topk.Candidate

	// The query in flight and its current cluster.
	ix        *Index
	query     []float32
	allow     func(id int64) bool
	quantized bool
	cluster   int32
	haveLUT   bool
	streamed  int // bytes of ids and codes the current cluster delivered
	st        SearchStats
	lutDur    time.Duration // LUT builds since Begin
	scanDur   time.Duration // scan/ScanAt wall time net of LUT builds

	// scanFn is scan bound once, the fn Run hands every payload.
	scanFn func(ids []int64, codes []uint8) error
}

// NewScratch returns an empty Scratch; buffers are sized lazily by the
// first query that uses it.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Search runs the IVFPQ online pipeline — cluster filtering, per-cluster
// LUT construction on the residual, blocked ADC scanning, top-k selection
// — under one option struct, and returns the K nearest candidates in
// ascending distance order plus the work counters. It panics if o.K <= 0
// (matching topk.NewHeap).
//
// The scan runs on the blocked kernels in internal/pq (see scan.go for
// the layout and summation-order contract); SearchReference retains the
// scalar loops and golden tests pin the two paths bit for bit.
func (ix *Index) Search(query []float32, o SearchOpts) ([]topk.Candidate, SearchStats) {
	s := o.Scratch
	if s == nil {
		s = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
	}
	s.Begin(ix, query, o)
	s.Run(s.Probe(o.NProbe), ix) // posting lists cannot fail
	cands, st := s.Finish()
	if o.Scratch == nil {
		cands = append([]topk.Candidate(nil), cands...)
	}
	return cands, st
}

// Begin starts one query against ix: o.K is the depth of the scanner's
// own heap, o.Allow and o.Quantized shape every cluster scanned until
// Finish (o.NProbe and o.Scratch are the caller's business). Buffers are
// sized here; cheap when already sized.
func (s *Scratch) Begin(ix *Index, query []float32, o SearchOpts) {
	if cap(s.resid) < ix.Dim {
		s.resid = make([]float32, ix.Dim)
	}
	s.resid = s.resid[:ix.Dim]
	if n := ix.PQ.M * pq.CodebookSize; len(s.lut) != n {
		s.lut, s.qtab = make(pq.LUT, n), make([]uint16, n)
	}
	if s.dists == nil {
		s.dists, s.qdists = make([]float32, pq.ScanBlock), make([]uint32, pq.ScanBlock)
		s.at = make([]int32, 0, pq.ScanBlock)
	}
	s.top.Reset(o.K)
	s.ix, s.query, s.allow, s.quantized = ix, query, o.Allow, o.Quantized
	s.st = SearchStats{}
	s.lutDur, s.scanDur = 0, 0
}

// Probe runs cluster filtering for the query in flight and returns the
// nprobe nearest clusters, closest first (clamped to NList; <= 0 probes
// nothing). The slice aliases the scratch.
func (s *Scratch) Probe(nprobe int) []int32 {
	s.probes, s.pdists = s.ix.Coarse.ProbeInto(s.probes, s.pdists, s.query, nprobe)
	s.st.CentroidScans = s.ix.Coarse.NList()
	s.st.ProbedClusters = len(s.probes)
	return s.probes
}

// Run is the probe loop. Per probed cluster, in the order given, it
// resets the LUT (built lazily: a cluster none of whose codes reaches
// the kernels never pays for one), streams p's payload through the
// scanner, counts the cluster hot or cold, and calls AfterCluster. A
// failed read ends the query unless p has a search-only SkipFault policy
// that skips the cluster (tier.Store under SkipFaulty; a fold, which must
// see every row, never asks it). Under topk.Less the answer does not
// depend on the order of probes.
func (s *Scratch) Run(probes []int32, p Payload) error {
	if s.scanFn == nil {
		s.scanFn = s.scan
	}
	for _, c := range probes {
		s.cluster, s.haveLUT, s.streamed = c, false, 0
		resident, err := p.ScanCluster(c, pq.ScanBlock, s.scanFn)
		switch {
		case !resident:
			s.st.ColdClusters++
			s.st.ColdBytes += s.streamed
		case s.streamed > 0:
			s.st.HotClusters++
		}
		if err != nil {
			if f, ok := p.(interface{ SkipFault(int32, error) bool }); !ok || !f.SkipFault(c, err) {
				return fmt.Errorf("ivfpq: cluster %d: %w", c, err)
			}
			s.st.SkippedClusters++
		}
		if s.AfterCluster != nil {
			s.AfterCluster(c)
		}
	}
	return nil
}

// scan scores a run of the current cluster's payload — ids and their
// flattened M-byte codes, a whole list or one streamed chunk — into the
// scanner's own heap, pq.ScanBlock codes at a time. With an allow
// predicate it first collects each block's allowed positions, then
// gather-scans their codes in one sweep.
func (s *Scratch) scan(ids []int64, codes []uint8) error {
	s.streamed += len(ids)*8 + len(codes)
	start, lut0 := time.Now(), s.lutDur
	m := s.ix.PQ.M
	for base := 0; base < len(ids); base += pq.ScanBlock {
		bn := min(pq.ScanBlock, len(ids)-base)
		bids, bcodes := ids[base:base+bn], codes[base*m:(base+bn)*m]
		if s.allow == nil {
			s.score(&s.top, bids, bcodes, nil)
			continue
		}
		at := s.at[:0]
		for i, id := range bids {
			if !s.allow(id) {
				s.st.CodesFiltered++
				continue
			}
			at = append(at, int32(i))
		}
		if len(at) > 0 {
			s.score(&s.top, bids, bcodes, at)
		}
	}
	s.scanDur += time.Since(start) - (s.lutDur - lut0)
	return nil
}

// ScanAt scores the codes at positions at of the current cluster's
// (ids, codes) arrays into f — a caller-owned heap sharing the cluster's
// LUT with Run's scan. The positions are the caller's selection; the
// allow predicate is not applied.
func (s *Scratch) ScanAt(f *Fold, ids []int64, codes []uint8, at []int32) {
	start, lut0 := time.Now(), s.lutDur
	for lo := 0; lo < len(at); lo += pq.ScanBlock {
		s.score(f, ids, codes, at[lo:min(lo+pq.ScanBlock, len(at))])
	}
	s.scanDur += time.Since(start) - (s.lutDur - lut0)
}

// score runs the ADC kernel over one block of at most pq.ScanBlock codes
// — all of codes when at is nil, the gathered positions otherwise — and
// folds the distances into f. Quantized sums map back through the
// index's QScale before the fold, so both arithmetic modes share it.
func (s *Scratch) score(f *Fold, ids []int64, codes []uint8, at []int32) {
	if !s.haveLUT {
		lutStart := time.Now()
		s.ix.Coarse.Residual(s.resid, s.query, s.cluster)
		s.ix.PQ.BuildLUTInto(s.lut, s.resid)
		if s.quantized {
			pq.QuantizeWithScaleInto(s.qtab, s.lut, s.ix.QScale)
		}
		s.lutDur += time.Since(lutStart)
		s.st.LUTEntries += s.ix.PQ.M * s.ix.PQ.KSub
		s.haveLUT = true
	}
	m := s.ix.PQ.M
	n := len(ids)
	if at != nil {
		n = len(at)
	}
	bd := s.dists[:n]
	switch {
	case s.quantized:
		qd := s.qdists[:n]
		if at == nil {
			pq.ScanQDists(qd, s.qtab, codes, m)
		} else {
			pq.ScanQDistsAt(qd, s.qtab, codes, m, at)
		}
		scale := s.ix.QScale
		for j, d := range qd {
			bd[j] = 0
			if scale != 0 {
				bd[j] = float32(d) / scale
			}
		}
	case at == nil:
		pq.ScanDists(bd, s.lut, codes, m)
	default:
		pq.ScanDistsAt(bd, s.lut, codes, m, at)
	}
	s.st.HeapAccepted += f.push(ids, at, bd)
	s.st.CodesScanned += n
	s.st.CodeBytes += n * m
	s.st.HeapPushes += n
}

// Finish ends the query: it feeds the kernel bandwidth counters and
// returns the scanner's own top-K in ascending topk.Less order plus the
// work counters of everything scored since Begin. The candidates alias
// the scratch (valid until its next use).
func (s *Scratch) Finish() ([]topk.Candidate, SearchStats) {
	obs.Kernel.RecordScan(s.st.CodeBytes, s.st.CodesScanned, s.scanDur)
	obs.Kernel.RecordLUT(s.st.LUTEntries, s.lutDur)
	s.ix, s.query, s.allow = nil, nil, nil
	s.out = s.top.AppendSorted(s.out[:0])
	return s.out, s.st
}
