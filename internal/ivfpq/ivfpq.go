// Package ivfpq combines the IVF coarse quantizer with product quantization
// into the complete index every backend in this repository searches: the
// reference CPU implementation here, the roofline-modelled Faiss baselines,
// and the PIM engines, which all consume the same trained Index so that
// result-equality tests across backends are meaningful.
//
// The online pipeline follows Figure 2 of the paper: (a) cluster filtering,
// (b) LUT construction per probed cluster (on the residual q - centroid),
// (c) ADC distance accumulation over the cluster's encoded points, and
// (d) top-k selection.
package ivfpq

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ivf"
	"repro/internal/pq"
	"repro/internal/vecmath"
)

// Params configures index construction.
type Params struct {
	NList int // number of IVF clusters
	M     int // PQ subquantizers; Dim % M == 0
	KSub  int // PQ centroids per subspace (0 = 256); scaled experiments shrink this
	Seed  uint64
	// TrainSub bounds the number of vectors used for k-means/PQ training
	// (0 = use all). Large builds subsample exactly like Faiss does.
	TrainSub int
}

// List is one inverted list: the ids and PQ codes of every vector assigned
// to a cluster. Codes are flattened, M bytes per vector.
type List struct {
	IDs   []int64
	Codes []uint8
}

// Len returns the number of vectors in the list.
func (l *List) Len() int { return len(l.IDs) }

// Code returns the M-byte code of the i-th vector in the list.
func (l *List) Code(i, m int) []uint8 { return l.Codes[i*m : (i+1)*m : (i+1)*m] }

// Index is a trained IVFPQ index.
type Index struct {
	Dim    int
	Coarse *ivf.Coarse
	PQ     *pq.Quantizer
	Lists  []List
	NTotal int64 // number of indexed vectors

	// QScale is the fixed uint16 LUT quantization scale shared by every
	// quantized search (host reference and PIM kernels). A per-index
	// constant keeps integer distances comparable across clusters and
	// lets the DPU quantize entries in a single pass. It is estimated
	// from training residuals with 2x headroom; out-of-range entries
	// saturate, which only affects the ranking of far-away points.
	QScale float32
}

// Train builds the coarse quantizer and PQ codebooks from training data.
// The returned index is empty; call Add to populate it.
func Train(train *vecmath.Matrix, p Params) *Index {
	if p.NList <= 0 {
		panic("ivfpq: NList must be positive")
	}
	if p.M <= 0 || train.Dim%p.M != 0 {
		panic(fmt.Sprintf("ivfpq: dim %d not divisible by M %d", train.Dim, p.M))
	}
	sub := train
	if p.TrainSub > 0 && p.TrainSub < train.Rows {
		sub = vecmath.NewMatrix(p.TrainSub, train.Dim)
		stride := train.Rows / p.TrainSub
		for i := 0; i < p.TrainSub; i++ {
			sub.SetRow(i, train.Row(i*stride))
		}
	}
	coarse := ivf.Train(sub, p.NList, p.Seed)

	// PQ is trained on residuals, as in the paper's offline phase.
	resid := vecmath.NewMatrix(sub.Rows, sub.Dim)
	for i := 0; i < sub.Rows; i++ {
		cl := coarse.Assign(sub.Row(i))
		coarse.Residual(resid.Row(i), sub.Row(i), cl)
	}
	ksub := p.KSub
	if ksub == 0 {
		ksub = pq.CodebookSize
	}
	quant := pq.TrainK(resid, p.M, ksub, p.Seed+1)

	// Estimate the fixed LUT quantization scale from training residuals:
	// build LUTs for a sample and take the maximum entry with headroom.
	var maxEntry float32
	lut := make(pq.LUT, p.M*pq.CodebookSize)
	sampleStride := resid.Rows / 64
	if sampleStride < 1 {
		sampleStride = 1
	}
	for i := 0; i < resid.Rows; i += sampleStride {
		quant.BuildLUTInto(lut, resid.Row(i))
		for _, v := range lut {
			if v > maxEntry {
				maxEntry = v
			}
		}
	}
	qscale := float32(1)
	if maxEntry > 0 {
		qscale = 65535 / (2 * maxEntry)
	}

	return &Index{
		Dim:    train.Dim,
		Coarse: coarse,
		PQ:     quant,
		Lists:  make([]List, p.NList),
		QScale: qscale,
	}
}

// Add encodes and inserts the rows of data with ids baseID, baseID+1, ...
// Assignment and encoding run in parallel across host cores; list appends
// happen in row order afterwards, so the result is deterministic.
func (ix *Index) Add(data *vecmath.Matrix, baseID int64) {
	if data.Dim != ix.Dim {
		panic("ivfpq: Add dimension mismatch")
	}
	m := ix.PQ.M
	assign := make([]int32, data.Rows)
	codes := make([]uint8, data.Rows*m)

	workers := runtime.GOMAXPROCS(0)
	chunk := (data.Rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > data.Rows {
			hi = data.Rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			resid := make([]float32, ix.Dim)
			for i := lo; i < hi; i++ {
				v := data.Row(i)
				cl := ix.Coarse.Assign(v)
				assign[i] = cl
				ix.Coarse.Residual(resid, v, cl)
				ix.PQ.Encode(codes[i*m:(i+1)*m], resid)
			}
		}(lo, hi)
	}
	wg.Wait()

	for i := 0; i < data.Rows; i++ {
		l := &ix.Lists[assign[i]]
		l.IDs = append(l.IDs, baseID+int64(i))
		l.Codes = append(l.Codes, codes[i*m:(i+1)*m]...)
		ix.NTotal++
	}
}

// AddWithIDs encodes and inserts the rows of data under the parallel
// explicit ids (len(ids) must equal data.Rows). It is Add for
// non-contiguous id spaces: hash-partitioned cluster shards index their
// subset of a global id space with it, so every shard reports globally
// meaningful ids and the scatter-gather merge needs no translation.
func (ix *Index) AddWithIDs(data *vecmath.Matrix, ids []int64) {
	if data.Dim != ix.Dim {
		panic("ivfpq: AddWithIDs dimension mismatch")
	}
	if len(ids) != data.Rows {
		panic("ivfpq: AddWithIDs ids/rows mismatch")
	}
	m := ix.PQ.M
	assign := make([]int32, data.Rows)
	codes := make([]uint8, data.Rows*m)

	workers := runtime.GOMAXPROCS(0)
	chunk := (data.Rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > data.Rows {
			hi = data.Rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			resid := make([]float32, ix.Dim)
			for i := lo; i < hi; i++ {
				assign[i] = ix.EncodeVectorInto(codes[i*m:(i+1)*m], resid, data.Row(i))
			}
		}(lo, hi)
	}
	wg.Wait()

	for i := 0; i < data.Rows; i++ {
		ix.AppendEncoded(assign[i], ids[i], codes[i*m:(i+1)*m])
	}
}

// EncodeVectorInto assigns vec to its nearest cluster, PQ-encodes the
// residual into code (M bytes) and returns the cluster. resid is
// caller-provided scratch (len Dim), reused across the vectors of a
// batch. It does not modify the index; the streaming-update path
// (internal/mutable) uses it to encode upserts with the trained
// quantizers before staging them in append logs.
func (ix *Index) EncodeVectorInto(code []uint8, resid, vec []float32) int32 {
	if len(vec) != ix.Dim {
		panic("ivfpq: EncodeVectorInto dimension mismatch")
	}
	cl := ix.Coarse.Assign(vec)
	ix.Coarse.Residual(resid, vec, cl)
	ix.PQ.Encode(code, resid)
	return cl
}

// AppendEncoded appends one already-encoded vector to a cluster's
// inverted list. The compaction path uses it to fold staged log entries
// into a fresh index without re-running assignment or encoding.
func (ix *Index) AppendEncoded(cluster int32, id int64, code []uint8) {
	l := &ix.Lists[cluster]
	l.IDs = append(l.IDs, id)
	l.Codes = append(l.Codes, code...)
	ix.NTotal++
}

// CloneStructure returns a new, empty index sharing the trained (and
// immutable) coarse quantizer, PQ codebooks and LUT quantization scale.
// Epoch compaction folds the previous epoch's lists plus pending updates
// into such a clone, so concurrent readers of the old epoch never observe
// list mutation.
func (ix *Index) CloneStructure() *Index {
	return &Index{
		Dim:    ix.Dim,
		Coarse: ix.Coarse,
		PQ:     ix.PQ,
		Lists:  make([]List, len(ix.Lists)),
		QScale: ix.QScale,
	}
}

// NList returns the number of inverted lists.
func (ix *Index) NList() int { return len(ix.Lists) }

// ListSizes returns the vector count of every list.
func (ix *Index) ListSizes() []int {
	out := make([]int, len(ix.Lists))
	for i := range ix.Lists {
		out[i] = ix.Lists[i].Len()
	}
	return out
}

// SearchStats counts the work one Search performed; the roofline baselines
// convert these counts into modelled time.
type SearchStats struct {
	CentroidScans  int // centroid distance computations (stage a)
	LUTEntries     int // LUT cells computed (stage b)
	CodesScanned   int // encoded vectors visited (stage c)
	CodeBytes      int // bytes of codes fetched (stage c)
	CodesFiltered  int // encoded vectors skipped by the allow predicate (stage c)
	HeapPushes     int // candidates offered to the heap (stage d)
	HeapAccepted   int // candidates retained by the heap (stage d)
	ProbedClusters int

	// Probed non-empty clusters served in place (every posting list) or
	// streamed cold, the cold ones' bytes, and those skipped as faulty.
	HotClusters     int
	ColdClusters    int
	SkippedClusters int
	ColdBytes       int
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.CentroidScans += other.CentroidScans
	s.LUTEntries += other.LUTEntries
	s.CodesScanned += other.CodesScanned
	s.CodeBytes += other.CodeBytes
	s.CodesFiltered += other.CodesFiltered
	s.HeapPushes += other.HeapPushes
	s.HeapAccepted += other.HeapAccepted
	s.ProbedClusters += other.ProbedClusters
	s.HotClusters += other.HotClusters
	s.ColdClusters += other.ColdClusters
	s.SkippedClusters += other.SkippedClusters
	s.ColdBytes += other.ColdBytes
}
