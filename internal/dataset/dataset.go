// Package dataset provides the evaluation data substrate. The paper
// evaluates on SIFT1B, DEEP1B and SPACEV1B — billion-scale proprietary-
// hosted datasets that are not available here — so this package generates
// scaled-down synthetic datasets that reproduce the three properties the
// UpANNS optimizations exploit:
//
//  1. dimension / PQ-subvector shape of each dataset (128/16, 96/12, 100/20);
//  2. heavy skew in cluster populations and query access frequencies
//     (Fig. 4 of the paper shows ~10^6x size skew and ~500x access skew),
//     planted with Zipf-distributed anchor popularity;
//  3. frequent co-occurring sub-vector patterns (Section 4.3 reports the
//     triple (1,15,26) appearing in 5.7% of SIFT1B vectors), planted by
//     stamping motif blocks — shared sub-vector content at fixed positions —
//     onto a fraction of the points.
//
// The package also implements the fvecs/ivecs binary codecs, so genuine
// fvecs files (SIFT1M's, for one) can be substituted, and exact
// brute-force ground truth for recall measurement.
package dataset

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// Spec describes a synthetic dataset family.
type Spec struct {
	Name string
	Dim  int // vector dimensionality
	M    int // PQ sub-quantizer count the paper uses for this dataset

	Anchors   int     // latent cluster centers
	SizeSkew  float64 // Zipf exponent for anchor populations (cluster size skew)
	QuerySkew float64 // Zipf exponent for query anchor choice (access skew)
	Noise     float32 // Gaussian noise stddev around anchors

	MotifProb  float64 // fraction of points stamped with a motif block
	MotifCount int     // number of distinct motifs per position group
	MotifSpan  int     // how many PQ subspaces one motif covers
}

// The three paper datasets, scaled: dimensions and M match the paper
// exactly; skew exponents are tuned so measured skew ratios land in the
// regimes Fig. 4 reports.
var (
	SIFT1B = Spec{
		Name: "SIFT1B-like", Dim: 128, M: 16,
		Anchors: 256, SizeSkew: 1.1, QuerySkew: 1.0, Noise: 0.18,
		MotifProb: 0.35, MotifCount: 4, MotifSpan: 3,
	}
	DEEP1B = Spec{
		Name: "DEEP1B-like", Dim: 96, M: 12,
		Anchors: 256, SizeSkew: 0.9, QuerySkew: 0.9, Noise: 0.22,
		MotifProb: 0.30, MotifCount: 4, MotifSpan: 3,
	}
	SPACEV1B = Spec{
		Name: "SPACEV1B-like", Dim: 100, M: 20,
		Anchors: 256, SizeSkew: 1.3, QuerySkew: 1.1, Noise: 0.20,
		MotifProb: 0.40, MotifCount: 4, MotifSpan: 3,
	}
)

// All returns the three paper dataset specs.
func All() []Spec { return []Spec{DEEP1B, SIFT1B, SPACEV1B} }

// Dataset is a generated collection of base vectors.
type Dataset struct {
	Spec     Spec
	Vectors  *vecmath.Matrix
	AnchorOf []int32 // latent anchor of each vector (for skew diagnostics)

	anchors *vecmath.Matrix
	motifs  *vecmath.Matrix // MotifCount*groups rows of MotifSpan*dsub floats
	zipfQ   *xrand.Zipf
}

// Generate builds n vectors from spec, deterministically for a seed.
func Generate(spec Spec, n int, seed uint64) *Dataset {
	if n <= 0 {
		panic("dataset: n must be positive")
	}
	if spec.Dim%spec.M != 0 {
		panic(fmt.Sprintf("dataset: dim %d not divisible by M %d", spec.Dim, spec.M))
	}
	r := xrand.New(seed)
	dsub := spec.Dim / spec.M

	anchors := vecmath.NewMatrix(spec.Anchors, spec.Dim)
	for i := range anchors.Data {
		anchors.Data[i] = float32(r.NormFloat64())
	}

	// Motif dictionary: for each group of MotifSpan consecutive subspaces,
	// MotifCount shared residual patterns.
	groups := 0
	if spec.MotifSpan > 0 {
		groups = spec.M / spec.MotifSpan
	}
	var motifs *vecmath.Matrix
	if groups > 0 && spec.MotifCount > 0 {
		motifs = vecmath.NewMatrix(groups*spec.MotifCount, spec.MotifSpan*dsub)
		for i := range motifs.Data {
			motifs.Data[i] = float32(r.NormFloat64()) * spec.Noise * 2
		}
	}

	sizeZipf := xrand.NewZipf(spec.Anchors, spec.SizeSkew)
	vecs := vecmath.NewMatrix(n, spec.Dim)
	anchorOf := make([]int32, n)
	for i := 0; i < n; i++ {
		a := sizeZipf.Sample(r)
		anchorOf[i] = int32(a)
		row := vecs.Row(i)
		aRow := anchors.Row(a)
		for d := range row {
			row[d] = aRow[d] + float32(r.NormFloat64())*spec.Noise
		}
		// Stamp a motif: replace the residual content of one subspace
		// group with a shared pattern, creating co-occurring PQ codes.
		if motifs != nil && r.Float64() < spec.MotifProb {
			g := r.Intn(groups)
			mi := r.Intn(spec.MotifCount)
			pattern := motifs.Row(g*spec.MotifCount + mi)
			off := g * spec.MotifSpan * dsub
			for d := 0; d < len(pattern); d++ {
				row[off+d] = aRow[off+d] + pattern[d]
			}
		}
	}
	return &Dataset{
		Spec:     spec,
		Vectors:  vecs,
		AnchorOf: anchorOf,
		anchors:  anchors,
		motifs:   motifs,
		zipfQ:    xrand.NewZipf(spec.Anchors, spec.QuerySkew),
	}
}

// Queries draws nq query vectors with Zipf-skewed anchor popularity, which
// yields the skewed cluster access frequencies of Fig. 4a after IVF
// assignment. The query noise is slightly larger than the base noise, as
// real queries are near but not identical to indexed points.
func (ds *Dataset) Queries(nq int, seed uint64) *vecmath.Matrix {
	r := xrand.New(seed ^ 0x5bd1e995)
	q := vecmath.NewMatrix(nq, ds.Spec.Dim)
	for i := 0; i < nq; i++ {
		a := ds.zipfQ.Sample(r)
		row := q.Row(i)
		aRow := ds.anchors.Row(a)
		for d := range row {
			row[d] = aRow[d] + float32(r.NormFloat64())*ds.Spec.Noise*1.3
		}
	}
	return q
}

// GroundTruth computes the exact k nearest base vectors for every query by
// parallel brute force. It panics if the query and base dimensions differ.
func GroundTruth(base, queries *vecmath.Matrix, k int) [][]topk.Candidate {
	if queries.Dim != base.Dim {
		panic("dataset: GroundTruth dimension mismatch")
	}
	out := make([][]topk.Candidate, queries.Rows)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (queries.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > queries.Rows {
			hi = queries.Rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for qi := lo; qi < hi; qi++ {
				q := queries.Row(qi)
				h := topk.NewHeap(k)
				var block [64]float32
				for b := 0; b < base.Rows; b += len(block) {
					ds := block[:min(len(block), base.Rows-b)]
					vecmath.L2Rows(ds, q, base.Data[b*base.Dim:(b+len(ds))*base.Dim])
					for j, d := range ds {
						if h.WouldAccept(d) {
							h.Push(int64(b+j), d)
						}
					}
				}
				out[qi] = h.Sorted()
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Recall returns the fraction of true k-nearest ids that appear in got,
// averaged over queries (recall@k with |got| == |truth| == k per query).
func Recall(got [][]topk.Candidate, truth [][]topk.Candidate) float64 {
	if len(got) != len(truth) {
		panic("dataset: Recall length mismatch")
	}
	if len(got) == 0 {
		return 0
	}
	total := 0.0
	for qi := range got {
		set := make(map[int64]bool, len(truth[qi]))
		for _, c := range truth[qi] {
			set[c.ID] = true
		}
		hit := 0
		for _, c := range got[qi] {
			if set[c.ID] {
				hit++
			}
		}
		if len(truth[qi]) > 0 {
			total += float64(hit) / float64(len(truth[qi]))
		}
	}
	return total / float64(len(got))
}
