// Package baseline implements the conventional-architecture comparators:
// Faiss-CPU and Faiss-GPU equivalents that run the shared IVFPQ index
// functionally in Go and convert the measured operation counts into
// modelled time via the Table 1 roofline models (package archmodel).
//
// The paper's third comparator, PIM-naive, is the core engine built with
// core.NaiveConfig(): random cluster placement, plain PQ codes and
// unpruned top-k merges.
package baseline

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/archmodel"
	"repro/internal/ivfpq"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Backend is a CPU- or GPU-modelled IVFPQ searcher.
type Backend struct {
	Name string
	Dev  archmodel.Device
	Ix   *ivfpq.Index

	// ModelIndexBytes overrides the resident index size used for the
	// device capacity check. The benchmark harness sets it to the
	// paper-scale (billion-vector) equivalent so capacity effects like
	// the DEEP1B GPU OOM in Fig. 12 reproduce on scaled-down data.
	ModelIndexBytes int64
}

// NewCPU returns the Faiss-CPU comparator over ix.
func NewCPU(ix *ivfpq.Index) *Backend {
	return &Backend{Name: "Faiss-CPU", Dev: archmodel.CPU(), Ix: ix}
}

// NewGPU returns the Faiss-GPU comparator over ix.
func NewGPU(ix *ivfpq.Index) *Backend {
	return &Backend{Name: "Faiss-GPU", Dev: archmodel.GPU(), Ix: ix}
}

// Result is one batch outcome.
type Result struct {
	Results [][]topk.Candidate
	Stages  archmodel.StageTimes
	QPS     float64
	QPSW    float64 // QPS per watt (peak power)
	OOM     bool    // index exceeds device memory; no results
}

// IndexBytes returns the modelled resident bytes of the index on a
// conventional device: codes + 8-byte ids + centroid table.
func IndexBytes(ix *ivfpq.Index) int64 {
	return ix.NTotal*int64(ix.PQ.M+8) +
		int64(ix.NList()*ix.Dim*4) +
		int64(len(ix.PQ.Codebooks)*4)
}

// SearchBatch runs all queries functionally (parallel across host cores)
// and models the batch time on the backend's device.
func (b *Backend) SearchBatch(queries *vecmath.Matrix, nprobe, k int) (*Result, error) {
	if queries.Dim != b.Ix.Dim {
		return nil, fmt.Errorf("baseline: query dim %d != index dim %d", queries.Dim, b.Ix.Dim)
	}
	bytes := b.ModelIndexBytes
	if bytes == 0 {
		bytes = IndexBytes(b.Ix)
	}
	if bytes > b.Dev.MemCapacity {
		return &Result{OOM: true}, nil
	}

	nq := queries.Rows
	results := make([][]topk.Candidate, nq)
	stats := make([]ivfpq.SearchStats, nq)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (nq + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > nq {
			hi = nq
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// One scratch per worker: results alias it, so each query's
			// candidates are copied out before the next query reuses it.
			sc := ivfpq.NewScratch()
			for qi := lo; qi < hi; qi++ {
				cands, st := b.Ix.Search(queries.Row(qi),
					ivfpq.SearchOpts{NProbe: nprobe, K: k, Scratch: sc})
				results[qi] = append([]topk.Candidate(nil), cands...)
				stats[qi] = st
			}
		}(lo, hi)
	}
	wg.Wait()

	var agg ivfpq.SearchStats
	for i := range stats {
		agg.Add(stats[i])
	}
	w := workloadFromStats(b.Ix, agg, nq, k, bytes)
	st, ok := b.Dev.Time(w)
	if !ok {
		return &Result{OOM: true}, nil
	}
	total := st.Total()
	return &Result{
		Results: results,
		Stages:  st,
		QPS:     archmodel.QPS(nq, total),
		QPSW:    archmodel.QPS(nq, total) / b.Dev.PeakWatts,
	}, nil
}

// workloadFromStats converts measured search counters into the roofline
// workload description.
func workloadFromStats(ix *ivfpq.Index, s ivfpq.SearchStats, nq, k int, indexBytes int64) archmodel.Workload {
	dim := float64(ix.Dim)
	dsub := float64(ix.PQ.Dsub)
	m := float64(ix.PQ.M)
	return archmodel.Workload{
		Queries:     nq,
		FilterFlops: float64(s.CentroidScans) * dim * 3,
		FilterBytes: float64(s.CentroidScans) * dim * 4,
		LUTFlops:    float64(s.LUTEntries) * dsub * 3,
		LUTBytes:    float64(s.LUTEntries) * dsub * 4,
		ScanBytes:   float64(s.CodeBytes),
		ScanFlops:   float64(s.CodesScanned) * m * 2,
		Candidates:  float64(s.HeapPushes),
		SelectionKs: k,
		IndexBytes:  indexBytes,
	}
}
