// Package workload derives the query-side statistics UpANNS' offline
// phase consumes: historical per-cluster access frequencies (the f_i input
// of Algorithm 1) estimated from a representative query sample, and batch
// iteration helpers.
package workload

import (
	"repro/internal/ivf"
	"repro/internal/vecmath"
)

// ClusterFrequencies estimates each cluster's access frequency by running
// cluster filtering over a query sample and counting how often each
// cluster lands in a query's nprobe set. Frequencies are normalized so a
// uniformly accessed cluster has frequency 1 (which keeps W_i = s_i * f_i
// in the same units as plain sizes).
func ClusterFrequencies(coarse *ivf.Coarse, sample *vecmath.Matrix, nprobe int) []float64 {
	n := coarse.NList()
	counts := make([]float64, n)
	if sample == nil || sample.Rows == 0 {
		for i := range counts {
			counts[i] = 1
		}
		return counts
	}
	total := 0.0
	for qi := 0; qi < sample.Rows; qi++ {
		probes, _ := coarse.ProbeInto(nil, nil, sample.Row(qi), nprobe)
		for _, c := range probes {
			counts[c]++
			total++
		}
	}
	if total == 0 {
		for i := range counts {
			counts[i] = 1
		}
		return counts
	}
	// Normalize to mean 1 with a small floor so cold clusters still carry
	// placement weight.
	mean := total / float64(n)
	for i := range counts {
		counts[i] /= mean
		if counts[i] < 0.01 {
			counts[i] = 0.01
		}
	}
	return counts
}

// Batches splits n items into consecutive [lo, hi) ranges of at most
// batchSize, in order.
func Batches(n, batchSize int) [][2]int {
	if batchSize <= 0 || n <= 0 {
		return nil
	}
	var out [][2]int
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// AccessSkew returns max/median cluster frequency, the Fig. 4a skew
// diagnostic.
func AccessSkew(freqs []float64) float64 {
	if len(freqs) == 0 {
		return 1
	}
	sorted := append([]float64(nil), freqs...)
	// Insertion sort: frequency vectors are small (#clusters).
	for i := 1; i < len(sorted); i++ {
		v := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j] > v {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = v
	}
	med := sorted[len(sorted)/2]
	if med == 0 {
		med = 1e-9
	}
	return sorted[len(sorted)-1] / med
}
