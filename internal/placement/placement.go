// Package placement implements UpANNS' PIM-Aware Workload Distribution
// (Section 4.1): Algorithm 1, the offline data placement that replicates
// hot IVF clusters across DPUs under a relaxing balance threshold, and
// Algorithm 2, the online greedy scheduler that maps each (query, cluster)
// probe of a batch onto a replica so per-DPU workloads stay even.
//
// The workload of cluster i is estimated as W_i = s_i * f_i (size times
// historical access frequency), following the paper: the distance
// calculation stage dominates and its cost is proportional to the number
// of encoded points scanned.
package placement

import (
	"fmt"
	"sort"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// Params tunes Algorithm 1.
type Params struct {
	// MaxDPUSize caps vectors per DPU (MRAM capacity constraint). 0 means
	// derive from totals: 2x the average plus slack.
	MaxDPUSize int
	// Rate is the threshold relaxation step when no DPU fits (paper: 0.02).
	Rate float64
	// ProbeOverhead is the fixed per-probe cost expressed in scan-vector
	// equivalents (LUT construction + combination sums). The paper's
	// W_i = s_i * f_i assumes clusters so large this is negligible; at
	// scaled-down cluster sizes the engine passes its cost-model value so
	// workload estimates stay faithful to actual DPU cycles.
	ProbeOverhead float64
}

// DefaultParams returns the paper's Algorithm 1 constants.
func DefaultParams() Params { return Params{Rate: 0.02} }

// Placement maps clusters to DPU replicas.
type Placement struct {
	NDPUs    int
	Replicas [][]int32 // cluster id -> DPU ids holding a replica
	// Load is the estimated offline workload per DPU (sum of w_i shares).
	Load []float64
	// Sizes is the number of vectors stored per DPU (replicas included).
	Sizes []int
}

// Place runs Algorithm 1 over all clusters. sizes[i] and freqs[i] are
// cluster i's vector count and historical access frequency; order is the
// cluster processing sequence (nil = descending workload), which callers
// set to a spatial proximity chain so co-accessed clusters land together.
func Place(sizes []int, freqs []float64, ndpu int, order []int, params Params) *Placement {
	m := len(sizes)
	if len(freqs) != m {
		panic("placement: sizes and freqs length mismatch")
	}
	if ndpu <= 0 {
		panic("placement: need at least one DPU")
	}
	if params.Rate <= 0 {
		params.Rate = 0.02
	}

	// Average workload per DPU: W = (1/n) * sum (s_i + ovh)*f_i.
	total := 0.0
	totalVecs := 0
	for i := range sizes {
		total += (float64(sizes[i]) + params.ProbeOverhead) * freqs[i]
		totalVecs += sizes[i]
	}
	avgW := total / float64(ndpu)
	if avgW == 0 {
		avgW = 1
	}
	maxSize := params.MaxDPUSize
	if maxSize == 0 {
		maxSize = 2*(totalVecs/ndpu) + maxInt(sizes) + 1
	}

	if order == nil {
		order = make([]int, m)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			wa := (float64(sizes[order[a]]) + params.ProbeOverhead) * freqs[order[a]]
			wb := (float64(sizes[order[b]]) + params.ProbeOverhead) * freqs[order[b]]
			if wa != wb {
				return wa > wb
			}
			return order[a] < order[b]
		})
	}

	p := &Placement{
		NDPUs:    ndpu,
		Replicas: make([][]int32, m),
		Load:     make([]float64, ndpu),
		Sizes:    make([]int, ndpu),
	}
	dID := 0 // rotating placement cursor (Algorithm 1 line 1 starts at n ≡ 0 mod n)
	for _, ci := range order {
		if sizes[ci] == 0 {
			continue
		}
		// Lines 2-3: replica count and per-replica workload share.
		w := (float64(sizes[ci]) + params.ProbeOverhead) * freqs[ci]
		ncpy := int((w + avgW - 1) / avgW)
		if ncpy < 1 {
			ncpy = 1
		}
		if ncpy > ndpu {
			ncpy = ndpu
		}
		share := w / float64(ncpy)

		// Lines 4-12: place each replica, relaxing thld when stuck. The
		// threshold only loosens the workload-balance constraint; if a full
		// rotation fails purely on the MRAM size cap, no relaxation can
		// help — extra replicas are then forgone (they are an optimization,
		// not a correctness requirement), and the mandatory first replica
		// goes to the DPU with the most size headroom.
		thld := 1.0
		count := 0
		sizeFits := false
		for placed := 0; placed < ncpy; {
			onThisDPU := contains(p.Replicas[ci], int32(dID))
			if !onThisDPU && p.Sizes[dID]+sizes[ci] <= maxSize {
				sizeFits = true
				if p.Load[dID]+share <= avgW*thld {
					p.Replicas[ci] = append(p.Replicas[ci], int32(dID))
					p.Load[dID] += share
					p.Sizes[dID] += sizes[ci]
					placed++
					count = 0
					sizeFits = false
					continue
				}
			}
			count++
			dID = (dID + 1) % ndpu
			if count == ndpu {
				if !sizeFits {
					// No DPU has room for another copy of this cluster.
					if placed > 0 {
						break
					}
					d := roomiest(p.Sizes, p.Replicas[ci], ndpu)
					p.Replicas[ci] = append(p.Replicas[ci], int32(d))
					p.Load[d] += share
					p.Sizes[d] += sizes[ci]
					placed++
				}
				thld += params.Rate
				count = 0
				sizeFits = false
			}
		}
	}
	return p
}

// HotSet selects the clusters an out-of-core tier should pin resident
// under a byte budget — the host-storage analogue of Algorithm 1's
// WRAM-side priority. The workload model W_i = s_i * f_i says a
// cluster's scan cost is paid in full on every probe, so greedily
// pinning by access frequency (ties: smaller cluster first, so the
// budget stretches over more probes) maximizes the scan bytes served
// from fast memory per budget byte. Clusters whose observed frequency is
// zero are never pinned, and a cluster that does not fit in the
// remaining budget is skipped rather than ending the sweep. sizes are
// cluster byte sizes; freqs are the access frequencies the drift
// detector observed (or the historical seed). The result is the pinned
// cluster ids in ascending order.
func HotSet(sizes []int64, freqs []float64, budget int64) []int32 {
	if len(freqs) != len(sizes) {
		panic("placement: sizes and freqs length mismatch")
	}
	if budget <= 0 {
		return nil
	}
	order := make([]int32, 0, len(sizes))
	for i := range sizes {
		if sizes[i] > 0 && freqs[i] > 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if freqs[ca] != freqs[cb] {
			return freqs[ca] > freqs[cb]
		}
		if sizes[ca] != sizes[cb] {
			return sizes[ca] < sizes[cb]
		}
		return ca < cb
	})
	var picked []int32
	used := int64(0)
	for _, c := range order {
		if used+sizes[c] > budget {
			continue
		}
		picked = append(picked, c)
		used += sizes[c]
	}
	sort.Slice(picked, func(a, b int) bool { return picked[a] < picked[b] })
	return picked
}

func maxInt(s []int) int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// roomiest returns the DPU with the fewest stored vectors among those not
// already holding the cluster (any DPU if all hold it).
func roomiest(dpuSizes []int, holding []int32, ndpu int) int {
	best, bestSize := -1, 0
	for d := 0; d < ndpu; d++ {
		if contains(holding, int32(d)) {
			continue
		}
		if best == -1 || dpuSizes[d] < bestSize {
			best, bestSize = d, dpuSizes[d]
		}
	}
	if best == -1 {
		return 0
	}
	return best
}

// RandomPlacement assigns every cluster a single replica on a uniformly
// random DPU — the PIM-naive baseline distribution the ablation in
// Fig. 11 compares against.
func RandomPlacement(sizes []int, ndpu int, seed uint64) *Placement {
	r := xrand.New(seed)
	p := &Placement{
		NDPUs:    ndpu,
		Replicas: make([][]int32, len(sizes)),
		Load:     make([]float64, ndpu),
		Sizes:    make([]int, ndpu),
	}
	for c := range sizes {
		d := int32(r.Intn(ndpu))
		p.Replicas[c] = []int32{d}
		p.Sizes[d] += sizes[c]
		p.Load[d] += float64(sizes[c])
	}
	return p
}

// ProximityOrder returns a greedy nearest-neighbor chain over the cluster
// centroids: starting from cluster 0, repeatedly hop to the nearest
// unvisited centroid. Processing clusters in this order makes Algorithm 1
// co-locate spatially adjacent clusters — the paper's third placement
// insight — because the rotating cursor keeps consecutive clusters on the
// same or nearby DPUs.
func ProximityOrder(centroids *vecmath.Matrix) []int {
	n := centroids.Rows
	order := make([]int, 0, n)
	visited := make([]bool, n)
	cur := 0
	for len(order) < n {
		visited[cur] = true
		order = append(order, cur)
		next, best := -1, float32(0)
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			d := vecmath.L2Squared(centroids.Row(cur), centroids.Row(j))
			if next == -1 || d < best {
				next, best = j, d
			}
		}
		if next == -1 {
			break
		}
		cur = next
	}
	return order
}

// Task is one scheduled probe: scan cluster Cluster for query Query.
type Task struct {
	Query   int32
	Cluster int32
}

// Assignment is Algorithm 2's output: the probe list per DPU.
type Assignment struct {
	PerDPU [][]Task
	// Load is the scheduled workload per DPU (sum of cluster sizes).
	Load []float64
}

// BalanceRatio returns max/avg scheduled load (Fig. 11's metric).
func (a *Assignment) BalanceRatio() float64 {
	var sum, maxL float64
	n := 0
	for _, l := range a.Load {
		sum += l
		if l > maxL {
			maxL = l
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return maxL / (sum / float64(n))
}

// ScheduleWeighted runs Algorithm 2: filtered[i] lists the nprobe cluster
// ids of query i; sizes are cluster vector counts; overhead is the fixed
// per-probe cost in vector equivalents; p maps clusters to replicas.
// Every (query, cluster) pair is assigned to exactly one DPU.
func ScheduleWeighted(filtered [][]int32, sizes []int, overhead float64, p *Placement) *Assignment {
	a := &Assignment{
		PerDPU: make([][]Task, p.NDPUs),
		Load:   make([]float64, p.NDPUs),
	}
	// Lines 4-7: pin single-replica clusters (no scheduling freedom) and
	// collect multi-replica probes.
	type probe struct {
		query   int32
		cluster int32
	}
	var flexible []probe
	for qi, clusters := range filtered {
		for _, c := range clusters {
			reps := p.Replicas[c]
			switch len(reps) {
			case 0:
				panic(fmt.Sprintf("placement: cluster %d has no replica", c))
			case 1:
				d := reps[0]
				a.PerDPU[d] = append(a.PerDPU[d], Task{Query: int32(qi), Cluster: c})
				a.Load[d] += float64(sizes[c]) + overhead
			default:
				flexible = append(flexible, probe{int32(qi), c})
			}
		}
	}
	// Lines 8-14: largest clusters first, each probe to the least-loaded
	// replica.
	sort.SliceStable(flexible, func(i, j int) bool {
		si, sj := sizes[flexible[i].cluster], sizes[flexible[j].cluster]
		if si != sj {
			return si > sj
		}
		if flexible[i].cluster != flexible[j].cluster {
			return flexible[i].cluster < flexible[j].cluster
		}
		return flexible[i].query < flexible[j].query
	})
	for _, pr := range flexible {
		reps := p.Replicas[pr.cluster]
		best := reps[0]
		for _, d := range reps[1:] {
			if a.Load[d] < a.Load[best] {
				best = d
			}
		}
		a.PerDPU[best] = append(a.PerDPU[best], Task{Query: pr.query, Cluster: pr.cluster})
		a.Load[best] += float64(sizes[pr.cluster]) + overhead
	}
	return a
}
