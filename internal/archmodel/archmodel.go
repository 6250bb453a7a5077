// Package archmodel provides analytic roofline timing models for the
// conventional architectures the paper compares against (Table 1): a dual
// Xeon Silver 4110 CPU node and an NVIDIA A100 GPU. The functional IVFPQ
// pipeline runs natively in Go; these models convert the *measured*
// operation counts (bytes streamed, FLOPs, candidates ranked) into
// modelled stage times, reproducing which stage bottlenecks where:
//
//   - CPU: LUT construction is compute-bound and dominates at small scale;
//     the distance scan is memory-bandwidth-bound (85.3 GB/s) and takes
//     over as clusters grow (Fig. 1a, Fig. 19), because codes stream from
//     DRAM while the LUT stays cache-resident.
//   - GPU: the distance scan flies at 1935 GB/s, but top-k selection has
//     limited parallelism and pays CUDA synchronization per batch, growing
//     to >64% of runtime at scale (Fig. 1b, Fig. 19).
//
// Absolute times are approximations; the reproduction targets the stage
// shares and performance ratios, which follow from the counted work and
// the published bandwidth/power numbers.
package archmodel

// Device identifies a modelled architecture.
type Device struct {
	Name string

	MemBandwidth   float64 // bytes/s peak for streaming scans
	ScanEfficiency float64 // fraction of peak the PQ scan sustains (random cluster hops + per-byte table lookups)
	CacheBandwidth float64 // bytes/s for cache-resident tables (centroids, LUT)
	Flops          float64 // f32 FLOP/s sustainable for LUT construction
	MemCapacity    int64   // bytes; exceeding it fails the run (GPU OOM, Fig. 12)
	PeakWatts      float64
	PriceUSD       float64

	// Top-k selection model: fixed synchronization latency per batch
	// round plus a serial candidate insertion rate.
	TopKSyncSec  float64 // per-batch synchronization overhead
	TopKRate     float64 // candidates/s through the selection stage
	TopKParallel float64 // concurrent selection lanes (queries ranked at once)

	// Host-side scalar rate for light bookkeeping stages.
	ScalarOps float64
}

// CPU returns the paper's CPU platform: 2x Intel Xeon Silver 4110
// (16 cores, 2.1 GHz) with 4xDDR4-2666, 128 GB, 85.3 GB/s, 190 W, $1400.
func CPU() Device {
	return Device{
		Name:           "Faiss-CPU",
		MemBandwidth:   85.3e9,
		ScanEfficiency: 0.35, // PQ scans hop between clusters and stall on LUT gathers
		CacheBandwidth: 400e9,
		Flops:          250e9, // 16 cores x 2.1 GHz x ~8 f32 FLOPs/cycle sustained
		MemCapacity:    128 << 30,
		PeakWatts:      190,
		PriceUSD:       1400,
		TopKSyncSec:    0,
		// The accept/reject compare is fused into the scan loop; only the
		// rare heap updates cost anything, so the effective rate is huge
		// and the CPU top-k share stays negligible (Fig. 19).
		TopKRate:     100e9,
		TopKParallel: 16,
		ScalarOps:    10e9,
	}
}

// GPU returns the paper's GPU platform: NVIDIA A100 PCIe 80 GB,
// 1935 GB/s, 300 W, $20000.
func GPU() Device {
	return Device{
		Name:           "Faiss-GPU",
		MemBandwidth:   1935e9,
		ScanEfficiency: 0.7, // coalesced warp scans come closer to peak
		CacheBandwidth: 10e12,
		Flops:          19.5e12,
		MemCapacity:    80 << 30,
		PeakWatts:      300,
		PriceUSD:       20000,
		TopKSyncSec:    60e-6, // CUDA stream sync per selection round
		// k-selection re-reads every candidate distance with limited
		// parallelism (the paper: GPUs stall during the low-parallelism
		// top-k stage, 64% of runtime at billion scale).
		TopKRate:     80e9,
		TopKParallel: 10,
		ScalarOps:    5e9,
	}
}

// StageTimes is a per-stage breakdown of one batch (seconds), matching
// the four online stages of Figure 2 plus host overhead.
type StageTimes struct {
	Filter   float64 // (a) cluster filtering
	LUT      float64 // (b) lookup table construction
	Distance float64 // (c) distance calculation
	TopK     float64 // (d) top-k selection
	Other    float64 // transfers, scheduling, final reduction
}

// Total returns the summed batch time.
func (s StageTimes) Total() float64 {
	return s.Filter + s.LUT + s.Distance + s.TopK + s.Other
}

// Workload counts the operations of one batch, gathered from functional
// execution of the shared IVFPQ index.
type Workload struct {
	Queries int

	// Stage (a): centroid scan.
	FilterFlops float64
	FilterBytes float64

	// Stage (b): LUT construction.
	LUTFlops float64
	LUTBytes float64 // codebook traffic

	// Stage (c): distance accumulation.
	ScanBytes float64 // encoded codes streamed from memory
	ScanFlops float64 // table lookups + adds

	// Stage (d): top-k.
	Candidates  float64 // distances offered to selection
	SelectionKs int     // k per query

	IndexBytes int64 // resident index size (codes + ids + centroids)
}

// Time converts counted work into modelled stage times on d. ok=false
// means the index does not fit device memory (the GPU OOM case for
// DEEP1B in Fig. 12 at large IVF).
func (d Device) Time(w Workload) (StageTimes, bool) {
	if w.IndexBytes > d.MemCapacity {
		return StageTimes{}, false
	}
	var st StageTimes
	// Centroid tables and codebooks are small and hot, so filter and LUT
	// traffic runs at cache bandwidth; the code scan streams from DRAM.
	st.Filter = maxf(w.FilterFlops/d.Flops, w.FilterBytes/d.CacheBandwidth)
	st.LUT = maxf(w.LUTFlops/d.Flops, w.LUTBytes/d.CacheBandwidth)
	eff := d.ScanEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	st.Distance = maxf(w.ScanFlops/d.Flops, w.ScanBytes/(d.MemBandwidth*eff))
	rounds := 1.0
	if d.TopKParallel > 0 && w.Queries > 0 {
		rounds = float64(w.Queries) / d.TopKParallel
		if rounds < 1 {
			rounds = 1
		}
	}
	st.TopK = d.TopKSyncSec*rounds + w.Candidates/d.TopKRate
	return st, true
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Scaled returns a proportional fraction of the device: every rate and
// the power envelope multiplied by f, capacity untouched. The benchmark
// harness uses this to compare a scaled-down simulated PIM deployment
// (e.g. 32 of the paper's 896 DPUs) against the matching fraction of the
// paper's CPU/GPU platforms, preserving Table 1's platform ratios.
func (d Device) Scaled(f float64) Device {
	if f <= 0 {
		panic("archmodel: Scaled with non-positive factor")
	}
	d.MemBandwidth *= f
	d.CacheBandwidth *= f
	d.Flops *= f
	d.TopKRate *= f
	d.ScalarOps *= f
	d.PeakWatts *= f
	if d.TopKParallel > 1 {
		d.TopKParallel *= f
		if d.TopKParallel < 1 {
			d.TopKParallel = 1
		}
	}
	return d
}

// QPS returns queries/s for a batch of q queries taking t seconds.
func QPS(q int, t float64) float64 {
	if t <= 0 {
		return 0
	}
	return float64(q) / t
}
