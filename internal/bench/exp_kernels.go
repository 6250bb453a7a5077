package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ivfpq"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// The kernelbench experiment: per-kernel achieved bandwidth of the
// blocked ADC scan path and the dsub-8 LUT build against the retained
// scalar references, reported next to the archmodel CPU roofline, plus
// the end-to-end Search vs SearchReference speedup. Results must be
// bit-identical between the two paths (checked inline here and pinned by
// the golden tests), so every ratio below is a pure speed comparison of
// equivalent computations.
//
// Regression gating works on speedup ratios, not absolute GB/s: absolute
// bandwidth varies across CI hosts by more than any kernel regression
// we care about, while the fast/reference ratio is a property of the
// code. kernelBaselineSpeedup holds the committed baselines; a run
// regressing more than kernelRegressionMargin below its baseline fails
// the bench gate.

// kernelBaselineSpeedup is the committed per-kernel baseline: the
// fast-path / reference-path bandwidth ratio each kernel achieved when
// the blocked scans landed. Conservative (the margin below absorbs host
// noise); raise them when the kernels speed up for good.
var kernelBaselineSpeedup = map[string]float64{
	"scan_f32":          1.5,
	"scan_u16":          2.25,
	"scan_u16_filtered": 1.6,
	// lut_build includes the uint16 quantize pass both sides share
	// (observed 2.0x on a 2-core Xeon, where the float build alone is
	// 2.4x).
	"lut_build": 1.6,
	// search_e2e is diluted by probe and heap work outside the kernels
	// and measures noisier than the pure scans (observed 1.25-1.55x on
	// one host), so its baseline is set to the low end of that range.
	"search_e2e": 1.3,
}

// kernelRegressionMargin is how far below its committed baseline a
// measured speedup may land before the artifact reports a violation
// (>10% is a regression).
const kernelRegressionMargin = 0.9

// minU16ScanSpeedup is the acceptance floor for the uint16-LUT ADC scan
// — the kernel the DPU arithmetic rides on must be at least 2x the
// scalar reference, independent of the committed baseline.
const minU16ScanSpeedup = 2.0

// KernelPointArtifact is one kernel's measured bandwidth pair.
type KernelPointArtifact struct {
	Name     string  `json:"name"`
	RefGBps  float64 `json:"ref_gbps"`
	FastGBps float64 `json:"fast_gbps"`
	Speedup  float64 `json:"speedup"`
	// RooflineFraction is FastGBps over the archmodel CPU scan bound —
	// how much of the modelled sustainable bandwidth one core achieves.
	RooflineFraction float64 `json:"roofline_fraction"`
}

// KernelsArtifact is the kernelbench machine-readable result
// (BENCH_kernels.json); Violations makes it the bench-gate regression
// check for raw kernel speed.
type KernelsArtifact struct {
	M            int     `json:"m"`
	Vectors      int     `json:"vectors"`
	RooflineGBps float64 `json:"roofline_gbps"`

	Points []KernelPointArtifact `json:"points"`

	// End-to-end single-query search, quantized arithmetic, scratch
	// reused: the optimized pipeline vs the retained scalar reference.
	SearchQPSFast float64 `json:"search_qps_fast"`
	SearchQPSRef  float64 `json:"search_qps_ref"`
	SearchSpeedup float64 `json:"search_speedup"`

	// CounterGBps is the achieved scan bandwidth the process-global
	// obs.Kernel counters observed during the fast end-to-end run — the
	// same number /metrics exports, closing the loop between this
	// harness and production observability.
	CounterGBps float64 `json:"counter_gbps"`

	// Mismatches counts result divergences between the fast and
	// reference paths observed while measuring (always 0; any other
	// value is a correctness violation, not a perf number).
	Mismatches int `json:"mismatches"`
}

// Violations is the kernel regression gate: bit-identical results,
// nonzero achieved bandwidth everywhere, the u16 scan at least 2x its
// scalar reference, and no kernel more than 10% below its committed
// baseline ratio.
func (a *KernelsArtifact) Violations() []string {
	var v []string
	if a.Mismatches > 0 {
		v = append(v, fmt.Sprintf("kernels: %d fast/reference result mismatches", a.Mismatches))
	}
	if len(a.Points) == 0 {
		return append(v, "kernels: no kernel measurements")
	}
	for _, p := range a.Points {
		if p.FastGBps <= 0 {
			v = append(v, fmt.Sprintf("kernels[%s]: achieved bandwidth is zero", p.Name))
		}
		if p.Name == "scan_u16" && p.Speedup < minU16ScanSpeedup {
			v = append(v, fmt.Sprintf("kernels[%s]: speedup %.2fx below the %.1fx acceptance floor",
				p.Name, p.Speedup, minU16ScanSpeedup))
		}
		if base, ok := kernelBaselineSpeedup[p.Name]; ok && p.Speedup < base*kernelRegressionMargin {
			v = append(v, fmt.Sprintf("kernels[%s]: speedup %.2fx regressed >10%% below the %.2fx baseline",
				p.Name, p.Speedup, base))
		}
	}
	if a.SearchQPSFast <= 0 || a.SearchQPSRef <= 0 {
		v = append(v, "kernels: end-to-end search produced no throughput")
	} else if base := kernelBaselineSpeedup["search_e2e"]; a.SearchSpeedup < base*kernelRegressionMargin {
		v = append(v, fmt.Sprintf("kernels[search_e2e]: speedup %.2fx regressed >10%% below the %.2fx baseline",
			a.SearchSpeedup, base))
	}
	return v
}

// bestOfPair interleaves reference and fast passes rep by rep and keeps
// each side's best. Interleaving matters for the speedup ratios: on a
// shared host a noisy phase that hit only one side would skew the ratio
// far more than it skews either absolute number.
func bestOfPair(reps int, refFn, fastFn func()) (refBest, fastBest time.Duration) {
	refBest, fastBest = time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		refFn()
		if d := time.Since(t0); d < refBest {
			refBest = d
		}
		t0 = time.Now()
		fastFn()
		if d := time.Since(t0); d < fastBest {
			fastBest = d
		}
	}
	return refBest, fastBest
}

// Kernels measures the ADC scan kernels and the end-to-end search path.
func (c *Context) Kernels() (*Report, error) {
	const (
		m    = 16
		nvec = 1 << 16 // 64k codes x 16 B = 1 MB per pass
		reps = 15
	)
	r := xrand.New(c.O.Seed + 41)
	lut := make(pq.LUT, m*pq.CodebookSize)
	for i := range lut {
		lut[i] = float32(r.Float64()) * 4
	}
	qtab := make([]uint16, len(lut))
	pq.QuantizeWithScaleInto(qtab, lut, 1024)
	codes := make([]uint8, nvec*m)
	for i := range codes {
		codes[i] = uint8(r.Intn(pq.CodebookSize))
	}
	scanBytes := float64(nvec * m)

	art := &KernelsArtifact{M: m, Vectors: nvec}
	art.RooflineGBps = obs.Kernel.Snapshot().RooflineGBps

	dists := make([]float32, nvec)
	ref := make([]float32, nvec)
	qdists := make([]uint32, nvec)
	qref := make([]uint32, nvec)

	gbps := func(bytes float64, d time.Duration) float64 { return bytes / d.Seconds() / 1e9 }
	point := func(name string, bytes float64, refD, fastD time.Duration) {
		p := KernelPointArtifact{
			Name:     name,
			RefGBps:  gbps(bytes, refD),
			FastGBps: gbps(bytes, fastD),
			Speedup:  refD.Seconds() / fastD.Seconds(),
		}
		if art.RooflineGBps > 0 {
			p.RooflineFraction = p.FastGBps / art.RooflineGBps
		}
		art.Points = append(art.Points, p)
	}

	// Float32 LUT scan: blocked kernel vs per-vector scalar calls.
	refD, fastD := bestOfPair(reps, func() {
		for i := 0; i < nvec; i++ {
			ref[i] = pq.ADCDistance(lut, codes[i*m:(i+1)*m])
		}
	}, func() {
		for base := 0; base < nvec; base += pq.ScanBlock {
			bn := nvec - base
			if bn > pq.ScanBlock {
				bn = pq.ScanBlock
			}
			pq.ScanDists(dists[base:base+bn], lut, codes[base*m:(base+bn)*m], m)
		}
	})
	for i := range dists {
		if dists[i] != ref[i] {
			art.Mismatches++
		}
	}
	point("scan_f32", scanBytes, refD, fastD)

	// Quantized uint16 LUT scan — the DPU arithmetic.
	refD, fastD = bestOfPair(reps, func() {
		for i := 0; i < nvec; i++ {
			qref[i] = pq.QDistanceTab(qtab, codes[i*m:(i+1)*m])
		}
	}, func() {
		for base := 0; base < nvec; base += pq.ScanBlock {
			bn := nvec - base
			if bn > pq.ScanBlock {
				bn = pq.ScanBlock
			}
			pq.ScanQDists(qdists[base:base+bn], qtab, codes[base*m:(base+bn)*m], m)
		}
	})
	for i := range qdists {
		if qdists[i] != qref[i] {
			art.Mismatches++
		}
	}
	point("scan_u16", scanBytes, refD, fastD)

	// Fused filtered scan at ~50% selectivity: gather kernel over
	// precollected positions vs a scalar loop branching per vector.
	allow := make([]bool, nvec)
	var at []int32
	for i := range allow {
		allow[i] = r.Intn(2) == 0
		if allow[i] {
			at = append(at, int32(i))
		}
	}
	filteredBytes := float64(len(at) * m)
	refD, fastD = bestOfPair(reps, func() {
		j := 0
		for i := 0; i < nvec; i++ {
			if !allow[i] {
				continue
			}
			qref[j] = pq.QDistanceTab(qtab, codes[i*m:(i+1)*m])
			j++
		}
	}, func() {
		for base := 0; base < len(at); base += pq.ScanBlock {
			bn := len(at) - base
			if bn > pq.ScanBlock {
				bn = pq.ScanBlock
			}
			pq.ScanQDistsAt(qdists[base:base+bn], qtab, codes, m, at[base:base+bn])
		}
	})
	for j := 0; j < len(at); j++ {
		if qdists[j] != qref[j] {
			art.Mismatches++
		}
	}
	point("scan_u16_filtered", filteredBytes, refD, fastD)

	// LUT construction + quantization at the served shape (D 128, M 16,
	// so dsub 8, full codebooks): the scalar BuildLUTReference vs the
	// dsub-8 row kernel. Bandwidth is codebook bytes read per build.
	const dim, builds = 128, 64
	q := &pq.Quantizer{Dim: dim, M: m, Dsub: dim / m, KSub: pq.CodebookSize,
		Codebooks: make([]float32, dim*pq.CodebookSize)}
	for i := range q.Codebooks {
		q.Codebooks[i] = float32(r.NormFloat64())
	}
	vec := make([]float32, dim)
	for i := range vec {
		vec[i] = float32(r.NormFloat64())
	}
	refLUT, refTab := make(pq.LUT, len(lut)), make([]uint16, len(qtab))
	refD, fastD = bestOfPair(reps, func() {
		for i := 0; i < builds; i++ {
			q.BuildLUTReference(refLUT, vec)
			pq.QuantizeWithScaleInto(refTab, refLUT, 1024)
		}
	}, func() {
		for i := 0; i < builds; i++ {
			q.BuildLUTInto(lut, vec)
			pq.QuantizeWithScaleInto(qtab, lut, 1024)
		}
	})
	for i := range lut {
		if math.Float32bits(lut[i]) != math.Float32bits(refLUT[i]) || qtab[i] != refTab[i] {
			art.Mismatches++
		}
	}
	point("lut_build", float64(builds*len(q.Codebooks)*4), refD, fastD)

	// End-to-end: the full optimized pipeline vs the retained scalar
	// reference over a real index, quantized arithmetic, one scratch.
	if err := c.kernelsEndToEnd(art); err != nil {
		return nil, err
	}

	t := metrics.NewTable("Kernel bandwidth vs scalar reference (best of runs)",
		"kernel", "ref GB/s", "fast GB/s", "speedup", "of roofline")
	for _, p := range art.Points {
		t.AddRow(p.Name, fmt.Sprintf("%.2f", p.RefGBps), fmt.Sprintf("%.2f", p.FastGBps),
			fmt.Sprintf("%.2fx", p.Speedup), metrics.Pct(p.RooflineFraction))
	}
	e2e := metrics.NewTable("End-to-end single-query search (quantized, scratch reused)",
		"path", "QPS")
	e2e.AddRow("Search (blocked kernels)", metrics.F(art.SearchQPSFast))
	e2e.AddRow("SearchReference (scalar)", metrics.F(art.SearchQPSRef))
	e2e.AddRow("speedup", fmt.Sprintf("%.2fx", art.SearchSpeedup))

	return &Report{
		ID:     "kernels",
		Title:  "ADC kernel bandwidth vs roofline",
		Tables: []*metrics.Table{t, e2e},
		Notes: []string{
			fmt.Sprintf("archmodel CPU roofline: %.1f GB/s (whole socket); single-core scalar gather saturates load ports well below it", art.RooflineGBps),
			fmt.Sprintf("obs.Kernel counters during the fast run: %.2f GB/s achieved", art.CounterGBps),
		},
		Artifact: art,
	}, nil
}

// kernelsEndToEnd measures Search vs SearchReference QPS over a small
// trained index and captures the obs.Kernel bandwidth delta of the fast
// run.
func (c *Context) kernelsEndToEnd(art *KernelsArtifact) error {
	r := xrand.New(c.O.Seed + 43)
	const dim = 32
	rows := c.O.N / 2
	if rows > 24000 {
		rows = 24000
	}
	data := randMatrix(r, rows, dim)
	ix := ivfpq.Train(data, ivfpq.Params{
		NList: 32, M: 16, KSub: c.O.KSub, Seed: c.O.Seed, TrainSub: c.O.TrainSub,
	})
	ix.Add(data, 0)
	nq := c.O.Queries
	if nq > 100 {
		nq = 100
	}
	queries := randMatrix(r, nq, dim)
	opts := ivfpq.SearchOpts{NProbe: 8, K: c.O.K, Quantized: true}

	// Correctness cross-check rides along on the first few queries.
	for qi := 0; qi < nq && qi < 8; qi++ {
		got, _ := ix.Search(queries.Row(qi), opts)
		want, _ := ix.SearchReference(queries.Row(qi), opts)
		if len(got) != len(want) {
			art.Mismatches++
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				art.Mismatches++
			}
		}
	}

	scratch := ivfpq.NewScratch()
	before := obs.Kernel.Snapshot()
	refD, fastD := bestOfPair(6, func() {
		for qi := 0; qi < nq; qi++ {
			ix.SearchReference(queries.Row(qi), opts)
		}
	}, func() {
		o := opts
		o.Scratch = scratch
		for qi := 0; qi < nq; qi++ {
			ix.Search(queries.Row(qi), o)
		}
	})
	// SearchReference does not record into obs.Kernel, so the counter
	// delta spans exactly the fast passes.
	after := obs.Kernel.Snapshot()
	if dt := after.ScanSeconds - before.ScanSeconds; dt > 0 {
		art.CounterGBps = float64(after.ScanBytes-before.ScanBytes) / dt / 1e9
	}
	art.SearchQPSFast = float64(nq) / fastD.Seconds()
	art.SearchQPSRef = float64(nq) / refD.Seconds()
	art.SearchSpeedup = art.SearchQPSFast / art.SearchQPSRef
	return nil
}

// randMatrix fills a rows x dim matrix with unit Gaussians.
func randMatrix(r *xrand.RNG, rows, dim int) *vecmath.Matrix {
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}
