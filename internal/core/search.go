package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/archmodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Timing decomposes one batch's modelled time. Host stages use the CPU
// roofline model; transfers use the PIM system's uniform/serialized rule;
// Kernel is the slowest DPU's simulated cycle time.
type Timing struct {
	HostFilter   float64 // stage (a) + residual computation on the host
	HostSchedule float64 // Algorithm 2
	XferIn       float64 // residuals + task lists to MRAM
	Kernel       float64 // DPU execution (max over DPUs)
	XferOut      float64 // per-query top-k back to the host
	HostReduce   float64 // final cross-DPU merge

	// DPU stage totals (seconds summed over DPUs) for the Fig. 19 shares.
	DPULUT, DPUComb, DPUDist, DPUMerge float64
}

// Total returns the end-to-end batch latency.
func (t Timing) Total() float64 {
	return t.HostFilter + t.HostSchedule + t.XferIn + t.Kernel + t.XferOut + t.HostReduce
}

// DPUShares returns the DPU-side stage fractions (LUT construction,
// combination sums, distance calculation, top-k merge).
func (t Timing) DPUShares() (lut, comb, dist, merge float64) {
	total := t.DPULUT + t.DPUComb + t.DPUDist + t.DPUMerge
	if total == 0 {
		return 0, 0, 0, 0
	}
	return t.DPULUT / total, t.DPUComb / total, t.DPUDist / total, t.DPUMerge / total
}

// BatchResult is the outcome of one SearchBatch.
type BatchResult struct {
	Results [][]topk.Candidate // per query, ascending distance
	Timing  Timing
	QPS     float64
	// Balance is max/avg DPU kernel cycles (Fig. 11's ratio).
	Balance float64
	// Merge aggregates top-k pruning statistics across DPUs (Fig. 15).
	Merge topk.MergeStats
	// ScheduleBalance is Algorithm 2's planned load ratio.
	ScheduleBalance float64
}

// SearchBatch runs one batch through the full UpANNS pipeline.
func (e *Engine) SearchBatch(queries *vecmath.Matrix) (*BatchResult, error) {
	if queries.Dim != e.Index.Dim {
		return nil, fmt.Errorf("core: query dim %d != index dim %d", queries.Dim, e.Index.Dim)
	}
	cpu := archmodel.CPU()
	nq := queries.Rows
	sizes := e.Index.ListSizes()

	// ---- Stage (a): cluster filtering on the host ----
	filtered := make([][]int32, nq)
	for qi := 0; qi < nq; qi++ {
		probes, _ := e.Index.Coarse.ProbeInto(nil, nil, queries.Row(qi), e.Cfg.NProbe)
		keep := probes[:0]
		for _, c := range probes {
			if e.clusters[c].nvec > 0 {
				keep = append(keep, c)
			}
		}
		filtered[qi] = keep
	}
	filterFlops := float64(nq) * float64(e.Index.NList()) * float64(e.Index.Dim) * 3

	// ---- Stage: Algorithm 2 scheduling ----
	assign := placement.ScheduleWeighted(filtered, sizes, e.probeOverheadVecs(), e.Place)
	totalTasks := 0
	for _, tasks := range assign.PerDPU {
		totalTasks += len(tasks)
	}
	schedTime := float64(totalTasks) * 30 / cpu.ScalarOps

	// ---- Build per-DPU inputs: residuals, grouped by query ----
	residBytes := e.wram.residBytes
	works := make([][]queryWork, e.Sys.NumDPUs())
	inBytes := make([]int, e.Sys.NumDPUs())
	outBytes := make([]int, e.Sys.NumDPUs())
	activeDPUs := make([]int, 0, e.Sys.NumDPUs())
	resid := make([]float32, e.Index.Dim)
	buf := make([]byte, 0, 64<<10)

	for dpu := 0; dpu < e.Sys.NumDPUs(); dpu++ {
		tasks := assign.PerDPU[dpu]
		if len(tasks) == 0 {
			continue
		}
		sort.SliceStable(tasks, func(i, j int) bool {
			if tasks[i].Query != tasks[j].Query {
				return tasks[i].Query < tasks[j].Query
			}
			return tasks[i].Cluster < tasks[j].Cluster
		})
		inputBase := e.dataEnd[dpu]
		buf = buf[:0]
		var qws []queryWork
		for _, task := range tasks {
			replica := replicaIndex(e.Place.Replicas[task.Cluster], int32(dpu))
			if replica < 0 {
				return nil, fmt.Errorf("core: task for cluster %d on DPU %d without replica", task.Cluster, dpu)
			}
			e.Index.Coarse.Residual(resid, queries.Row(int(task.Query)), task.Cluster)
			off := inputBase + len(buf)
			for _, v := range resid {
				var w [4]byte
				binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
				buf = append(buf, w[:]...)
			}
			for len(buf)%residBytes != 0 {
				buf = append(buf, 0)
			}
			if len(qws) == 0 || qws[len(qws)-1].query != task.Query {
				qws = append(qws, queryWork{query: task.Query})
			}
			qw := &qws[len(qws)-1]
			qw.tasks = append(qw.tasks, taskRef{cluster: task.Cluster, replica: replica, inputOff: off})
		}
		if err := e.Sys.DPUs[dpu].WriteMRAM(inputBase, buf); err != nil {
			return nil, fmt.Errorf("core: input transfer to DPU %d: %w", dpu, err)
		}
		outBase := align8(inputBase + len(buf))
		for i := range qws {
			qws[i].outOff = outBase + i*e.Cfg.K*16
		}
		works[dpu] = qws
		inBytes[dpu] = len(buf)
		outBytes[dpu] = len(qws) * e.Cfg.K * 16
		activeDPUs = append(activeDPUs, dpu)
	}
	if len(activeDPUs) == 0 {
		return &BatchResult{Results: make([][]topk.Candidate, nq)}, nil
	}

	// UpANNS pads input buffers to a uniform size so host->DPU transfers
	// stay parallel (Section 2.2's concurrency rule).
	maxIn := 0
	for _, b := range inBytes {
		if b > maxIn {
			maxIn = b
		}
	}
	uniformIn := make([]int, len(activeDPUs))
	for i := range uniformIn {
		uniformIn[i] = maxIn
	}
	xferIn, _ := e.Sys.TransferTime(uniformIn)

	// ---- Kernel launch ----
	for _, dpu := range activeDPUs {
		e.runtimes[dpu].reset(works[dpu])
	}
	launchStart := time.Now()
	res := e.Sys.Launch(activeDPUs, e.Cfg.Tasklets, e.kernel)
	launchWall := time.Since(launchStart)

	// Bandwidth accounting for the live /metrics roofline comparison:
	// the scanned code bytes really do stream through the simulation
	// host's memory, so bytes over launch wall time is this process's
	// achieved scan bandwidth (conservative — the launch also covers
	// LUT builds and merges). LUT entries are analytic: one full table
	// per scheduled task.
	scanBytes, scanCodes := 0, 0
	for _, dpu := range activeDPUs {
		scanBytes += e.runtimes[dpu].scanBytes
		scanCodes += e.runtimes[dpu].scanCodes
	}
	obs.Kernel.RecordScan(scanBytes, scanCodes, launchWall)
	obs.Kernel.RecordLUT(totalTasks*e.Index.PQ.M*e.Index.PQ.KSub, 0)

	// ---- Gather results ----
	maxOut := 0
	for _, b := range outBytes {
		if b > maxOut {
			maxOut = b
		}
	}
	uniformOut := make([]int, len(activeDPUs))
	for i := range uniformOut {
		uniformOut[i] = maxOut
	}
	xferOut, _ := e.Sys.TransferTime(uniformOut)

	finals := make([]*topk.Heap, nq)
	rec := make([]byte, e.Cfg.K*16)
	entries := 0
	for _, dpu := range activeDPUs {
		for _, qw := range works[dpu] {
			if err := e.Sys.DPUs[dpu].ReadMRAM(qw.outOff, rec); err != nil {
				return nil, fmt.Errorf("core: gather from DPU %d: %w", dpu, err)
			}
			h := finals[qw.query]
			if h == nil {
				h = topk.NewHeap(e.Cfg.K)
				finals[qw.query] = h
			}
			for i := 0; i < e.Cfg.K; i++ {
				if binary.LittleEndian.Uint32(rec[16*i+12:]) == 0xffffffff {
					continue
				}
				id := int64(binary.LittleEndian.Uint64(rec[16*i:]))
				sum := binary.LittleEndian.Uint32(rec[16*i+8:])
				cluster, idx := decodeCandidate(id)
				globalID := e.Index.Lists[cluster].IDs[idx]
				h.Push(globalID, float32(sum))
				entries++
			}
		}
	}
	results := make([][]topk.Candidate, nq)
	scale := e.Index.QScale
	for qi := range finals {
		if finals[qi] == nil {
			continue
		}
		sorted := finals[qi].Sorted()
		for i := range sorted {
			sorted[i].Dist = sorted[i].Dist / scale
		}
		results[qi] = sorted
	}
	reduceTime := float64(entries) * 20 / cpu.ScalarOps

	// ---- Aggregate stage cycles and merge stats ----
	timing := Timing{
		HostFilter:   filterFlops/cpu.Flops + float64(totalTasks)*float64(e.Index.Dim)/cpu.Flops,
		HostSchedule: schedTime,
		XferIn:       xferIn,
		Kernel:       res.MaxSeconds,
		XferOut:      xferOut,
		HostReduce:   reduceTime,
	}
	var merge topk.MergeStats
	for _, dpu := range activeDPUs {
		rt := e.runtimes[dpu]
		timing.DPULUT += e.Sys.Spec.SecondsFromCycles(rt.stage.lut)
		timing.DPUComb += e.Sys.Spec.SecondsFromCycles(rt.stage.comb)
		timing.DPUDist += e.Sys.Spec.SecondsFromCycles(rt.stage.dist)
		timing.DPUMerge += e.Sys.Spec.SecondsFromCycles(rt.stage.mergeC)
		merge.Considered += rt.merge.Considered
		merge.Inserted += rt.merge.Inserted
		merge.Pruned += rt.merge.Pruned
	}

	return &BatchResult{
		Results:         results,
		Timing:          timing,
		QPS:             archmodel.QPS(nq, timing.Total()),
		Balance:         res.BalanceRatio(),
		Merge:           merge,
		ScheduleBalance: assign.BalanceRatio(),
	}, nil
}

func replicaIndex(replicas []int32, dpu int32) int {
	for i, d := range replicas {
		if d == dpu {
			return i
		}
	}
	return -1
}
