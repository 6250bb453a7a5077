package core

import (
	"encoding/binary"
	"math"

	"repro/internal/cooc"
	"repro/internal/pim"
	"repro/internal/pq"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// taskRef is one scheduled probe on a DPU: scan cluster for the query
// whose residual sits at inputOff in MRAM.
type taskRef struct {
	cluster  int32
	replica  int // index into clusterMeta.offsets for this DPU
	inputOff int
}

// queryWork groups a DPU's probes by query, the paper's processing order:
// all clusters of a query complete before its top-k merge (Barrier 3).
type queryWork struct {
	query  int32
	tasks  []taskRef
	outOff int
}

// dpuRuntime is per-DPU scratch shared by the tasklets of one launch.
// Heaps are functional Go state whose WRAM footprint is reserved by the
// layout plan; the baton scheduler serializes access, so no locking.
type dpuRuntime struct {
	work   []queryWork
	locals []*topk.Heap
	total  *topk.Heap
	resid  []float32    // decoded residual of the current task
	combos []cooc.Combo // decoded combination definitions of the current cluster

	stage stageCycles
	merge topk.MergeStats

	// scanBytes/scanCodes count the distance stage's streamed work for
	// the process-global bandwidth accounting (internal/obs). Tasklets
	// of one DPU are baton-serialized, so plain ints are race-free.
	scanBytes int
	scanCodes int
}

// stageCycles records per-stage DPU time (Fig. 19's breakdown), written by
// tasklet 0 at barrier points where all clocks agree.
type stageCycles struct {
	lut, comb, dist, mergeC float64
}

func newDPURuntime(tasklets, k, dim int) *dpuRuntime {
	rt := &dpuRuntime{
		locals: make([]*topk.Heap, tasklets),
		total:  topk.NewHeap(k),
		resid:  make([]float32, dim),
	}
	for i := range rt.locals {
		rt.locals[i] = topk.NewHeap(k)
	}
	return rt
}

func (rt *dpuRuntime) reset(work []queryWork) {
	rt.work = work
	rt.stage = stageCycles{}
	rt.merge = topk.MergeStats{}
	rt.scanBytes = 0
	rt.scanCodes = 0
}

// encodeCandidate packs (cluster, local index) into the heap id; the host
// decodes it back to a global vector id after gathering results.
func encodeCandidate(cluster int32, idx int) int64 {
	return int64(cluster)<<32 | int64(uint32(idx))
}

// lcm8 returns the least common multiple of n and 8.
func lcm8(n int) int {
	g := n
	for b := 8; b != 0; {
		g, b = b, g%b
	}
	return n * 8 / g
}

func decodeCandidate(id int64) (cluster int32, idx int) {
	return int32(id >> 32), int(uint32(id))
}

// kernel is the DPU program: per query, per cluster — LUT construction,
// combination sums, blocked distance scan — then the pruned top-k merge.
func (e *Engine) kernel(t *pim.Tasklet) {
	rt := e.runtimes[t.DPU.ID]
	w := e.wram
	wram := t.DPU.WRAM()
	m := e.Index.PQ.M
	dsub := e.Index.PQ.Dsub
	ksub := e.Index.PQ.KSub
	scale := e.Index.QScale
	k := e.Cfg.K
	staging := w.taskletStaging(t.ID)

	for qi := range rt.work {
		qw := &rt.work[qi]
		if t.ID < len(rt.locals) {
			rt.locals[t.ID].Reset()
		}
		if t.ID == 0 {
			rt.total.Reset()
		}

		for _, task := range qw.tasks {
			meta := &e.clusters[task.cluster]
			base := meta.offsets[task.replica]
			table := e.tables[task.cluster]

			// ---- Residual load (tasklet 0), Barrier 0 ----
			start := t.Clock()
			if t.ID == 0 {
				e.loadResidual(t, rt, task.inputOff)
			}
			t.Barrier()

			// ---- Stage: LUT construction (all tasklets, strided) ----
			e.buildLUT(t, wram, rt.resid, m, dsub, ksub, scale, staging)
			t.Barrier() // Barrier 1: LUT complete
			if t.ID == 0 {
				rt.stage.lut += t.Clock() - start
			}

			// ---- Stage: combination sums (CAE) ----
			start = t.Clock()
			if table != nil && meta.nCombos > 0 {
				if t.ID == 0 {
					e.loadCombos(t, rt, wram, base, meta.nCombos, staging)
				}
				t.Barrier()
				e.combSums(t, wram, rt.combos)
			}
			t.Barrier() // Barrier 2: sums ready
			if t.ID == 0 {
				rt.stage.comb += t.Clock() - start
			}

			// ---- Stage: distance calculation (blocked scan) ----
			start = t.Clock()
			dataBase := base + meta.combBytes
			if table == nil {
				e.scanPlain(t, rt, wram, task.cluster, dataBase, meta, staging)
			} else {
				e.scanCAE(t, rt, wram, task.cluster, dataBase, meta, staging)
			}
			t.Barrier() // Barrier 3: cluster finished
			if t.ID == 0 {
				rt.stage.dist += t.Clock() - start
			}
		}

		// ---- Stage: per-query top-k merge + result write ----
		start := t.Clock()
		e.mergeTopK(t, rt)
		t.Barrier()
		if t.ID == 0 {
			e.writeResult(t, rt, wram, staging, qw.outOff, k)
			rt.stage.mergeC += t.Clock() - start
		}
		t.Barrier()
	}
}

// loadResidual DMA-reads the query residual into the WRAM resid area and
// decodes it for the tasklets.
func (e *Engine) loadResidual(t *pim.Tasklet, rt *dpuRuntime, inputOff int) {
	w := e.wram
	wram := t.DPU.WRAM()
	n := len(rt.resid) * 4
	for off := 0; off < n; off += e.Sys.Spec.DMAMaxBytes {
		chunk := n - off
		if chunk > e.Sys.Spec.DMAMaxBytes {
			chunk = e.Sys.Spec.DMAMaxBytes
		}
		t.MRAMRead(w.residOff+off, inputOff+off, chunk)
	}
	for i := range rt.resid {
		rt.resid[i] = math.Float32frombits(binary.LittleEndian.Uint32(wram[w.residOff+4*i:]))
	}
	t.Exec(len(rt.resid)) // unpack
}

// buildLUT computes this tasklet's stripe of the quantized lookup table,
// streaming codebook segments from MRAM through the staging buffer
// (Figure 6: threads concurrently fetch codebook segments).
func (e *Engine) buildLUT(t *pim.Tasklet, wram []byte, resid []float32, m, dsub, ksub int, scale float32, staging int) {
	w := e.wram
	spec := e.Sys.Spec
	// Entries are decoded lutGroup at a time and their distances taken
	// in one vecmath.L2Rows call, the same bits as one L2Squared per
	// entry; the simulated cost is still charged entry by entry.
	const lutGroup = 16
	var entries [lutGroup * 64]float32
	var dists [lutGroup]float32
	subBytes := ksub * dsub * 4 // one subspace's codebook block
	// Chunks must respect both the 8-byte DMA alignment and whole-entry
	// boundaries; their lcm always divides subBytes (256 entries).
	entryBytes := dsub * 4
	step := lcm8(entryBytes)
	for sub := t.ID; sub < m; sub += t.N {
		rsub := resid[sub*dsub : (sub+1)*dsub]
		cbBase := sub * subBytes
		lutBase := w.lutOff + sub*256*2
		perChunk := (min(w.stagingBytes, spec.DMAMaxBytes) / step) * step
		j := 0
		for off := 0; off < subBytes; off += perChunk {
			chunk := subBytes - off
			if chunk > perChunk {
				chunk = perChunk
			}
			t.MRAMRead(staging, cbBase+off, chunk)
			for p := 0; p+entryBytes <= chunk; {
				n := 0
				for ; n < lutGroup && p+entryBytes <= chunk; n++ {
					for d := 0; d < dsub; d++ {
						entries[n*dsub+d] = math.Float32frombits(binary.LittleEndian.Uint32(wram[staging+p+4*d:]))
					}
					p += entryBytes
				}
				vecmath.L2Rows(dists[:n], rsub, entries[:n*dsub])
				for _, dist := range dists[:n] {
					binary.LittleEndian.PutUint16(wram[lutBase+2*j:], pq.QuantizeEntry(dist, scale))
					t.Exec(costLUTPerDim*dsub + costLUTStore)
					j++
				}
			}
		}
	}
}

// loadCombos DMA-reads the cluster's combination definitions (6 bytes
// each, 8-aligned region) and decodes them into runtime scratch. Chunk
// starts snap back to 8-byte boundaries so records never straddle reads.
func (e *Engine) loadCombos(t *pim.Tasklet, rt *dpuRuntime, wram []byte, base, nCombos, staging int) {
	if cap(rt.combos) < nCombos {
		rt.combos = make([]cooc.Combo, nCombos)
	}
	rt.combos = rt.combos[:nCombos]
	regionBytes := align8(nCombos * 6)
	limit := min(e.wram.stagingBytes, e.Sys.Spec.DMAMaxBytes)
	decoded := 0
	for decoded < nCombos {
		off := (decoded * 6) &^ 7
		chunk := regionBytes - off
		if chunk > limit {
			chunk = limit
		}
		t.MRAMRead(staging, base+off, chunk)
		progressed := false
		for ; decoded < nCombos; decoded++ {
			p := decoded*6 - off
			if p+6 > chunk {
				break
			}
			c := &rt.combos[decoded]
			copy(c.Positions[:], wram[staging+p:staging+p+3])
			copy(c.Codes[:], wram[staging+p+3:staging+p+6])
			progressed = true
		}
		if !progressed {
			panic("core: combination definition larger than staging buffer")
		}
	}
	t.Exec(nCombos) // decode loop
}

// combSums fills this tasklet's stripe of the WRAM partial-sum buffer:
// slot (combo, mask) = sum of the masked elements' LUT entries.
func (e *Engine) combSums(t *pim.Tasklet, wram []byte, combos []cooc.Combo) {
	w := e.wram
	for ci := t.ID; ci < len(combos); ci += t.N {
		c := combos[ci]
		var elem [cooc.ComboLen]uint32
		for b := 0; b < cooc.ComboLen; b++ {
			lutAddr := w.lutOff + 2*(int(c.Positions[b])*256+int(c.Codes[b]))
			elem[b] = uint32(binary.LittleEndian.Uint16(wram[lutAddr:]))
		}
		base := w.combOff + ci*cooc.SlotsPerCombo*4
		for mask := 1; mask < cooc.SlotsPerCombo; mask++ {
			var s uint32
			for b := 0; b < cooc.ComboLen; b++ {
				if mask&(1<<b) != 0 {
					s += elem[b]
				}
			}
			binary.LittleEndian.PutUint32(wram[base+4*mask:], s)
		}
		t.Exec((cooc.SlotsPerCombo - 1) * costCombSlot)
	}
}

// scanPlain streams raw M-byte PQ codes block by block and accumulates
// quantized LUT distances into the tasklet-local heap.
func (e *Engine) scanPlain(t *pim.Tasklet, rt *dpuRuntime, wram []byte, cluster int32, dataBase int, meta *clusterMeta, staging int) {
	w := e.wram
	m := e.Index.PQ.M
	r := e.Cfg.VectorsPerRead
	local := rt.locals[t.ID]
	for b := t.ID; b < meta.nblocks; b += t.N {
		t.MRAMRead(staging, dataBase+b*meta.blockBytes, meta.blockBytes)
		rt.scanBytes += meta.blockBytes
		count := meta.nvec - b*r
		if count > r {
			count = r
		}
		rt.scanCodes += count
		for j := 0; j < count; j++ {
			rec := staging + j*m
			var sum uint32
			for mi := 0; mi < m; mi++ {
				sum += uint32(binary.LittleEndian.Uint16(wram[w.lutOff+2*(mi*256+int(wram[rec+mi])):]))
			}
			t.Exec(m*costPlainEntry + costRecordOverhead)
			e.offerCandidate(t, local, cluster, b*r+j, sum)
		}
	}
}

// scanCAE streams re-encoded blocks: [firstIdx u32][count u16][pad], then
// [len u16][addr u16 x len] records. Direct addresses index the LUT;
// slot addresses index the partial-sum buffer.
func (e *Engine) scanCAE(t *pim.Tasklet, rt *dpuRuntime, wram []byte, cluster int32, dataBase int, meta *clusterMeta, staging int) {
	w := e.wram
	lutSpace := 256 * e.Index.PQ.M
	local := rt.locals[t.ID]
	for b := t.ID; b < meta.nblocks; b += t.N {
		t.MRAMRead(staging, dataBase+b*meta.blockBytes, meta.blockBytes)
		rt.scanBytes += meta.blockBytes
		firstIdx := int(binary.LittleEndian.Uint32(wram[staging:]))
		count := int(binary.LittleEndian.Uint16(wram[staging+4:]))
		rt.scanCodes += count
		pos := staging + blockHeaderBytes
		for rec := 0; rec < count; rec++ {
			l := int(binary.LittleEndian.Uint16(wram[pos:]))
			pos += 2
			var sum uint32
			for i := 0; i < l; i++ {
				addr := int(binary.LittleEndian.Uint16(wram[pos+2*i:]))
				if addr < lutSpace {
					sum += uint32(binary.LittleEndian.Uint16(wram[w.lutOff+2*addr:]))
				} else {
					sum += binary.LittleEndian.Uint32(wram[w.combOff+4*(addr-lutSpace):])
				}
			}
			pos += 2 * l
			t.Exec(l*costCAEEntry + costRecordOverhead)
			e.offerCandidate(t, local, cluster, firstIdx+rec, sum)
		}
	}
}

// offerCandidate charges the compare cost and pushes accepted candidates
// into the tasklet-local heap.
func (e *Engine) offerCandidate(t *pim.Tasklet, local *topk.Heap, cluster int32, idx int, sum uint32) {
	t.Exec(costHeapCompare)
	d := float32(sum) // exact: sums stay below 2^24
	if id := encodeCandidate(cluster, idx); local.WouldAccept(id, d) {
		local.Push(id, d)
		t.Exec(heapUpdateCost(e.Cfg.K))
	}
}

// mergeTopK implements Section 4.4: each tasklet drains its local heap in
// ascending order (min-heap conversion) and inserts into the DPU-total
// heap under a semaphore; once the local minimum cannot beat the global
// k-th best, the rest of the local heap is pruned. With pruning disabled
// every candidate is inserted (the baseline in Fig. 15).
func (e *Engine) mergeTopK(t *pim.Tasklet, rt *dpuRuntime) {
	local := rt.locals[t.ID]
	n := local.Len()
	if n == 0 {
		return
	}
	k := e.Cfg.K
	if e.Cfg.UsePruning {
		asc := local.Sorted()
		t.Exec(n * costHeapPop) // convert max-heap to ascending order
		for i, c := range asc {
			t.SemTake(0)
			t.Exec(costHeapCompare)
			if !rt.total.WouldAccept(c.ID, c.Dist) {
				t.SemGive(0)
				rt.merge.Pruned += len(asc) - i
				rt.merge.Considered += len(asc) - i
				break
			}
			rt.total.Push(c.ID, c.Dist)
			t.Exec(heapUpdateCost(k))
			t.SemGive(0)
			rt.merge.Inserted++
			rt.merge.Considered++
		}
	} else {
		for _, c := range local.Items() {
			t.SemTake(0)
			t.Exec(costHeapCompare)
			if rt.total.WouldAccept(c.ID, c.Dist) {
				rt.total.Push(c.ID, c.Dist)
				t.Exec(heapUpdateCost(k))
			}
			t.SemGive(0)
			rt.merge.Inserted++
			rt.merge.Considered++
		}
		local.Reset()
	}
}

// writeResult serializes the DPU's final top-k for the query into the
// output MRAM region: k entries of [encodedID u64][sum u32][pad u32].
func (e *Engine) writeResult(t *pim.Tasklet, rt *dpuRuntime, wram []byte, staging, outOff, k int) {
	res := rt.total.Sorted()
	t.Exec(len(res) * costHeapPop)
	bytes := k * 16
	for i := 0; i < bytes; i++ {
		wram[staging+i] = 0
	}
	for i, c := range res {
		binary.LittleEndian.PutUint64(wram[staging+16*i:], uint64(c.ID))
		binary.LittleEndian.PutUint32(wram[staging+16*i+8:], uint32(c.Dist))
		t.Exec(costResultEntry)
	}
	// Mark empty slots invalid.
	for i := len(res); i < k; i++ {
		binary.LittleEndian.PutUint32(wram[staging+16*i+12:], 0xffffffff)
	}
	for off := 0; off < bytes; off += e.Sys.Spec.DMAMaxBytes {
		chunk := bytes - off
		if chunk > e.Sys.Spec.DMAMaxBytes {
			chunk = e.Sys.Spec.DMAMaxBytes
		}
		t.MRAMWrite(outOff+off, staging+off, chunk)
	}
}
