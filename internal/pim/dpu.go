package pim

import "fmt"

// DPU is one simulated DRAM Processing Unit: a private MRAM bank, a WRAM
// scratchpad shared by its tasklets, and cycle/traffic ledgers.
//
// MRAM is grown lazily on write so that simulating hundreds of DPUs does
// not reserve hundreds of megabytes up front; the spec capacity is still
// enforced.
type DPU struct {
	ID   int
	spec *Spec

	mram []byte
	wram []byte

	// semClock[i] is the virtual release time of semaphore i, used to
	// model serialization of critical sections (top-k insertion).
	semClock map[int]float64

	// Ledgers, reset per Launch.
	kernelCycles  float64 // max tasklet clock of the last kernel
	mramReadBytes int64
	mramReadOps   int64
	mramWriteOps  int64
	instrCount    int64

	// Lifetime totals across launches.
	TotalCycles    float64
	TotalMRAMReads int64
}

func newDPU(id int, spec *Spec) *DPU {
	return &DPU{
		ID:       id,
		spec:     spec,
		wram:     make([]byte, spec.WRAMPerDPU),
		semClock: make(map[int]float64),
	}
}

// WRAM returns the DPU's scratchpad. Kernels address it with explicit
// offsets, mirroring the paper's manual WRAM layout (there is no MMU).
func (d *DPU) WRAM() []byte { return d.wram }

// ensureMRAM grows the backing store to cover [0, end), enforcing the
// spec's per-DPU MRAM capacity.
func (d *DPU) ensureMRAM(end int) error {
	if end > d.spec.MRAMPerDPU {
		return fmt.Errorf("pim: DPU %d MRAM overflow: need %d bytes, capacity %d", d.ID, end, d.spec.MRAMPerDPU)
	}
	if end > len(d.mram) {
		if end > cap(d.mram) {
			grown := make([]byte, end, end*2)
			copy(grown, d.mram)
			d.mram = grown
		} else {
			d.mram = d.mram[:end]
		}
	}
	return nil
}

// WriteMRAM stores data at offset (host-side DMA; not cycle-accounted on
// the DPU — host transfer time is modelled by System.TransferTime).
func (d *DPU) WriteMRAM(offset int, data []byte) error {
	if offset < 0 {
		return fmt.Errorf("pim: negative MRAM offset %d", offset)
	}
	if err := d.ensureMRAM(offset + len(data)); err != nil {
		return err
	}
	copy(d.mram[offset:], data)
	return nil
}

// ReadMRAM copies MRAM content into dst (host-side).
func (d *DPU) ReadMRAM(offset int, dst []byte) error {
	if offset < 0 || offset+len(dst) > len(d.mram) {
		return fmt.Errorf("pim: MRAM read [%d,%d) out of populated range %d", offset, offset+len(dst), len(d.mram))
	}
	copy(dst, d.mram[offset:])
	return nil
}

// checkDMA validates the hardware transfer rules: 8-byte alignment of the
// size, and size within [DMAMinBytes, DMAMaxBytes].
func (d *DPU) checkDMA(wramOff, mramOff, n int) error {
	s := d.spec
	switch {
	case n < s.DMAMinBytes || n > s.DMAMaxBytes:
		return fmt.Errorf("pim: DMA size %d outside [%d,%d]", n, s.DMAMinBytes, s.DMAMaxBytes)
	case n%s.DMAAlignBytes != 0:
		return fmt.Errorf("pim: DMA size %d not %d-byte aligned", n, s.DMAAlignBytes)
	case wramOff < 0 || wramOff+n > len(d.wram):
		return fmt.Errorf("pim: DMA WRAM range [%d,%d) outside scratchpad of %d", wramOff, wramOff+n, len(d.wram))
	case mramOff < 0:
		return fmt.Errorf("pim: negative MRAM offset %d", mramOff)
	}
	return nil
}

// KernelStats describes one DPU's work during the last Launch.
type KernelStats struct {
	Cycles        float64
	Seconds       float64
	Instructions  int64
	MRAMReadOps   int64
	MRAMReadBytes int64
	MRAMWriteOps  int64
}

func (d *DPU) resetLaunch() {
	d.kernelCycles = 0
	d.mramReadBytes = 0
	d.mramReadOps = 0
	d.mramWriteOps = 0
	d.instrCount = 0
	for k := range d.semClock {
		delete(d.semClock, k)
	}
}

func (d *DPU) stats() KernelStats {
	return KernelStats{
		Cycles:        d.kernelCycles,
		Seconds:       d.spec.SecondsFromCycles(d.kernelCycles),
		Instructions:  d.instrCount,
		MRAMReadOps:   d.mramReadOps,
		MRAMReadBytes: d.mramReadBytes,
		MRAMWriteOps:  d.mramWriteOps,
	}
}
