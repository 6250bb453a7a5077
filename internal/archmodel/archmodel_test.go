package archmodel

import "testing"

// paperWorkload builds the operation counts of one query batch at a given
// scale, using the Fig. 1 parameters: M=32 LUT... actually Fig. 1 uses
// M=32, |C|=4096, nprobe=32 on SIFT (dim 128).
func paperWorkload(nVectors int) Workload {
	const (
		queries = 1000
		dim     = 128
		m       = 16
		nlist   = 4096
		nprobe  = 32
	)
	clusterSize := float64(nVectors) / nlist
	cands := float64(queries) * nprobe * clusterSize
	return Workload{
		Queries:     queries,
		FilterFlops: float64(queries) * nlist * dim * 3,
		FilterBytes: float64(queries) * nlist * dim * 4,
		LUTFlops:    float64(queries) * nprobe * float64(m*256) * float64(dim/m) * 3,
		LUTBytes:    float64(queries) * nprobe * float64(m*256*(dim/m)) * 4,
		ScanBytes:   cands * float64(m),
		ScanFlops:   cands * float64(m) * 2,
		Candidates:  cands,
		SelectionKs: 10,
		IndexBytes:  int64(nVectors) * int64(m+8),
	}
}

func TestCPUBottleneckShiftsWithScale(t *testing.T) {
	cpu := CPU()
	// Fig. 1a: at 1M the LUT stage leads; at 1B distance calculation
	// dominates (99.5% per Fig. 19).
	small, ok := cpu.Time(paperWorkload(1_000_000))
	if !ok {
		t.Fatal("1M should fit CPU memory")
	}
	if small.LUT <= small.Distance {
		t.Errorf("1M: LUT (%v) should dominate distance (%v)", small.LUT, small.Distance)
	}
	big, ok := cpu.Time(paperWorkload(1_000_000_000))
	if !ok {
		t.Fatal("1B should fit CPU memory (24 GB of codes)")
	}
	if share := big.Distance / big.Total(); share < 0.9 {
		t.Errorf("1B: distance share %v, want > 0.9 (paper: 99.5%%)", share)
	}
}

func TestGPUTopKDominatesAtScale(t *testing.T) {
	gpu := GPU()
	big, ok := gpu.Time(paperWorkload(1_000_000_000))
	if !ok {
		t.Fatal("1B codes (24 GB) should fit the A100's 80 GB")
	}
	if share := big.TopK / big.Total(); share < 0.5 {
		t.Errorf("1B: GPU top-k share %v, want > 0.5 (paper: 64%%+)", share)
	}
	// And the distance scan itself must be much faster than on CPU.
	cpuT, _ := CPU().Time(paperWorkload(1_000_000_000))
	if big.Distance >= cpuT.Distance {
		t.Error("GPU distance scan should beat CPU")
	}
}

func TestGPUOOM(t *testing.T) {
	gpu := GPU()
	w := paperWorkload(1_000_000_000)
	w.IndexBytes = 100 << 30 // DEEP1B at large IVF blows past 80 GB
	if _, ok := gpu.Time(w); ok {
		t.Fatal("expected OOM")
	}
}

func TestStageTimesTotal(t *testing.T) {
	s := StageTimes{Filter: 1, LUT: 2, Distance: 3, TopK: 4}
	if s.Total() != 10 {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestQPS(t *testing.T) {
	if q := QPS(1000, 0.5); q != 2000 {
		t.Fatalf("QPS = %v", q)
	}
	if q := QPS(10, 0); q != 0 {
		t.Fatalf("QPS(.,0) = %v", q)
	}
}

func TestDeviceSpecsMatchTable1(t *testing.T) {
	cpu, gpu := CPU(), GPU()
	if cpu.MemBandwidth != 85.3e9 || cpu.PeakWatts != 190 || cpu.MemCapacity != 128<<30 {
		t.Error("CPU spec deviates from Table 1")
	}
	if gpu.MemBandwidth != 1935e9 || gpu.PeakWatts != 300 || gpu.MemCapacity != 80<<30 {
		t.Error("GPU spec deviates from Table 1")
	}
	if cpu.PriceUSD != 1400 || gpu.PriceUSD != 20000 {
		t.Error("prices deviate from Table 1")
	}
}
