package pim

import (
	"strings"
	"testing"
	"testing/quick"
)

// These tests exercise failure paths and corner cases of the simulator
// beyond the happy path covered in pim_test.go.

func TestKernelPanicPropagatesAndNames(t *testing.T) {
	sys := NewSystem(smallSpec())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kernel panic not propagated to the host")
		}
		if !strings.Contains(toString(r), "DMA size") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	sys.Launch([]int{0, 1}, 3, func(tk *Tasklet) {
		if tk.DPU.ID == 1 && tk.ID == 2 {
			tk.MRAMRead(0, 0, 3) // illegal size
		}
		tk.Exec(10)
	})
}

func TestKernelPanicLeavesSystemUsable(t *testing.T) {
	sys := NewSystem(smallSpec())
	func() {
		defer func() { recover() }()
		sys.Launch([]int{0}, 2, func(tk *Tasklet) {
			panic("boom")
		})
	}()
	// A later launch must still work.
	res := sys.Launch([]int{0}, 2, func(tk *Tasklet) { tk.Exec(5) })
	if res.PerDPU[0].Instructions != 10 {
		t.Fatalf("system unusable after panic: %+v", res.PerDPU[0])
	}
}

func TestMRAMWriteOverflowInKernel(t *testing.T) {
	spec := smallSpec()
	spec.MRAMPerDPU = 4096
	sys := NewSystem(spec)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic writing past MRAM capacity from a kernel")
		}
	}()
	sys.Launch([]int{0}, 1, func(tk *Tasklet) {
		tk.MRAMWrite(4090, 0, 64)
	})
}

func TestLaunchUnknownDPU(t *testing.T) {
	sys := NewSystem(smallSpec())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown DPU id")
		}
	}()
	sys.Launch([]int{99}, 1, func(tk *Tasklet) {})
}

func TestLaunchBadTaskletCount(t *testing.T) {
	sys := NewSystem(smallSpec())
	for _, n := range []int{0, -1, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %d tasklets", n)
				}
			}()
			sys.Launch([]int{0}, n, func(tk *Tasklet) {})
		}()
	}
}

func TestIndependentSemaphores(t *testing.T) {
	// Two disjoint semaphores must not serialize against each other:
	// tasklet 0 uses sem 1, tasklet 1 uses sem 2; both sections start at
	// the same virtual time after the barrier.
	sys := NewSystem(smallSpec())
	var clocks [2]float64
	sys.Launch([]int{0}, 2, func(tk *Tasklet) {
		tk.Barrier()
		tk.SemTake(tk.ID + 1)
		start := tk.Clock()
		tk.Exec(100)
		tk.SemGive(tk.ID + 1)
		clocks[tk.ID] = start
	})
	if clocks[0] != clocks[1] {
		t.Fatalf("independent semaphores serialized: %v", clocks)
	}
}

func TestSemaphoreReuseAcrossQueries(t *testing.T) {
	// The same semaphore taken in two phases must respect both orders.
	sys := NewSystem(smallSpec())
	var ends []float64
	sys.Launch([]int{0}, 2, func(tk *Tasklet) {
		for round := 0; round < 2; round++ {
			tk.Barrier()
			tk.SemTake(0)
			tk.Exec(10)
			tk.SemGive(0)
			if tk.ID == 1 {
				ends = append(ends, tk.Clock())
			}
			tk.Barrier()
		}
	})
	if len(ends) != 2 || ends[1] <= ends[0] {
		t.Fatalf("semaphore timeline wrong: %v", ends)
	}
}

func TestDMAWriteRoundTripThroughWRAM(t *testing.T) {
	sys := NewSystem(smallSpec())
	sys.Launch([]int{2}, 1, func(tk *Tasklet) {
		w := tk.DPU.WRAM()
		for i := 0; i < 128; i++ {
			w[i] = byte(200 - i)
		}
		tk.MRAMWrite(512, 0, 128)
		// Clobber WRAM, read back.
		for i := 0; i < 128; i++ {
			w[i] = 0
		}
		tk.MRAMRead(0, 512, 128)
		for i := 0; i < 128; i++ {
			if w[i] != byte(200-i) {
				t.Errorf("byte %d: %d", i, w[i])
			}
		}
	})
}

func TestBalanceRatioSingleDPU(t *testing.T) {
	sys := NewSystem(smallSpec())
	res := sys.Launch([]int{0}, 1, func(tk *Tasklet) { tk.Exec(100) })
	if r := res.BalanceRatio(); r != 1 {
		t.Fatalf("single DPU balance %v", r)
	}
}

func TestBalanceRatioEmpty(t *testing.T) {
	if r := (LaunchResult{}).BalanceRatio(); r != 1 {
		t.Fatalf("empty balance %v", r)
	}
}

func TestDMALatencyProperty(t *testing.T) {
	spec := DefaultSpec()
	f := func(raw uint16) bool {
		// any aligned size within limits: monotone and positive
		b := 8 + int(raw%255)*8
		if b > spec.DMAMaxBytes {
			b = spec.DMAMaxBytes
		}
		l := spec.DMALatency(b)
		return l > 0 && l >= spec.DMALatency(8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalLedgersAccumulate(t *testing.T) {
	sys := NewSystem(smallSpec())
	sys.DPUs[0].WriteMRAM(0, make([]byte, 64))
	kernel := func(tk *Tasklet) {
		tk.MRAMRead(0, 0, 64)
		tk.Exec(10)
	}
	sys.Launch([]int{0}, 1, kernel)
	first := sys.DPUs[0].TotalCycles
	sys.Launch([]int{0}, 1, kernel)
	if sys.DPUs[0].TotalCycles <= first {
		t.Fatal("TotalCycles did not accumulate across launches")
	}
	if sys.DPUs[0].TotalMRAMReads != 2 {
		t.Fatalf("TotalMRAMReads = %d", sys.DPUs[0].TotalMRAMReads)
	}
}

func TestMRAMUsedHighWater(t *testing.T) {
	sys := NewSystem(smallSpec())
	d := sys.DPUs[0]
	d.WriteMRAM(0, make([]byte, 100))
	d.WriteMRAM(1000, make([]byte, 24))
	if got := len(d.mram); got != 1024 {
		t.Fatalf("MRAM high-water mark = %d, want 1024", got)
	}
}

func TestReadMRAMOutOfRange(t *testing.T) {
	sys := NewSystem(smallSpec())
	d := sys.DPUs[0]
	d.WriteMRAM(0, make([]byte, 16))
	if err := d.ReadMRAM(8, make([]byte, 16)); err == nil {
		t.Fatal("no error reading past populated MRAM from the host")
	}
	if err := d.ReadMRAM(-1, make([]byte, 4)); err == nil {
		t.Fatal("no error for negative offset")
	}
}

func TestManyTaskletsManyBarriersDeterministic(t *testing.T) {
	run := func() float64 {
		sys := NewSystem(smallSpec())
		res := sys.Launch(nil, 24, func(tk *Tasklet) {
			for i := 0; i < 50; i++ {
				tk.Exec(tk.ID%3 + 1)
				tk.Barrier()
			}
		})
		return res.SumCycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
