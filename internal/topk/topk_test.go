package topk

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// uniform32 returns a uniform float32 in [0, 1).
func uniform32(r *xrand.RNG) float32 { return float32(r.Uint64()>>40) / (1 << 24) }

func TestHeapBasic(t *testing.T) {
	h := NewHeap(3)
	h.Push(1, 5)
	h.Push(2, 3)
	h.Push(3, 8)
	h.Push(4, 1) // evicts 8
	h.Push(5, 9) // rejected
	got := h.Sorted()
	want := []Candidate{{4, 1}, {2, 3}, {1, 5}}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestHeapPushReturn(t *testing.T) {
	h := NewHeap(2)
	if !h.Push(1, 10) || !h.Push(2, 20) {
		t.Fatal("pushes into non-full heap must be retained")
	}
	if h.Push(3, 30) {
		t.Fatal("push worse than worst into full heap must be rejected")
	}
	if !h.Push(4, 5) {
		t.Fatal("push better than worst must be retained")
	}
}

func TestHeapWorst(t *testing.T) {
	h := NewHeap(3)
	h.Push(1, 5)
	h.Push(2, 7)
	if h.Worst() != (Candidate{ID: 2, Dist: 7}) {
		t.Fatalf("Worst = %+v", h.Worst())
	}
}

func TestHeapWorstPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHeap(1).Worst()
}

func TestNewHeapPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHeap(0)
}

func TestWouldAccept(t *testing.T) {
	h := NewHeap(1)
	if !h.WouldAccept(9, 100) {
		t.Fatal("empty heap must accept anything")
	}
	h.Push(5, 50)
	if h.WouldAccept(1, 60) {
		t.Fatal("full heap must reject worse")
	}
	if !h.WouldAccept(9, 40) {
		t.Fatal("full heap must accept better")
	}
	if h.WouldAccept(5, 50) || h.WouldAccept(6, 50) {
		t.Fatal("full heap must reject an equal distance under an equal or larger id")
	}
	if !h.WouldAccept(4, 50) {
		t.Fatal("full heap must accept an equal distance under a smaller id")
	}
}

func TestHeapReset(t *testing.T) {
	h := NewHeap(4)
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty the heap")
	}
	h.Push(2, 2)
	if h.Len() != 1 {
		t.Fatal("heap unusable after Reset")
	}
}

func TestSortedDeterministicTies(t *testing.T) {
	h := NewHeap(4)
	h.Push(9, 1)
	h.Push(3, 1)
	h.Push(7, 1)
	h.Push(5, 1)
	got := h.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i].ID < got[i-1].ID {
			t.Fatalf("ties not sorted by ID: %+v", got)
		}
	}
}

// TestHeapMatchesSortProperty pushes distinct ids in a random order, with
// distances drawn from a few values so ties straddle the k boundary, and
// requires the heap to keep exactly the first k of the set sorted by Less.
func TestHeapMatchesSortProperty(t *testing.T) {
	f := func(seed uint32, kRaw uint8) bool {
		r := xrand.New(uint64(seed))
		k := int(kRaw%20) + 1
		n := r.Intn(200) + 1
		levels := 1 + r.Intn(8)
		h := NewHeap(k)
		all := make([]Candidate, n)
		for i := range all {
			all[i] = Candidate{ID: int64(i), Dist: float32(r.Intn(levels))}
		}
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			all[i], all[j] = all[j], all[i]
		}
		for _, c := range all {
			h.Push(c.ID, c.Dist)
		}
		sort.Slice(all, func(i, j int) bool { return Less(all[i], all[j]) })
		got := h.Sorted()
		if len(got) != min(k, n) {
			return false
		}
		for i := range got {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapPush(b *testing.B) {
	r := xrand.New(1)
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = uniform32(r)
	}
	h := NewHeap(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(int64(i), vals[i&4095])
	}
}
