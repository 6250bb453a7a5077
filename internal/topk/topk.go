// Package topk implements the bounded top-k selection structures used by
// every search backend. The thread-local-heap merge with early
// termination pruning that is UpANNS optimization 4 (Section 4.4 of the
// paper, Fig. 15) runs in core's mergeTopK on these heaps.
//
// The convention throughout is "smaller distance is better": a Heap with
// capacity k retains the k smallest distances seen, using a max-heap so the
// current worst retained candidate is O(1) accessible for the pruning test.
package topk

// Candidate is one (vector id, distance) search result.
type Candidate struct {
	ID   int64
	Dist float32
}

// Heap is a bounded max-heap on distance holding the k best (smallest
// distance) candidates pushed so far. The zero value is unusable; create
// with NewHeap.
type Heap struct {
	items []Candidate
	k     int
}

// NewHeap returns a heap retaining the k smallest-distance candidates.
// It panics if k <= 0.
func NewHeap(k int) *Heap {
	if k <= 0 {
		panic("topk: NewHeap with k <= 0")
	}
	return &Heap{items: make([]Candidate, 0, k), k: k}
}

// Len returns the number of candidates currently held.
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether the heap holds k candidates.
func (h *Heap) Full() bool { return len(h.items) == h.k }

// Worst returns the largest retained distance. It panics on an empty heap;
// callers use Full() first when implementing pruning thresholds.
func (h *Heap) Worst() float32 {
	if len(h.items) == 0 {
		panic("topk: Worst on empty heap")
	}
	return h.items[0].Dist
}

// Reset empties the heap while retaining its capacity.
func (h *Heap) Reset() { h.items = h.items[:0] }

// ResetK empties the heap and sets its capacity to k, reusing the backing
// array when it is large enough. Preallocated search scratch uses it to
// serve varying k without reallocation. It panics if k <= 0.
func (h *Heap) ResetK(k int) {
	if k <= 0 {
		panic("topk: ResetK with k <= 0")
	}
	if cap(h.items) < k {
		h.items = make([]Candidate, 0, k)
	}
	h.items = h.items[:0]
	h.k = k
}

// Push offers a candidate. It returns true if the candidate was retained
// (heap not yet full, or candidate beats the current worst).
func (h *Heap) Push(id int64, dist float32) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, Candidate{ID: id, Dist: dist})
		h.siftUp(len(h.items) - 1)
		return true
	}
	if dist >= h.items[0].Dist {
		return false
	}
	h.items[0] = Candidate{ID: id, Dist: dist}
	h.siftDown(0)
	return true
}

// WouldAccept reports whether Push(id, dist) would retain the candidate,
// without modifying the heap.
func (h *Heap) WouldAccept(dist float32) bool {
	return len(h.items) < h.k || dist < h.items[0].Dist
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Dist >= h.items[i].Dist {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[l].Dist > h.items[largest].Dist {
			largest = l
		}
		if r < n && h.items[r].Dist > h.items[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// Items returns the retained candidates in heap order (not sorted). The
// slice aliases internal storage and is invalidated by further pushes.
func (h *Heap) Items() []Candidate { return h.items }

// Sorted returns the retained candidates in ascending distance order,
// ties broken by ascending ID for determinism. The heap is left empty.
func (h *Heap) Sorted() []Candidate {
	return h.AppendSorted(make([]Candidate, 0, len(h.items)))
}

// AppendSorted appends the retained candidates to dst in ascending
// distance order (ties broken by ascending ID) and returns the extended
// slice, leaving the heap empty. It is Sorted for allocation-free hot
// paths: with cap(dst)-len(dst) >= Len(), no allocation occurs.
func (h *Heap) AppendSorted(dst []Candidate) []Candidate {
	base := len(dst)
	dst = append(dst, h.items...)
	out := dst[base:]
	// Repeatedly extract the max into the tail of out.
	for n := len(h.items); n > 0; n-- {
		out[n-1] = h.items[0]
		h.items[0] = h.items[n-1]
		h.items = h.items[:n-1]
		h.siftDown(0)
	}
	// Stabilize equal distances by ID (insertion order from heaps is
	// arbitrary; experiments need deterministic output).
	insertionSortTies(out)
	return dst
}

func insertionSortTies(s []Candidate) {
	for i := 1; i < len(s); i++ {
		c := s[i]
		j := i - 1
		for j >= 0 && (s[j].Dist > c.Dist || (s[j].Dist == c.Dist && s[j].ID > c.ID)) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = c
	}
}

// MergeStats reports the work performed by core's pruned merge so the
// Fig. 15 experiment can quantify how many insertions pruning eliminated.
type MergeStats struct {
	Considered int // candidates present across all local heaps
	Inserted   int // candidates actually offered to the global heap
	Pruned     int // candidates skipped by early termination
}
