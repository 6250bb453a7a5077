// Package topk implements the bounded top-k selection structures used by
// every search backend. The thread-local-heap merge with early
// termination pruning that is UpANNS optimization 4 (Section 4.4 of the
// paper, Fig. 15) runs in core's mergeTopK on these heaps.
//
// One total order ranks every candidate: the smaller distance first, and
// on an equal distance the smaller id (Less). A Heap with capacity k
// retains the k first candidates under it, using a max-heap so the
// current worst retained candidate is O(1) accessible for the pruning
// test. Because the order is total, what a heap retains does not depend
// on the order candidates were pushed in: a search may scan its clusters,
// and a router merge its shards, in any order and return the same answer.
package topk

// Candidate is one (vector id, distance) search result.
type Candidate struct {
	ID   int64
	Dist float32
}

// Less reports whether a ranks before b: the smaller distance first, and
// on an equal distance the smaller id. It is the one order every top-k
// selection, merge and sort uses.
func Less(a, b Candidate) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID)
}

// Heap is a bounded max-heap under Less holding the k first candidates
// pushed so far. The zero value is unusable; create with NewHeap.
type Heap struct {
	items []Candidate
	k     int
}

// NewHeap returns a heap retaining the k first candidates under Less.
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

// Worst returns the last retained candidate under Less. It panics on an
// empty heap; callers use Full() first when implementing pruning
// thresholds.
func (h *Heap) Worst() Candidate {
	if len(h.items) == 0 {
		panic("topk: Worst on empty heap")
	}
	return h.items[0]
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
// (heap not yet full, or candidate ranks before the current worst).
func (h *Heap) Push(id int64, dist float32) bool {
	c := Candidate{ID: id, Dist: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !Less(c, h.items[0]) {
		return false
	}
	h.items[0] = c
	h.siftDown(0)
	return true
}

// WouldAccept reports whether Push(id, dist) would retain the candidate,
// without modifying the heap.
func (h *Heap) WouldAccept(id int64, dist float32) bool {
	return len(h.items) < h.k || Less(Candidate{ID: id, Dist: dist}, h.items[0])
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(h.items[parent], h.items[i]) {
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
		if l < n && Less(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && Less(h.items[largest], h.items[r]) {
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

// Sorted returns the retained candidates in ascending order under Less.
// The heap is left empty.
func (h *Heap) Sorted() []Candidate {
	return h.AppendSorted(make([]Candidate, 0, len(h.items)))
}

// AppendSorted appends the retained candidates to dst in ascending order
// under Less and returns the extended slice, leaving the heap empty. It
// is Sorted for allocation-free hot paths: with cap(dst)-len(dst) >=
// Len(), no allocation occurs.
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
	return dst
}

// MergeStats reports the work performed by core's pruned merge so the
// Fig. 15 experiment can quantify how many insertions pruning eliminated.
type MergeStats struct {
	Considered int // candidates present across all local heaps
	Inserted   int // candidates actually offered to the global heap
	Pruned     int // candidates skipped by early termination
}
