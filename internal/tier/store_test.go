package tier

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/ivfpq"
)

func TestStoreRebalancePinsByFrequency(t *testing.T) {
	ix, _ := buildIndex(t, 61, 2000, 16, 10, 8)
	img := imageFor(t, ix)

	// Budget for roughly half the corpus; the high-frequency clusters must
	// win the pins.
	var total int64
	for c := 0; c < ix.NList(); c++ {
		total += int64(ix.Lists[c].Len()) * int64(8+ix.PQ.M)
	}
	st := NewStore(NewImageSource(img), Config{HotBytes: total / 2})
	defer st.Close()

	freqs := make([]float64, ix.NList())
	for i := range freqs {
		freqs[i] = float64(ix.NList() - i) // cluster 0 hottest
	}
	st.SeedFrequencies(freqs)
	st.Rebalance()

	stats := st.Stats()
	if stats.HotClusters == 0 {
		t.Fatal("rebalance pinned nothing")
	}
	if stats.HotBytes > stats.HotBudgetBytes {
		t.Fatalf("hot set %d bytes exceeds budget %d", stats.HotBytes, stats.HotBudgetBytes)
	}
	if stats.Promotions == 0 {
		t.Fatalf("no promotions recorded: %+v", stats)
	}

	// Flip the frequencies; the next rebalance must churn the set.
	for i := range freqs {
		freqs[i] = float64(i * i * 1000)
	}
	st.SeedFrequencies(freqs)
	st.Rebalance()
	stats = st.Stats()
	if stats.Evictions == 0 {
		t.Fatalf("inverted frequencies evicted nothing: %+v", stats)
	}
	if stats.HotBytes > stats.HotBudgetBytes {
		t.Fatalf("post-churn hot set %d bytes exceeds budget %d", stats.HotBytes, stats.HotBudgetBytes)
	}
}

// gatedSource wraps a ClusterSource to make prefetch timing
// deterministic: every ReadInto counts its cluster and announces it on
// started, and reads of cluster gate block until release is closed.
type gatedSource struct {
	ClusterSource
	gate    int32
	started chan int32
	release chan struct{}

	mu    sync.Mutex
	reads map[int32]int
}

func newGatedSource(src ClusterSource, gate int32) *gatedSource {
	return &gatedSource{ClusterSource: src, gate: gate, started: make(chan int32, 64),
		release: make(chan struct{}), reads: make(map[int32]int)}
}

func (g *gatedSource) ReadInto(ids []int64, codes []uint8, c int32, base int) error {
	g.mu.Lock()
	g.reads[c]++
	g.mu.Unlock()
	g.started <- c
	if c == g.gate {
		<-g.release
	}
	return g.ClusterSource.ReadInto(ids, codes, c, base)
}

func (g *gatedSource) readsOf(c int32) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reads[c]
}

// waitStarted blocks until a read of cluster c has begun.
func (g *gatedSource) waitStarted(t *testing.T, c int32) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case got := <-g.started:
			if got == c {
				return
			}
		case <-timeout:
			t.Fatalf("no read of cluster %d started", c)
		}
	}
}

// nonEmptyClusters returns the first n non-empty clusters of ix.
func nonEmptyClusters(ix *ivfpq.Index, n int) []int32 {
	var out []int32
	for c := 0; c < ix.NList() && len(out) < n; c++ {
		if ix.Lists[c].Len() > 0 {
			out = append(out, int32(c))
		}
	}
	return out
}

func checkPayload(t *testing.T, ix *ivfpq.Index, c int32, ids []int64, codes []uint8) {
	t.Helper()
	l := &ix.Lists[c]
	if len(ids) != l.Len() || len(codes) != len(l.Codes) {
		t.Fatalf("cluster %d payload shape %d/%d, want %d/%d", c, len(ids), len(codes), l.Len(), len(l.Codes))
	}
	for i, id := range ids {
		if id != l.IDs[i] {
			t.Fatalf("cluster %d id[%d] = %d, want %d", c, i, id, l.IDs[i])
		}
	}
	if !bytes.Equal(codes, l.Codes) {
		t.Fatalf("cluster %d codes differ", c)
	}
}

// TestStorePrefetchClaimIsDeterministic pins the prefetch hand-off: a
// finished or in-flight prefetch is served from its slab and counted as
// a hit, while one no worker has started is overtaken — the search reads
// the cluster inline, exactly once, and the worker skips the entry.
func TestStorePrefetchClaimIsDeterministic(t *testing.T) {
	ix, _ := buildIndex(t, 62, 1500, 16, 8, 8)
	cl := nonEmptyClusters(ix, 3)
	a, b, c := cl[0], cl[1], cl[2]
	src := newGatedSource(NewImageSource(imageFor(t, ix)), a)
	st := NewStore(src, Config{PrefetchWorkers: 1, PrefetchDepth: 8})
	defer st.Close()

	// The single worker starts a and blocks inside its read; b and c queue
	// behind it, unstarted.
	st.Prefetch([]int32{a})
	src.waitStarted(t, a)
	st.Prefetch([]int32{b, c})

	before := st.Stats()
	var ids []int64
	var codes []uint8
	var resident bool
	var err error
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		resident, err = st.ScanCluster(b, FoldChunk, func(chunkIDs []int64, chunkCodes []uint8) error {
			ids, codes = append(ids, chunkIDs...), append(codes, chunkCodes...)
			return nil
		})
	}()
	select {
	case <-scanned:
	case <-time.After(10 * time.Second):
		close(src.release) // unblock the worker so Close can return
		t.Fatalf("search of cluster %d waited on a prefetch no worker had started", b)
	}
	if err != nil || resident {
		t.Fatalf("overtaken cluster %d: resident %v, err %v; want a cold read", b, resident, err)
	}
	checkPayload(t, ix, b, ids, codes)
	after := st.Stats()
	if got := after.ColdReads - before.ColdReads; got != 1 {
		t.Fatalf("overtaking cluster %d cost %d cold reads, want 1", b, got)
	}
	if after.HotMisses != before.HotMisses+1 || after.PrefetchHits != before.PrefetchHits {
		t.Fatalf("overtaken prefetch not counted as a miss: %+v -> %+v", before, after)
	}

	// Release a: the worker finishes it, dequeues b, skips it, and starts c.
	close(src.release)
	src.waitStarted(t, c)
	if got := src.readsOf(b); got != 1 {
		t.Fatalf("cluster %d read %d times, want once (the worker must skip it)", b, got)
	}
	for _, cc := range []int32{a, c} {
		ids, codes, ok := st.acquire(cc)
		if !ok {
			t.Fatalf("cluster %d not served from its prefetched slab", cc)
		}
		checkPayload(t, ix, cc, ids, codes)
	}
	stats := st.Stats()
	if stats.PrefetchHits != 2 || stats.PrefetchIssued != 3 {
		t.Fatalf("%d prefetch hits of %d issued, want 2 of 3", stats.PrefetchHits, stats.PrefetchIssued)
	}
	if stats.ColdReads != 3 {
		t.Fatalf("%d cold reads, want 3 (a and c prefetched, b inline)", stats.ColdReads)
	}

	// A second acquire of the same cluster is a plain miss: warm slabs are
	// claimed once, not cached.
	if _, _, ok := st.acquire(a); ok {
		t.Fatal("claimed warm slab served twice")
	}
}

// TestStoreCloseWithOvertakenPrefetches checks Close against overtaken
// entries: a search waiting on the in-flight read returns with its slab,
// the worker never reads what searches overtook, and claims after Close
// return at once.
func TestStoreCloseWithOvertakenPrefetches(t *testing.T) {
	ix, _ := buildIndex(t, 69, 1500, 16, 8, 8)
	cl := nonEmptyClusters(ix, 4)
	src := newGatedSource(NewImageSource(imageFor(t, ix)), cl[0])
	st := NewStore(src, Config{PrefetchWorkers: 1, PrefetchDepth: 8})

	st.Prefetch(cl[:1])
	src.waitStarted(t, cl[0])
	st.Prefetch(cl[1:])
	overtaken := make(chan bool, 2)
	go func() {
		for _, c := range cl[1:3] {
			_, _, ok := st.acquire(c)
			overtaken <- ok
		}
	}()
	for range 2 {
		select {
		case ok := <-overtaken:
			if ok {
				t.Fatal("unstarted prefetch served as resident")
			}
		case <-time.After(10 * time.Second):
			close(src.release) // unblock the worker so cleanup can finish
			t.Fatal("claim waited on a prefetch no worker had started")
		}
	}

	waiter := make(chan bool)
	go func() {
		_, _, ok := st.acquire(cl[0])
		waiter <- ok
	}()
	closed := make(chan struct{})
	go func() {
		st.Close()
		close(closed)
	}()
	close(src.release)
	timeout := time.After(10 * time.Second)
	select {
	case ok := <-waiter:
		if !ok {
			t.Fatalf("in-flight prefetch of cluster %d not served", cl[0])
		}
	case <-timeout:
		t.Fatal("search waiting on an in-flight prefetch stranded by Close")
	}
	select {
	case <-closed:
	case <-timeout:
		t.Fatal("Close blocked")
	}
	for _, c := range cl[1:3] {
		if got := src.readsOf(c); got != 0 {
			t.Fatalf("worker read overtaken cluster %d %d times", c, got)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.acquire(cl[3])
	}()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("claim after Close blocked")
	}
	st.Close() // idempotent
}

func TestStorePrefetchQueueOverflowDropsCleanly(t *testing.T) {
	ix, _ := buildIndex(t, 63, 1500, 16, 12, 8)
	img := imageFor(t, ix)
	// Depth 1 with a single worker: most requests overflow the queue and
	// are dropped, and dropped entries must not strand a later claimer.
	st := NewStore(NewImageSource(img), Config{PrefetchWorkers: 1, PrefetchDepth: 1})

	all := make([]int32, 0, ix.NList())
	for c := 0; c < ix.NList(); c++ {
		if ix.Lists[c].Len() > 0 {
			all = append(all, int32(c))
		}
	}
	st.Prefetch(all)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range all {
			st.acquire(c) // must never block forever, hit or miss
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("acquire blocked on a dropped prefetch entry")
	}
	st.Close()
	stats := st.Stats()
	if stats.PrefetchIssued+stats.PrefetchDropped != uint64(len(all)) {
		t.Fatalf("issued %d + dropped %d != %d requested", stats.PrefetchIssued, stats.PrefetchDropped, len(all))
	}
}

func TestStoreCloseFailsQueuedPrefetches(t *testing.T) {
	ix, _ := buildIndex(t, 64, 1200, 16, 8, 8)
	img := imageFor(t, ix)
	st := NewStore(NewImageSource(img), Config{PrefetchWorkers: 1, PrefetchDepth: 64})

	all := make([]int32, 0, ix.NList())
	for c := 0; c < ix.NList(); c++ {
		if ix.Lists[c].Len() > 0 {
			all = append(all, int32(c))
		}
	}
	st.Prefetch(all)
	st.Close()
	// After Close a late claim returns at once: an entry the worker
	// started was finished before Close returned, and one still queued is
	// overtaken rather than waited on.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range all {
			if e, claimed := st.claimWarm(c); claimed {
				<-e.ready
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("claim after Close blocked")
	}
	st.Close() // idempotent
}

func TestStorePrefetchAfterCloseIsNoop(t *testing.T) {
	ix, _ := buildIndex(t, 65, 1000, 16, 8, 8)
	st := NewStore(NewImageSource(imageFor(t, ix)), Config{PrefetchWorkers: 1})
	st.Close()
	st.Prefetch([]int32{0, 1, 2})
	if got := st.Stats().PrefetchIssued; got != 0 {
		t.Fatalf("%d prefetches issued after Close", got)
	}
}

func TestStoreScanClusterMatchesResident(t *testing.T) {
	ix, _ := buildIndex(t, 66, 10000, 16, 2, 8) // two clusters → each spans multiple FoldChunks
	img := imageFor(t, ix)
	cold := NewStore(NewImageSource(img), Config{})
	defer cold.Close()

	for c := 0; c < ix.NList(); c++ {
		l := &ix.Lists[c]
		var ids []int64
		var codes []uint8
		_, err := cold.ScanCluster(int32(c), FoldChunk, func(chunkIDs []int64, chunkCodes []uint8) error {
			ids = append(ids, chunkIDs...)
			codes = append(codes, chunkCodes...)
			return nil
		})
		if err != nil {
			t.Fatalf("ScanCluster(%d): %v", c, err)
		}
		if len(ids) != l.Len() || len(codes) != len(l.Codes) {
			t.Fatalf("cluster %d streamed %d/%d, want %d/%d", c, len(ids), len(codes), l.Len(), len(l.Codes))
		}
		for i := range ids {
			if ids[i] != l.IDs[i] {
				t.Fatalf("cluster %d id[%d] = %d, want %d", c, i, ids[i], l.IDs[i])
			}
		}
		for i := range codes {
			if codes[i] != l.Codes[i] {
				t.Fatalf("cluster %d code byte %d differs", c, i)
			}
		}
	}
	// Two clusters over 10k rows guarantees multi-chunk streaming.
	if got := cold.Stats().ColdReads; got < 4 {
		t.Fatalf("cold scan issued %d reads; chunking not exercised", got)
	}
}

func TestNewIndexRejectsShapeMismatch(t *testing.T) {
	ixA, _ := buildIndex(t, 67, 800, 16, 8, 8)
	ixB, _ := buildIndex(t, 68, 800, 16, 12, 8)
	st := NewStore(NewRAMSource(ixA), Config{})
	defer st.Close()
	if _, err := NewIndex(ixB, st); err == nil {
		t.Fatal("NewIndex accepted a store with the wrong cluster count")
	}
	if _, err := NewIndex(ixA, st); err != nil {
		t.Fatalf("NewIndex rejected a matching pair: %v", err)
	}
}

var _ ClusterSource = (*RAMSource)(nil)
var _ ClusterSource = (*ImageSource)(nil)
