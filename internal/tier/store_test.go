package tier

import (
	"testing"
	"time"
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

func TestStorePrefetchClaimIsDeterministic(t *testing.T) {
	ix, _ := buildIndex(t, 62, 1500, 16, 8, 8)
	img := imageFor(t, ix)
	st := NewStore(NewImageSource(img), Config{PrefetchWorkers: 2, PrefetchDepth: 8})
	defer st.Close()

	var targets []int32
	for c := 0; c < ix.NList() && len(targets) < 4; c++ {
		if ix.Lists[c].Len() > 0 {
			targets = append(targets, int32(c))
		}
	}
	st.Prefetch(targets)

	// acquire claims the warm entry and waits on it, so no sleep is needed
	// — each target must come back resident with correct payload.
	for _, c := range targets {
		ids, codes, ok := st.acquire(c)
		if !ok {
			t.Fatalf("cluster %d not served from the prefetched slab", c)
		}
		l := &ix.Lists[c]
		if len(ids) != l.Len() || len(codes) != len(l.Codes) {
			t.Fatalf("cluster %d slab shape %d/%d, want %d/%d", c, len(ids), len(codes), l.Len(), len(l.Codes))
		}
		for i, id := range ids {
			if id != l.IDs[i] {
				t.Fatalf("cluster %d id[%d] = %d, want %d", c, i, id, l.IDs[i])
			}
		}
	}
	stats := st.Stats()
	if got, want := stats.PrefetchHits, uint64(len(targets)); got != want {
		t.Fatalf("%d prefetch hits, want %d", got, want)
	}
	if stats.PrefetchIssued != uint64(len(targets)) {
		t.Fatalf("%d prefetches issued, want %d", stats.PrefetchIssued, len(targets))
	}

	// A second acquire of the same cluster is a plain miss: warm slabs are
	// claimed once, not cached.
	if _, _, ok := st.acquire(targets[0]); ok {
		t.Fatal("claimed warm slab served twice")
	}
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
	// After Close every warm entry is resolved (fetched or failed); a late
	// claim must return immediately either way.
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
