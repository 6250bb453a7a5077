package tier

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ivfpq"
)

// The fault-injection suite: a tiered search over a misbehaving device
// must either fail loudly or — under SkipFaulty — degrade to exactly the
// result a reference search produces with the faulty cluster removed,
// with the skip counted. Never a panic, never a silently wrong result.

// faultyIndexFor builds a tiered index whose image sits behind a
// FaultReaderAt, ready for rules.
func faultyIndexFor(t *testing.T, ix *ivfpq.Index, cfg Config) (*Index, *FaultReaderAt) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteImage(&buf); err != nil {
		t.Fatalf("WriteImage: %v", err)
	}
	fr := NewFaultReaderAt(bytes.NewReader(buf.Bytes()))
	img, err := ivfpq.OpenImage(fr, int64(buf.Len()))
	if err != nil {
		t.Fatalf("OpenImage: %v", err)
	}
	st := NewStore(NewImageSource(img), cfg)
	t.Cleanup(st.Close)
	ti, err := NewIndex(ix, st)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	return ti, fr
}

// clusterExtent returns cluster c's byte range [off, off+n) in the image
// WriteImage writes from ix — its ids block followed by its codes block,
// after the UPCI header (magic, six u32 fields) and the u64 cluster
// counts; see ivfpq.WriteImage for the layout.
func clusterExtent(ix *ivfpq.Index, c int32) (off, n int64) {
	off = 4 + 6*4 + 8*int64(ix.NList())
	for i := int32(0); i < c; i++ {
		off += int64(ix.Lists[i].Len()) * int64(8+ix.PQ.M)
	}
	return off, int64(ix.Lists[c].Len()) * int64(8+ix.PQ.M)
}

// probedCluster returns a non-empty cluster the query will probe (the
// last such, so faults land mid-search, after healthy clusters scanned).
func probedCluster(t *testing.T, ix *ivfpq.Index, q []float32, nprobe int) int32 {
	t.Helper()
	probes, _ := ix.Coarse.ProbeInto(nil, nil, q, nprobe)
	for i := len(probes) - 1; i >= 0; i-- {
		if ix.Lists[probes[i]].Len() > 0 {
			return probes[i]
		}
	}
	t.Fatal("query probes no non-empty cluster")
	return -1
}

// withoutCluster clones ix shallowly with cluster c emptied — the
// reference result a skip-faulty search must exactly reproduce.
func withoutCluster(ix *ivfpq.Index, c int32) *ivfpq.Index {
	clone := *ix
	clone.Lists = make([]ivfpq.List, len(ix.Lists))
	copy(clone.Lists, ix.Lists)
	clone.Lists[c] = ivfpq.List{}
	return &clone
}

func TestFaultHardErrorFailsSearch(t *testing.T) {
	ix, data := buildIndex(t, 41, 2000, 16, 10, 8)
	ti, fr := faultyIndexFor(t, ix, Config{})
	q := data.Row(3)
	o := ivfpq.SearchOpts{NProbe: 4, K: 10}
	target := probedCluster(t, ix, q, o.NProbe)

	if _, _, err := ti.Search(q, o); err != nil {
		t.Fatalf("pre-fault search failed: %v", err)
	}
	off, n := clusterExtent(ix, target)
	fr.InjectError(off, off+n, nil)
	_, st, err := ti.Search(q, o)
	if err == nil {
		t.Fatal("search over injected EIO returned no error without SkipFaulty")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error chain lost the injected fault: %v", err)
	}
	if st.SkippedClusters != 0 {
		t.Fatalf("failing search also counted %d skips", st.SkippedClusters)
	}
	fr.Clear()
	if _, _, err := ti.Search(q, o); err != nil {
		t.Fatalf("search after Clear failed: %v", err)
	}
}

func TestFaultSkipPolicyDegradesExactly(t *testing.T) {
	ix, data := buildIndex(t, 42, 2500, 16, 12, 8)
	ti, fr := faultyIndexFor(t, ix, Config{SkipFaulty: true})
	preds := []struct {
		name  string
		allow func(id int64) bool
	}{
		{"plain", nil},
		{"half", func(id int64) bool { return id%2 == 0 }},
	}
	for trial := 0; trial < 3; trial++ {
		q := data.Row(trial * 29)
		o := ivfpq.SearchOpts{NProbe: 5, K: 8}
		target := probedCluster(t, ix, q, o.NProbe)
		off, n := clusterExtent(ix, target)
		fr.InjectError(off, off+n, nil)
		degraded := withoutCluster(ix, target)
		for _, quantized := range []bool{false, true} {
			for _, p := range preds {
				o.Allow, o.Quantized = p.allow, quantized
				got, st, err := ti.Search(q, o)
				label := p.name
				if quantized {
					label += "/quantized"
				}
				if err != nil {
					t.Fatalf("%s: skip-faulty search errored: %v", label, err)
				}
				if st.SkippedClusters == 0 {
					t.Fatalf("%s: faulty cluster not counted as skipped", label)
				}
				want, _ := degraded.SearchReference(q, o)
				sameCandidates(t, label, got, want)
			}
		}
		fr.Clear()
	}
	if st := ti.store.Stats(); st.SkippedClusters == 0 {
		t.Fatalf("store counters missed the skips: %+v", st)
	}
}

func TestFaultShortRead(t *testing.T) {
	ix, data := buildIndex(t, 43, 1500, 16, 8, 8)
	q := data.Row(7)
	o := ivfpq.SearchOpts{NProbe: 4, K: 10}
	target := probedCluster(t, ix, q, o.NProbe)

	strict, fr := faultyIndexFor(t, ix, Config{})
	off, n := clusterExtent(ix, target)
	fr.InjectShortRead(off, off+n)
	if _, _, err := strict.Search(q, o); err == nil {
		t.Fatal("short read surfaced no error without SkipFaulty")
	}

	lax, fr2 := faultyIndexFor(t, ix, Config{SkipFaulty: true})
	off, n = clusterExtent(ix, target)
	fr2.InjectShortRead(off, off+n)
	got, st, err := lax.Search(q, o)
	if err != nil {
		t.Fatalf("skip-faulty search over short read errored: %v", err)
	}
	if st.SkippedClusters == 0 {
		t.Fatal("short-read cluster not counted as skipped")
	}
	want, _ := withoutCluster(ix, target).SearchReference(q, o)
	sameCandidates(t, "short-read skip", got, want)
}

func TestFaultSlowReadStaysCorrect(t *testing.T) {
	ix, data := buildIndex(t, 44, 1200, 16, 8, 8)
	ti, fr := faultyIndexFor(t, ix, Config{})
	q := data.Row(11)
	o := ivfpq.SearchOpts{NProbe: 3, K: 10}
	target := probedCluster(t, ix, q, o.NProbe)
	off, n := clusterExtent(ix, target)
	const delay = 25 * time.Millisecond
	fr.InjectSlow(off, off+n, delay)

	start := time.Now()
	got, st, err := ti.Search(q, o)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("search over slow device errored: %v", err)
	}
	if st.SkippedClusters != 0 {
		t.Fatalf("slow read skipped %d clusters", st.SkippedClusters)
	}
	if elapsed < delay {
		t.Fatalf("search finished in %v, before the %v injected stall", elapsed, delay)
	}
	want, _ := ix.SearchReference(q, o)
	sameCandidates(t, "slow read", got, want)
}

// TestFaultPrefetchFallsBackCold pins the prefetch failure path: a warm
// fetch that dies on an injected fault must not poison the search — the
// claimer falls back to the cold path, which applies the normal
// skip-or-error policy.
func TestFaultPrefetchFallsBackCold(t *testing.T) {
	ix, data := buildIndex(t, 45, 1800, 16, 10, 8)
	ti, fr := faultyIndexFor(t, ix, Config{SkipFaulty: true, PrefetchWorkers: 2, PrefetchDepth: 8})
	q := data.Row(5)
	o := ivfpq.SearchOpts{NProbe: 5, K: 10}
	target := probedCluster(t, ix, q, o.NProbe)
	off, n := clusterExtent(ix, target)
	fr.InjectError(off, off+n, nil)

	got, st, err := ti.Search(q, o)
	if err != nil {
		t.Fatalf("prefetching skip-faulty search errored: %v", err)
	}
	if st.SkippedClusters == 0 {
		t.Fatal("faulty prefetched cluster not counted as skipped")
	}
	want, _ := withoutCluster(ix, target).SearchReference(q, o)
	sameCandidates(t, "prefetch fallback", got, want)

	// Once the device heals, the same index serves exact results again.
	fr.Clear()
	got, st, err = ti.Search(q, o)
	if err != nil || st.SkippedClusters != 0 {
		t.Fatalf("healed search: err %v, %d skipped", err, st.SkippedClusters)
	}
	want, _ = ix.SearchReference(q, o)
	sameCandidates(t, "healed", got, want)
}

// TestFaultRebalanceSkipsFaultyPromotion pins hot-set behavior on a bad
// device: a cluster whose promotion read fails is left unpinned and
// everything else still pins.
func TestFaultRebalanceSkipsFaultyPromotion(t *testing.T) {
	ix, _ := buildIndex(t, 46, 1500, 16, 8, 8)
	ti, fr := faultyIndexFor(t, ix, Config{HotBytes: 1 << 30})

	var target int32 = -1
	for c := 0; c < ix.NList(); c++ {
		if ix.Lists[c].Len() > 0 {
			target = int32(c)
			break
		}
	}
	off, n := clusterExtent(ix, target)
	fr.InjectError(off, off+n, nil)

	freqs := make([]float64, ix.NList())
	for i := range freqs {
		freqs[i] = 1
	}
	st := ti.store
	st.SeedFrequencies(freqs)
	st.Rebalance()

	nonEmpty := 0
	for c := 0; c < ix.NList(); c++ {
		if ix.Lists[c].Len() > 0 {
			nonEmpty++
		}
	}
	stats := st.Stats()
	if got, want := stats.HotClusters, nonEmpty-1; got != want {
		t.Fatalf("rebalance pinned %d clusters, want %d (all but the faulty one)", got, want)
	}
}
