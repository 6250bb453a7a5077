package tier

import (
	"bytes"
	"testing"

	"repro/internal/ivfpq"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// The tiered golden suite: Index.Search over every source and residency
// mix must be bit-identical to ivfpq.Index.SearchReference — same IDs,
// same float32 distances, same order — across randomized shapes, both
// arithmetic modes, and filter selectivities from near-empty to
// everything. Block-local addressing over ScanBlock chunks is what makes
// this possible; this suite is its enforcement.

func testData(seed uint64, rows, dim int) *vecmath.Matrix {
	r := xrand.New(seed)
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

func buildIndex(t testing.TB, seed uint64, rows, dim, nlist, m int) (*ivfpq.Index, *vecmath.Matrix) {
	t.Helper()
	data := testData(seed, rows, dim)
	ix := ivfpq.Train(data, ivfpq.Params{NList: nlist, M: m, Seed: seed})
	ix.Add(data, 0)
	return ix, data
}

// imageFor serializes ix's clusters and reopens them as an in-memory
// image (a bytes.Reader stands in for the file; the pread paths are
// identical).
func imageFor(t testing.TB, ix *ivfpq.Index) *ivfpq.Image {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteImage(&buf); err != nil {
		t.Fatalf("WriteImage: %v", err)
	}
	img, err := ivfpq.OpenImage(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("OpenImage: %v", err)
	}
	return img
}

func sameCandidates(t *testing.T, label string, got, want []topk.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates vs reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: candidate %d = {%d %v}, reference {%d %v}",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// tieredSetups covers the residency regimes a tiered search can meet:
// everything pinned hot, everything cold, a frequency-pinned hot half,
// cold with the async prefetcher racing the scan, and a frequency-pinned
// hot quarter with prefetching (4x budget pressure). Every store reads
// its source through ReadInto; the all-hot one reads an in-RAM source.
func tieredSetups(t testing.TB, ix *ivfpq.Index) map[string]*Index {
	t.Helper()
	setups := make(map[string]*Index)

	mk := func(name string, src ClusterSource, cfg Config) *Store {
		st := NewStore(src, cfg)
		t.Cleanup(st.Close)
		ti, err := NewIndex(ix, st)
		if err != nil {
			t.Fatalf("%s: NewIndex: %v", name, err)
		}
		setups[name] = ti
		return st
	}

	var total int64
	nonEmpty := 0
	for c := 0; c < ix.NList(); c++ {
		total += int64(ix.Lists[c].Len()) * int64(8+ix.PQ.M)
		if ix.Lists[c].Len() > 0 {
			nonEmpty++
		}
	}
	freqs := make([]float64, ix.NList())
	for i := range freqs {
		freqs[i] = float64(1 + i%7)
	}

	// The whole corpus fits the budget: Rebalance promotes every
	// non-empty cluster through ReadInto, and searches never go cold.
	ram := mk("ram", NewRAMSource(ix), Config{HotBytes: total})
	ram.SeedFrequencies(freqs)
	ram.Rebalance()
	if got := ram.Stats().HotClusters; got != nonEmpty {
		t.Fatalf("ram setup pinned %d of %d non-empty clusters", got, nonEmpty)
	}
	mk("image-cold", NewImageSource(imageFor(t, ix)), Config{})
	mk("image-prefetch", NewImageSource(imageFor(t, ix)), Config{PrefetchWorkers: 2, PrefetchDepth: 8})

	hot := mk("image-hot-half", NewImageSource(imageFor(t, ix)), Config{HotBytes: total / 2})
	hot.SeedFrequencies(freqs)
	hot.Rebalance()
	if hot.Stats().HotClusters == 0 {
		t.Fatalf("hot-half setup pinned nothing under budget %d", total/2)
	}

	// 4x budget pressure: the corpus is four times what the hot set may
	// pin, so most probed clusters are served by the prefetcher or cold.
	quarter := mk("image-hot-quarter", NewImageSource(imageFor(t, ix)), Config{HotBytes: total / 4, PrefetchWorkers: 2})
	quarter.SeedFrequencies(freqs)
	quarter.Rebalance()
	if quarter.Stats().HotClusters == 0 {
		t.Fatalf("hot-quarter setup pinned nothing under budget %d", total/4)
	}

	return setups
}

type goldenShape struct {
	rows, dim, nlist, m, nprobe, k int
}

func goldenShapes(r *xrand.RNG, n int) []goldenShape {
	dims := []int{8, 16, 32}
	ms := map[int][]int{8: {2, 4, 8}, 16: {4, 8, 16}, 32: {4, 8, 16}}
	shapes := make([]goldenShape, 0, n)
	for i := 0; i < n; i++ {
		dim := dims[r.Intn(len(dims))]
		mch := ms[dim]
		shapes = append(shapes, goldenShape{
			rows:   500 + r.Intn(2500),
			dim:    dim,
			nlist:  4 + r.Intn(21),
			m:      mch[r.Intn(len(mch))],
			nprobe: 1 + r.Intn(8),
			k:      1 + r.Intn(20),
		})
	}
	return shapes
}

func TestTieredSearchGoldenEquivalence(t *testing.T) {
	r := xrand.New(4096)
	n := 5
	if testing.Short() {
		n = 2
	}
	// The fixed last shape has dsub 8, so pq's LUT row kernel is always
	// checked against BuildLUTReference, whatever the random shapes draw.
	shapes := append(goldenShapes(r, n), goldenShape{rows: 2000, dim: 32, nlist: 12, m: 4, nprobe: 5, k: 10})
	for si, sh := range shapes {
		ix, data := buildIndex(t, uint64(300+si), sh.rows, sh.dim, sh.nlist, sh.m)
		setups := tieredSetups(t, ix)
		preds := []struct {
			name  string
			allow func(id int64) bool
		}{
			{"plain", nil},
			{"all", func(int64) bool { return true }},
			{"half", func(id int64) bool { return id%2 == 0 }},
			{"sparse", func(id int64) bool { return id%97 == 0 }},
			{"none", func(int64) bool { return false }},
		}
		for trial := 0; trial < 3; trial++ {
			q := data.Row(r.Intn(data.Rows))
			for _, quantized := range []bool{false, true} {
				for _, p := range preds {
					o := ivfpq.SearchOpts{NProbe: sh.nprobe, K: sh.k, Allow: p.allow, Quantized: quantized}
					want, wst := ix.SearchReference(q, o)
					for name, ti := range setups {
						got, gst, err := ti.Search(q, o)
						label := name + "/" + p.name
						if quantized {
							label += "/quantized"
						}
						if err != nil {
							t.Fatalf("%s: search error: %v", label, err)
						}
						sameCandidates(t, label, got, want)
						if gst.CodesScanned != wst.CodesScanned || gst.CodesFiltered != wst.CodesFiltered {
							t.Fatalf("%s: stats diverge: scanned %d/%d filtered %d/%d",
								label, gst.CodesScanned, wst.CodesScanned,
								gst.CodesFiltered, wst.CodesFiltered)
						}
						if gst.SkippedClusters != 0 {
							t.Fatalf("%s: %d clusters skipped with no faults injected", label, gst.SkippedClusters)
						}
					}
				}
			}
		}
	}
}

// TestTieredSearchResidencyAccounting pins the residency counters: the
// all-pinned RAM setup serves everything hot, the cold setup serves every
// probed non-empty cluster cold, and together they always cover the
// probe set.
func TestTieredSearchResidencyAccounting(t *testing.T) {
	ix, data := buildIndex(t, 77, 2000, 16, 12, 8)
	setups := tieredSetups(t, ix)
	promoted := setups["ram"].store.Stats().ColdReads // Rebalance's promotion reads
	o := ivfpq.SearchOpts{NProbe: 6, K: 10}
	for trial := 0; trial < 5; trial++ {
		q := data.Row(trial * 17)
		_, ramSt, err := setups["ram"].Search(q, o)
		if err != nil {
			t.Fatalf("ram search: %v", err)
		}
		if ramSt.ColdClusters != 0 {
			t.Fatalf("ram setup streamed %d clusters cold", ramSt.ColdClusters)
		}
		_, coldSt, err := setups["image-cold"].Search(q, o)
		if err != nil {
			t.Fatalf("cold search: %v", err)
		}
		if coldSt.HotClusters != 0 {
			t.Fatalf("cold setup served %d clusters hot with no hot set", coldSt.HotClusters)
		}
		if got, want := coldSt.ColdClusters, ramSt.HotClusters; got != want {
			t.Fatalf("cold setup touched %d clusters, ram setup %d", got, want)
		}
	}
	if st := setups["image-cold"].store.Stats(); st.ColdReads == 0 || st.ColdBytes == 0 {
		t.Fatalf("cold setup recorded no cold reads: %+v", st)
	}
	if st := setups["ram"].store.Stats(); st.ColdReads != promoted {
		t.Fatalf("ram setup searches recorded %d cold reads", st.ColdReads-promoted)
	}
}
