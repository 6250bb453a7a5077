package ivfpq

import (
	"testing"

	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

func testData(seed uint64, rows, dim int) *vecmath.Matrix {
	r := xrand.New(seed)
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

func buildIndex(t testing.TB, seed uint64, rows, dim, nlist, m int) (*Index, *vecmath.Matrix) {
	t.Helper()
	data := testData(seed, rows, dim)
	ix := Train(data, Params{NList: nlist, M: m, Seed: seed})
	ix.Add(data, 0)
	return ix, data
}

func bruteForce(data *vecmath.Matrix, q []float32, k int) []topk.Candidate {
	h := topk.NewHeap(k)
	for i := 0; i < data.Rows; i++ {
		h.Push(int64(i), vecmath.L2Squared(q, data.Row(i)))
	}
	return h.Sorted()
}

func recallAtK(got, truth []topk.Candidate) float64 {
	truthSet := make(map[int64]bool, len(truth))
	for _, c := range truth {
		truthSet[c.ID] = true
	}
	hit := 0
	for _, c := range got {
		if truthSet[c.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

func TestIndexCoversAllVectors(t *testing.T) {
	ix, data := buildIndex(t, 1, 2000, 16, 16, 4)
	if ix.NTotal != int64(data.Rows) {
		t.Fatalf("NTotal = %d", ix.NTotal)
	}
	total := 0
	seen := make(map[int64]bool)
	for _, sz := range ix.ListSizes() {
		total += sz
	}
	if total != data.Rows {
		t.Fatalf("lists hold %d vectors, want %d", total, data.Rows)
	}
	for li := range ix.Lists {
		l := &ix.Lists[li]
		if len(l.Codes) != l.Len()*ix.PQ.M {
			t.Fatalf("list %d codes length %d for %d vectors", li, len(l.Codes), l.Len())
		}
		for _, id := range l.IDs {
			if seen[id] {
				t.Fatalf("id %d appears twice", id)
			}
			seen[id] = true
		}
	}
}

func TestSearchFullProbeRecall(t *testing.T) {
	// Probing every cluster makes IVF exact; only PQ error remains.
	// Unstructured Gaussian data is PQ's worst case, so the bar is modest;
	// the structured synthetic datasets reach much higher recall.
	ix, data := buildIndex(t, 2, 4000, 32, 8, 16)
	r := xrand.New(77)
	totalRecall := 0.0
	trials := 20
	for i := 0; i < trials; i++ {
		q := data.Row(r.Intn(data.Rows))
		got, _ := ix.Search(q, SearchOpts{NProbe: ix.NList(), K: 10})
		truth := bruteForce(data, q, 10)
		totalRecall += recallAtK(got, truth)
	}
	if avg := totalRecall / float64(trials); avg < 0.7 {
		t.Errorf("recall@10 with full probe = %v, want >= 0.7", avg)
	}
}

func TestSearchSelfQueryFindsSelf(t *testing.T) {
	ix, data := buildIndex(t, 3, 1000, 16, 8, 4)
	// Searching for an indexed vector with generous probes should return
	// it in the top-k nearly always.
	hits := 0
	for i := 0; i < 50; i++ {
		got, _ := ix.Search(data.Row(i), SearchOpts{NProbe: 8, K: 10})
		for _, c := range got {
			if c.ID == int64(i) {
				hits++
				break
			}
		}
	}
	if hits < 45 {
		t.Errorf("self-hit %d/50", hits)
	}
}

func TestSearchStatsConsistent(t *testing.T) {
	ix, data := buildIndex(t, 4, 1500, 16, 12, 4)
	_, st := ix.Search(data.Row(0), SearchOpts{NProbe: 4, K: 5})
	if st.ProbedClusters != 4 {
		t.Errorf("probed %d clusters", st.ProbedClusters)
	}
	if st.CentroidScans != 12 {
		t.Errorf("centroid scans %d", st.CentroidScans)
	}
	if st.CodeBytes != st.CodesScanned*ix.PQ.M {
		t.Errorf("code bytes %d, scanned %d*M", st.CodeBytes, st.CodesScanned)
	}
	if st.HeapAccepted > st.HeapPushes || st.HeapPushes != st.CodesScanned {
		t.Errorf("heap stats inconsistent: %+v", st)
	}
	// LUT entries: one table per non-empty probed cluster.
	if st.LUTEntries%(ix.PQ.M*256) != 0 {
		t.Errorf("LUT entries %d not a multiple of table size", st.LUTEntries)
	}
}

func TestStatsAdd(t *testing.T) {
	a := SearchStats{CentroidScans: 1, LUTEntries: 2, CodesScanned: 3, CodeBytes: 4, HeapPushes: 5, HeapAccepted: 6, ProbedClusters: 7}
	b := a
	a.Add(b)
	if a.CentroidScans != 2 || a.ProbedClusters != 14 || a.HeapAccepted != 12 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestSearchQuantizedCloseToFloat(t *testing.T) {
	ix, data := buildIndex(t, 5, 3000, 32, 8, 8)
	r := xrand.New(5)
	agree := 0.0
	trials := 15
	for i := 0; i < trials; i++ {
		q := data.Row(r.Intn(data.Rows))
		fl, _ := ix.Search(q, SearchOpts{NProbe: 4, K: 10})
		qt, _ := ix.Search(q, SearchOpts{NProbe: 4, K: 10, Quantized: true})
		agree += recallAtK(qt, fl)
	}
	if avg := agree / float64(trials); avg < 0.9 {
		t.Errorf("quantized/float agreement %v, want >= 0.9", avg)
	}
}

func TestTrainSubsampling(t *testing.T) {
	data := testData(6, 3000, 16)
	ix := Train(data, Params{NList: 8, M: 4, Seed: 6, TrainSub: 500})
	ix.Add(data, 0)
	got, _ := ix.Search(data.Row(0), SearchOpts{NProbe: 8, K: 5})
	if len(got) != 5 {
		t.Fatalf("search returned %d results", len(got))
	}
}

func TestAddBaseID(t *testing.T) {
	data := testData(7, 100, 8)
	ix := Train(data, Params{NList: 4, M: 4, Seed: 7})
	ix.Add(data, 1000)
	got, _ := ix.Search(data.Row(0), SearchOpts{NProbe: 4, K: 1})
	if got[0].ID != 1000 {
		t.Fatalf("nearest to row 0 is %d, want 1000 (itself)", got[0].ID)
	}
}

func TestTrainPanicsBadParams(t *testing.T) {
	data := testData(8, 100, 8)
	for _, p := range []Params{{NList: 0, M: 4}, {NList: 4, M: 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for params %+v", p)
				}
			}()
			Train(data, p)
		}()
	}
}

func BenchmarkSearch(b *testing.B) {
	ix, data := buildIndex(b, 1, 20000, 64, 64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(data.Row(i%data.Rows), SearchOpts{NProbe: 8, K: 10})
	}
}

func TestAddWithIDsMatchesAdd(t *testing.T) {
	data := testData(3, 1500, 16)
	p := Params{NList: 8, M: 4, Seed: 3}
	viaAdd := Train(data, p)
	viaAdd.Add(data, 100)
	viaIDs := Train(data, p)
	ids := make([]int64, data.Rows)
	for i := range ids {
		ids[i] = 100 + int64(i)
	}
	viaIDs.AddWithIDs(data, ids)

	if viaIDs.NTotal != viaAdd.NTotal {
		t.Fatalf("NTotal = %d, want %d", viaIDs.NTotal, viaAdd.NTotal)
	}
	for li := range viaAdd.Lists {
		a, b := viaAdd.Lists[li], viaIDs.Lists[li]
		if len(a.IDs) != len(b.IDs) {
			t.Fatalf("list %d: %d vs %d ids", li, len(a.IDs), len(b.IDs))
		}
		for j := range a.IDs {
			if a.IDs[j] != b.IDs[j] {
				t.Fatalf("list %d id %d: %d vs %d", li, j, a.IDs[j], b.IDs[j])
			}
		}
	}
}

func TestAddWithIDsSparseIDSpace(t *testing.T) {
	// A hash-partitioned shard indexes a scattered subset of the global
	// id space; searches must report the explicit ids.
	data := testData(5, 900, 16)
	ix := Train(data, Params{NList: 8, M: 4, Seed: 5})
	ids := make([]int64, data.Rows)
	idSet := make(map[int64]bool, data.Rows)
	for i := range ids {
		ids[i] = int64(i)*3 + 7 // sparse, non-contiguous
		idSet[ids[i]] = true
	}
	ix.AddWithIDs(data, ids)
	res, _ := ix.Search(data.Row(0), SearchOpts{NProbe: 4, K: 5})
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, c := range res {
		if !idSet[c.ID] {
			t.Fatalf("result id %d was never added", c.ID)
		}
	}
}

func TestSearchFilteredMatchesFilteredScan(t *testing.T) {
	ix, data := buildIndex(t, 5, 4000, 16, 16, 4)
	q := testData(99, 1, 16).Row(0)
	allow := func(id int64) bool { return id%3 == 0 }

	// Reference: unfiltered scan of every probed code with an enormous k,
	// then keep the allowed ids.
	full, _ := ix.Search(q, SearchOpts{NProbe: 8, K: data.Rows})
	var want []topk.Candidate
	for _, c := range full {
		if allow(c.ID) {
			want = append(want, c)
		}
	}
	if len(want) > 10 {
		want = want[:10]
	}

	got, st := ix.Search(q, SearchOpts{NProbe: 8, K: 10, Allow: allow})
	if len(got) != len(want) {
		t.Fatalf("filtered search returned %d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("filtered[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, c := range got {
		if !allow(c.ID) {
			t.Fatalf("filtered search leaked disallowed id %d", c.ID)
		}
	}
	if st.CodesFiltered == 0 {
		t.Fatal("no codes were filtered by a 1/3-selectivity predicate")
	}
	if st.CodesScanned+st.CodesFiltered == 0 {
		t.Fatal("no scan work recorded")
	}
	// Roughly 2/3 of visited codes must have been skipped before ADC.
	frac := float64(st.CodesFiltered) / float64(st.CodesScanned+st.CodesFiltered)
	if frac < 0.5 || frac > 0.8 {
		t.Fatalf("filtered fraction %.2f implausible for a 1/3 predicate", frac)
	}
}

func TestSearchQuantizedFilteredConsistency(t *testing.T) {
	ix, _ := buildIndex(t, 6, 3000, 16, 16, 4)
	q := testData(123, 1, 16).Row(0)
	allow := func(id int64) bool { return id%5 == 0 }

	// nil allow must reproduce the unfiltered quantized kernel exactly.
	plain, pst := ix.Search(q, SearchOpts{NProbe: 8, K: 10, Quantized: true})
	viaNil, nst := ix.Search(q, SearchOpts{NProbe: 8, K: 10, Allow: nil, Quantized: true})
	if len(plain) != len(viaNil) {
		t.Fatalf("nil-allow result count %d vs plain %d", len(viaNil), len(plain))
	}
	for i := range plain {
		if plain[i] != viaNil[i] {
			t.Fatalf("nil-allow diverges from SearchQuantized at %d: %+v vs %+v", i, viaNil[i], plain[i])
		}
	}
	if pst != nst {
		t.Fatalf("nil-allow stats %+v diverge from plain %+v", nst, pst)
	}

	got, _ := ix.Search(q, SearchOpts{NProbe: 8, K: 10, Allow: allow, Quantized: true})
	for _, c := range got {
		if !allow(c.ID) {
			t.Fatalf("quantized filtered search leaked disallowed id %d", c.ID)
		}
	}
	// Filtered results must rank consistently with a quantized full scan.
	full, _ := ix.Search(q, SearchOpts{NProbe: 8, K: 3000, Quantized: true})
	var want []topk.Candidate
	for _, c := range full {
		if allow(c.ID) {
			want = append(want, c)
		}
	}
	if len(want) > 10 {
		want = want[:10]
	}
	if len(got) != len(want) {
		t.Fatalf("quantized filtered returned %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("quantized filtered[%d] = %d, want %d", i, got[i].ID, want[i].ID)
		}
	}
}

func TestSearchFilteredEmptyAllow(t *testing.T) {
	ix, _ := buildIndex(t, 7, 1000, 16, 16, 4)
	q := testData(5, 1, 16).Row(0)
	got, st := ix.Search(q, SearchOpts{NProbe: 4, K: 10, Allow: func(int64) bool { return false }})
	if len(got) != 0 {
		t.Fatalf("deny-all predicate returned %d candidates", len(got))
	}
	if st.LUTEntries != 0 {
		t.Fatalf("deny-all predicate still built %d LUT entries (lazy build broken)", st.LUTEntries)
	}
	if st.CodesScanned != 0 {
		t.Fatalf("deny-all predicate scanned %d codes", st.CodesScanned)
	}
}
