package mutable

import (
	"fmt"
	"testing"

	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/pq"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// The overlay-merge golden test: the overlay half of the fused read
// (gatherOverlay, then scan folding each run through the ivfpq scanner's
// gather kernel off the cluster's shared LUT) must be bit-identical to a
// scalar recomputation of the same live-entry walk — same shadowing and
// tombstone decisions, same fixed-scale quantized arithmetic, same
// distances. Runs in-package so it can drive the two halves directly under
// the lock discipline they document.

// upsertOne stages vec under id.
func upsertOne(u *UpdatableIndex, id int64, vec []float32) error {
	return u.Upsert([]int64{id}, vecmath.WrapMatrix(vec, 1, len(vec)))
}

func overlayTestIndex(t *testing.T, rows, dim, nlist, m int) (*UpdatableIndex, *vecmath.Matrix) {
	t.Helper()
	r := xrand.New(31)
	data := vecmath.NewMatrix(rows, dim)
	for i := range data.Data {
		data.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(data, ivfpq.Params{NList: nlist, M: m, Seed: 5})
	ix.Add(data, 0)
	cfg := ServingConfig(4, 10, 4, 1)
	cfg.CheckInterval = -1 // no background compaction: the overlay must stay put
	u, err := New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return u, data
}

// scalarOverlayScan recomputes what the overlay scan should produce using the
// retained per-entry scalar arithmetic (BuildLUTReference, QLUT.QDistance
// + ToFloat), one heap per query. Caller holds u.mu.RLock.
func scalarOverlayScan(u *UpdatableIndex, snap *snapshot, queries *vecmath.Matrix, probes [][]int32, k int, match func(int64) bool) [][]topk.Candidate {
	m := snap.ix.PQ.M
	out := make([][]topk.Candidate, queries.Rows)
	resid := make([]float32, u.dim)
	for qi := range out {
		heap := topk.NewHeap(k)
		for _, cl := range probes[qi] {
			lg := &u.logs[cl]
			var ql *pq.QLUT
			for i := range lg.ids {
				id := lg.ids[i]
				s := lg.seqs[i]
				if ref, ok := u.latest[id]; !ok || ref.seq != s {
					continue
				}
				if ts, ok := u.tombs[id]; ok && ts > s {
					continue
				}
				if match != nil && !match(id) {
					continue
				}
				if ql == nil {
					snap.ix.Coarse.Residual(resid, queries.Row(qi), cl)
					lut := make(pq.LUT, m*pq.CodebookSize)
					snap.ix.PQ.BuildLUTReference(lut, resid)
					ql = snap.ix.PQ.QuantizeWithScale(lut, snap.ix.QScale)
				}
				heap.Push(id, ql.ToFloat(ql.QDistance(lg.codes[i*m:(i+1)*m])))
			}
		}
		out[qi] = heap.Sorted()
	}
	return out
}

func TestScanOverlayGoldenEquivalence(t *testing.T) {
	// dim 16 / M 8 builds LUTs with the generic loop, dim 32 / M 4
	// (dsub 8) with pq's row kernel.
	for _, sh := range []struct{ dim, m int }{{16, 8}, {32, 4}} {
		t.Run(fmt.Sprintf("dim%d_m%d", sh.dim, sh.m), func(t *testing.T) {
			checkScanOverlayGolden(t, sh.dim, sh.m)
		})
	}
}

func checkScanOverlayGolden(t *testing.T, dim, m int) {
	const rows, nlist, k = 2000, 12, 10
	u, _ := overlayTestIndex(t, rows, dim, nlist, m)
	r := xrand.New(17)

	// Build an overlay with every interesting entry state: fresh inserts,
	// shadowed re-inserts (two versions of one id), and deletions of both
	// base and overlay ids.
	vec := make([]float32, dim)
	newVec := func() []float32 {
		for i := range vec {
			vec[i] = float32(r.NormFloat64())
		}
		return vec
	}
	for id := int64(rows); id < rows+600; id++ {
		if err := upsertOne(u, id, newVec()); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(rows); id < rows+200; id++ { // shadow: second version wins
		if err := upsertOne(u, id, newVec()); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(rows + 300); id < rows+380; id++ { // overlay deletes
		u.Remove([]int64{id})
	}
	for id := int64(0); id < 50; id++ { // base deletes (tombstones only)
		u.Remove([]int64{id})
	}

	queries := vecmath.NewMatrix(6, dim)
	for i := range queries.Data {
		queries.Data[i] = float32(r.NormFloat64())
	}
	preds := []func(int64) bool{
		nil,
		func(id int64) bool { return id%2 == 0 },
		func(int64) bool { return false },
	}

	u.mu.RLock()
	defer u.mu.RUnlock()
	snap := u.snap.Load()
	sc := readPool.Get().(*readScratch)
	sc.probe(snap.ix, queries, 6)
	probes := make([][]int32, queries.Rows)
	for qi := range probes {
		probes[qi] = sc.probesOf(qi)
	}
	for pi, match := range preds {
		u.gatherOverlay(sc, queries.Rows, match)
		_, got, _, err := u.scan(sc, snap, queries, baseRead{k: k, plan: filter.Plan{FetchK: k}})
		if err != nil {
			t.Fatal(err)
		}
		want := scalarOverlayScan(u, snap, queries, probes, k, match)
		for qi := range want {
			if len(got[qi]) != len(want[qi]) {
				t.Fatalf("pred %d query %d: %d candidates vs scalar %d", pi, qi, len(got[qi]), len(want[qi]))
			}
			for ci := range want[qi] {
				if got[qi][ci] != want[qi][ci] {
					t.Fatalf("pred %d query %d candidate %d: %+v vs scalar %+v",
						pi, qi, ci, got[qi][ci], want[qi][ci])
				}
			}
		}
	}
}

// TestCutIgnoresLaterWrites pins the watermark: a read's cut keeps
// answering as of its write sequence number even when deletes, overwrites
// and an epoch publication land before its merge — an id touched before
// the cut is dropped from the base hits, an id touched after it is kept.
func TestCutIgnoresLaterWrites(t *testing.T) {
	const rows, dim, k = 2000, 16, 10
	u, data := overlayTestIndex(t, rows, dim, 12, 8)
	q := data.Row(7)
	snap := u.snap.Load()
	o := ivfpq.SearchOpts{NProbe: 4, K: 2 * k, Quantized: true}
	base, _ := snap.ix.Search(q, o)
	if len(base) < 4 {
		t.Fatalf("base scan: %d hits", len(base))
	}
	before, deleted, overwritten := base[0].ID, base[1].ID, base[2].ID

	u.Remove([]int64{before})
	u.mu.RLock()
	view := overlayView{seq: u.seq, shadow: u.shadow, cands: make([][]topk.Candidate, 1)}
	u.mu.RUnlock()

	u.Remove([]int64{deleted})
	if err := upsertOne(u, overwritten, data.Row(int(overwritten))); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		u.mu.RLock()
		got := mergeResults(&view, [][]topk.Candidate{base}, k)[0]
		u.mu.RUnlock()
		has := map[int64]bool{}
		for _, c := range got {
			has[c.ID] = true
		}
		if has[before] || !has[deleted] || !has[overwritten] {
			t.Fatalf("%s: cut at seq %d returned deleted-before=%v deleted-after=%v overwritten-after=%v, want false/true/true",
				when, view.seq, has[before], has[deleted], has[overwritten])
		}
	}
	check("after later writes")
	if ok, err := u.Compact(true); err != nil || !ok {
		t.Fatalf("compact: %v %v", ok, err)
	}
	check("after publication")

	// A cut on the new epoch sees all three writes.
	res, err := u.Search(vecmath.WrapMatrix(q, 1, dim), SearchOpts{K: k})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res[0] {
		if c.ID == before || c.ID == deleted {
			t.Fatalf("deleted id %d returned after compaction", c.ID)
		}
	}
}
