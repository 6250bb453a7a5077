package mutable_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/pim"
	"repro/internal/pq"
	"repro/internal/topk"
)

// The migration's proof, kept as the reference test for core: the
// serving read path (native ADC kernels, Quantized) must answer exactly
// what the paper's simulated-DPU engine answers over the same index and
// config — the same distance at every rank, ids differing only among
// ties at the boundary distance (core's own cross-backend equality).

func equivalentResults(t *testing.T, label string, a, b []topk.Candidate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result lengths %d vs %d", label, len(a), len(b))
	}
	if len(a) == 0 {
		return
	}
	inB := make(map[int64]bool, len(b))
	for i := range a {
		if a[i].Dist != b[i].Dist {
			t.Fatalf("%s rank %d: dist %v vs %v", label, i, a[i].Dist, b[i].Dist)
		}
		inB[b[i].ID] = true
	}
	boundary := a[len(a)-1].Dist
	for i, c := range a {
		if c.Dist < boundary && !inB[c.ID] {
			t.Fatalf("%s rank %d: id %d (dist %v) missing from the engine's answer", label, i, c.ID, c.Dist)
		}
	}
}

func TestSearchMatchesEngine(t *testing.T) {
	base := gaussMatrix(3000, testDim, 40)
	ix := ivfpq.Train(base, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)
	cfg := mutable.ServingConfig(4, testK, 8, 1)
	cfg.CheckInterval = -1
	eng, err := core.Build(ix, pim.NewSystem(cfg.Spec), nil, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	queries := queriesFrom(base, 30, 41)
	br, err := eng.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}

	// Empty overlay: the whole fetch depth must agree.
	got, err := u.Search(queries, mutable.SearchOpts{K: cfg.Engine.K})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range got {
		equivalentResults(t, "empty overlay", got[qi], br.Results[qi])
	}

	// Pending writes: near-duplicates of the queries land in the overlay,
	// a few of them are deleted again, and some base neighbours are
	// deleted or overwritten. The expected answer is the engine's base
	// candidates merged with the overlay by hand.
	type entry struct {
		cluster int32
		code    []uint8
	}
	overlay := map[int64]entry{}
	dead := map[int64]bool{}
	stage := func(id int64, vec []float32) {
		if err := upsertOne(u, id, vec); err != nil {
			t.Fatal(err)
		}
		code := make([]uint8, ix.PQ.M)
		overlay[id] = entry{ix.EncodeVectorInto(code, make([]float32, ix.Dim), vec), code}
		delete(dead, id)
	}
	remove := func(id int64) {
		u.Remove([]int64{id})
		delete(overlay, id)
		dead[id] = true
	}
	near := queriesFrom(queries, 40, 42)
	for i := 0; i < near.Rows; i++ {
		stage(int64(500_000+i), near.Row(i))
	}
	for i := 0; i < near.Rows; i += 7 {
		remove(int64(500_000 + i))
	}
	for qi := 0; qi < queries.Rows; qi += 3 {
		remove(br.Results[qi][0].ID)
		stage(br.Results[qi][2].ID, near.Row(qi)) // overwrite: shadows the base copy
	}

	got, err = u.Search(queries, mutable.SearchOpts{K: testK})
	if err != nil {
		t.Fatal(err)
	}
	resid := make([]float32, testDim)
	fromOverlay := 0
	for qi := range got {
		for _, c := range got[qi] {
			if _, ok := overlay[c.ID]; ok {
				fromOverlay++
			}
		}
		var want []topk.Candidate
		for _, c := range br.Results[qi] {
			if _, shadowed := overlay[c.ID]; !shadowed && !dead[c.ID] {
				want = append(want, c)
			}
		}
		probes, _ := ix.Coarse.ProbeInto(nil, nil, queries.Row(qi), cfg.Engine.NProbe)
		lut := make(pq.LUT, ix.PQ.M*pq.CodebookSize)
		for _, cl := range probes {
			ix.Coarse.Residual(resid, queries.Row(qi), cl)
			ix.PQ.BuildLUTInto(lut, resid)
			ql := ix.PQ.QuantizeWithScale(lut, ix.QScale)
			for id, e := range overlay {
				if e.cluster == cl {
					want = append(want, topk.Candidate{ID: id, Dist: ql.ToFloat(ql.QDistance(e.code))})
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
		equivalentResults(t, "pending writes", got[qi], want[:testK])
	}
	if fromOverlay == 0 {
		t.Fatal("no overlay entry reached any result; the hand merge was not exercised")
	}
}
