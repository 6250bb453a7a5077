package mutable_test

import (
	"testing"
	"time"

	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/pim"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

const (
	testDim   = 16
	testK     = 10
	testNList = 8
)

func gaussMatrix(n, dim int, seed uint64) *vecmath.Matrix {
	r := xrand.New(seed)
	m := vecmath.NewMatrix(n, dim)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

// upsertOne stages vec under id.
func upsertOne(u *mutable.UpdatableIndex, id int64, vec []float32) error {
	return u.Upsert([]int64{id}, vecmath.WrapMatrix(vec, 1, len(vec)))
}

func testConfig(interval time.Duration) mutable.Config {
	cfg := mutable.DefaultConfig()
	cfg.Engine.NProbe = 4
	cfg.Engine.K = testK
	spec := pim.DefaultSpec()
	spec.NumDIMMs = 1
	spec.DPUsPerDIMM = 8
	cfg.Spec = spec
	cfg.CheckInterval = interval
	return cfg
}

// buildUpdatable trains a small index over base and wraps it.
func buildUpdatable(t *testing.T, base *vecmath.Matrix, interval time.Duration) *mutable.UpdatableIndex {
	t.Helper()
	ix := ivfpq.Train(base, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)
	u, err := mutable.New(ix, nil, testConfig(interval))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return u
}

func searchOne(t *testing.T, u *mutable.UpdatableIndex, vec []float32) []topk.Candidate {
	t.Helper()
	res, err := u.Search(vecmath.WrapMatrix(vec, 1, len(vec)), mutable.SearchOpts{K: testK})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func hasID(cands []topk.Candidate, id int64) bool {
	for _, c := range cands {
		if c.ID == id {
			return true
		}
	}
	return false
}

func TestInsertVisibleImmediately(t *testing.T) {
	base := gaussMatrix(2000, testDim, 1)
	u := buildUpdatable(t, base, 0)

	v := gaussMatrix(1, testDim, 99).Row(0)
	const id = int64(1_000_000)
	if hasID(searchOne(t, u, v), id) {
		t.Fatal("id visible before insert")
	}
	if err := upsertOne(u, id, v); err != nil {
		t.Fatal(err)
	}
	if !hasID(searchOne(t, u, v), id) {
		t.Fatal("freshly inserted vector not found by its own query")
	}
	if st := u.Stats(); st.PendingLog != 1 || st.Inserts != 1 {
		t.Fatalf("stats after insert: %+v", st)
	}
}

func TestDeleteHidesBaseVector(t *testing.T) {
	base := gaussMatrix(2000, testDim, 2)
	u := buildUpdatable(t, base, 0)

	const victim = int64(17)
	v := base.Row(int(victim))
	if !hasID(searchOne(t, u, v), victim) {
		t.Fatal("base vector not found by its own query")
	}
	u.Remove([]int64{victim})
	if hasID(searchOne(t, u, v), victim) {
		t.Fatal("deleted id still returned")
	}
}

func TestUpsertShadowsOlderVersions(t *testing.T) {
	base := gaussMatrix(2000, testDim, 3)
	u := buildUpdatable(t, base, 0)

	// Move an existing base id to a new location: the base copy must be
	// shadowed, the new version found, and the id returned at most once.
	const id = int64(5)
	newVec := gaussMatrix(1, testDim, 77).Row(0)
	if err := upsertOne(u, id, newVec); err != nil {
		t.Fatal(err)
	}
	cands := searchOne(t, u, newVec)
	seen := 0
	for _, c := range cands {
		if c.ID == id {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("id %d appears %d times, want exactly 1", id, seen)
	}

	// Delete-then-reinsert: the delete must not hide the newer insert.
	u.Remove([]int64{id})
	if hasID(searchOne(t, u, newVec), id) {
		t.Fatal("deleted id still visible")
	}
	final := gaussMatrix(1, testDim, 78).Row(0)
	if err := upsertOne(u, id, final); err != nil {
		t.Fatal(err)
	}
	if !hasID(searchOne(t, u, final), id) {
		t.Fatal("re-inserted id not visible")
	}
}

func TestCompactionPreservesResults(t *testing.T) {
	base := gaussMatrix(2000, testDim, 4)
	u := buildUpdatable(t, base, 0)

	// Insert-only churn: the overlay scan uses the same fixed-scale
	// quantized arithmetic as the engine kernels, so folding the log into
	// the next epoch must not change a single result. (Exact equality
	// holds only without deletes: tombstones filter candidates after the
	// engine's top-k selection, which is why deployments provision
	// Engine.K above the serving k — see TestCompactionAppliesDeletes.)
	inserts := gaussMatrix(400, testDim, 55)
	for i := 0; i < inserts.Rows; i++ {
		if err := upsertOne(u, int64(10_000+i), inserts.Row(i)); err != nil {
			t.Fatal(err)
		}
	}

	queries := gaussMatrix(20, testDim, 66)
	before := make([][]topk.Candidate, queries.Rows)
	for qi := 0; qi < queries.Rows; qi++ {
		before[qi] = searchOne(t, u, queries.Row(qi))
	}

	published, err := u.Compact(true)
	if err != nil {
		t.Fatal(err)
	}
	if !published {
		t.Fatal("forced compaction did not publish")
	}
	st := u.Stats()
	if st.Epoch != 1 {
		t.Fatalf("epoch %d after one compaction", st.Epoch)
	}
	if st.PendingLog != 0 || st.Tombstones != 0 {
		t.Fatalf("overlay not drained: %+v", st)
	}
	if want := int64(2000 + 400); st.BaseVectors != want {
		t.Fatalf("folded base has %d vectors, want %d", st.BaseVectors, want)
	}

	for qi := 0; qi < queries.Rows; qi++ {
		after := searchOne(t, u, queries.Row(qi))
		if len(after) != len(before[qi]) {
			t.Fatalf("query %d: %d results after compaction, %d before", qi, len(after), len(before[qi]))
		}
		bDist := map[int64]float32{}
		for _, c := range before[qi] {
			bDist[c.ID] = c.Dist
		}
		for _, c := range after {
			d, ok := bDist[c.ID]
			if !ok {
				t.Fatalf("query %d: id %d only present after compaction", qi, c.ID)
			}
			if d != c.Dist {
				t.Fatalf("query %d id %d: dist %v -> %v across compaction", qi, c.ID, d, c.Dist)
			}
		}
	}
}

func TestCompactionAppliesDeletes(t *testing.T) {
	base := gaussMatrix(2000, testDim, 9)
	u := buildUpdatable(t, base, 0)

	inserts := gaussMatrix(400, testDim, 57)
	for i := 0; i < inserts.Rows; i++ {
		if err := upsertOne(u, int64(10_000+i), inserts.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 200; id++ {
		u.Remove([]int64{id})
	}
	// Delete some freshly inserted entries too: log-resident deletes must
	// also fold away.
	for i := 0; i < 50; i++ {
		u.Remove([]int64{int64(10_000 + i)})
	}

	if _, err := u.Compact(true); err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if want := int64(2000 + 400 - 200 - 50); st.BaseVectors != want {
		t.Fatalf("folded base has %d vectors, want %d", st.BaseVectors, want)
	}
	if st.PendingLog != 0 || st.Tombstones != 0 {
		t.Fatalf("overlay not drained: %+v", st)
	}
	// No deleted id may resurface, base or log resident.
	for _, victim := range []int64{0, 17, 199, 10_000, 10_049} {
		var v []float32
		if victim < 2000 {
			v = base.Row(int(victim))
		} else {
			v = inserts.Row(int(victim - 10_000))
		}
		if hasID(searchOne(t, u, v), victim) {
			t.Fatalf("deleted id %d resurfaced after compaction", victim)
		}
	}
	// Surviving neighbors are still found.
	if !hasID(searchOne(t, u, base.Row(300)), 300) {
		t.Fatal("surviving base vector lost in compaction")
	}
	if !hasID(searchOne(t, u, inserts.Row(60)), 10_060) {
		t.Fatal("surviving inserted vector lost in compaction")
	}
}

func TestThresholdTriggersCompaction(t *testing.T) {
	base := gaussMatrix(2000, testDim, 5)
	u := buildUpdatable(t, base, 0)

	// Below the log threshold nothing happens.
	if published, err := u.Compact(false); err != nil || published {
		t.Fatalf("compaction below thresholds: published=%v err=%v", published, err)
	}
	// Push past MaxLogRatio (0.15 * 2000 = 300).
	inserts := gaussMatrix(320, testDim, 88)
	for i := 0; i < inserts.Rows; i++ {
		if err := upsertOne(u, int64(20_000+i), inserts.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	published, err := u.Compact(false)
	if err != nil {
		t.Fatal(err)
	}
	if !published {
		t.Fatal("log-ratio threshold did not trigger compaction")
	}
	if st := u.Stats(); st.LastTrigger != "log-ratio" {
		t.Fatalf("trigger %q, want log-ratio", st.LastTrigger)
	}
}

func TestBackgroundCompactor(t *testing.T) {
	base := gaussMatrix(2000, testDim, 6)
	u := buildUpdatable(t, base, time.Millisecond)

	inserts := gaussMatrix(320, testDim, 89)
	for i := 0; i < inserts.Rows; i++ {
		if err := upsertOne(u, int64(30_000+i), inserts.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for u.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compactor never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	u.Close() // waits for the in-flight compaction
	if st := u.Stats(); st.Epoch == 0 || st.MaxCompactSecs <= 0 {
		t.Fatalf("stats after background compaction: %+v", st)
	}
}

func TestSearchValidation(t *testing.T) {
	base := gaussMatrix(1000, testDim, 8)
	u := buildUpdatable(t, base, 0)
	if _, err := u.Search(gaussMatrix(1, testDim+1, 1), mutable.SearchOpts{K: testK}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := u.Search(gaussMatrix(1, testDim, 1), mutable.SearchOpts{K: testK + 1}); err == nil {
		t.Fatal("k above engine K accepted")
	}
	if err := upsertOne(u, 1, make([]float32, testDim+2)); err == nil {
		t.Fatal("bad insert dimension accepted")
	}
}
