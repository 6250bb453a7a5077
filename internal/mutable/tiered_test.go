package mutable_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/tier"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Tiered-deployment coverage: the out-of-core base must behave exactly
// like the in-RAM deployment through inserts, deletes, compactions, and
// filtered search, while epoch image files come and go on disk.

func tieredConfig(t *testing.T, interval time.Duration, store tier.Config) mutable.Config {
	t.Helper()
	cfg := testConfig(interval)
	cfg.Tier = &mutable.TierConfig{Dir: t.TempDir(), Store: store}
	return cfg
}

// buildTiered trains a small index over base and deploys it tiered.
func buildTiered(t *testing.T, base *vecmath.Matrix, cfg mutable.Config) *mutable.UpdatableIndex {
	t.Helper()
	ix := ivfpq.Train(base, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return u
}

func imageFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".img") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files
}

func TestTieredInsertDeleteSearchCompact(t *testing.T) {
	base := gaussMatrix(2000, testDim, 21)
	cfg := tieredConfig(t, 0, tier.Config{HotBytes: 16 << 10, PrefetchWorkers: 1})
	u := buildTiered(t, base, cfg)
	dir := cfg.Tier.Dir

	if got := len(imageFiles(t, dir)); got != 1 {
		t.Fatalf("epoch 0 left %d image files, want 1", got)
	}

	v := gaussMatrix(1, testDim, 99).Row(0)
	const id = int64(1_000_000)
	if err := u.Insert(id, v); err != nil {
		t.Fatal(err)
	}
	if !hasID(searchOne(t, u, v), id) {
		t.Fatal("insert not visible through the tiered read path")
	}

	if ok, err := u.Compact(true); err != nil || !ok {
		t.Fatalf("compact: ok=%v err=%v", ok, err)
	}
	if u.Epoch() != 1 {
		t.Fatalf("epoch %d after compaction, want 1", u.Epoch())
	}
	// The old epoch has no pinned readers left, so exactly the new image
	// remains on disk.
	if got := len(imageFiles(t, dir)); got != 1 {
		t.Fatalf("%d image files after compaction, want 1 (old epoch not retired)", got)
	}
	if !hasID(searchOne(t, u, v), id) {
		t.Fatal("folded insert lost by tiered compaction")
	}

	u.Delete(id)
	if hasID(searchOne(t, u, v), id) {
		t.Fatal("deleted id visible through the tiered read path")
	}
	if ok, err := u.Compact(true); err != nil || !ok {
		t.Fatalf("second compact: ok=%v err=%v", ok, err)
	}
	if hasID(searchOne(t, u, v), id) {
		t.Fatal("deleted id resurrected by tiered compaction")
	}

	ts := u.TierStats()
	if ts == nil {
		t.Fatal("TierStats nil on a tiered deployment")
	}
	if ts.HotHits+ts.HotMisses == 0 {
		t.Fatalf("tier store saw no accesses: %+v", ts)
	}

	u.Close()
	if got := len(imageFiles(t, dir)); got != 0 {
		t.Fatalf("%d image files survive Close, want 0", got)
	}
}

func TestTieredWriteToRejected(t *testing.T) {
	base := gaussMatrix(800, testDim, 22)
	u := buildTiered(t, base, tieredConfig(t, 0, tier.Config{}))
	if _, err := u.WriteTo(nullWriter{}); err == nil {
		t.Fatal("WriteTo accepted a tiered deployment")
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

func sameResults(t *testing.T, label string, got, want []topk.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: result %d = {%d %v}, want {%d %v}",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestTieredMatchesInRAMDeployment deploys identically trained indexes
// tiered and in RAM, applies the same update stream to both, and
// demands bit-identical search results — through the initial epoch and
// across a compaction on each side. Both run the same read path and the
// same kernels, so exact equality is the contract, not a tolerance.
func TestTieredMatchesInRAMDeployment(t *testing.T) {
	base := gaussMatrix(2500, testDim, 23)
	tiered := buildTiered(t, base, tieredConfig(t, 0, tier.Config{HotBytes: 32 << 10, PrefetchWorkers: 2}))
	inram := buildUpdatable(t, base, 0)

	updates := gaussMatrix(200, testDim, 24)
	for i := 0; i < updates.Rows; i++ {
		id := int64(500_000 + i)
		for _, u := range []*mutable.UpdatableIndex{tiered, inram} {
			if err := u.Insert(id, updates.Row(i)); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				u.Delete(id)
			}
		}
	}

	queries := gaussMatrix(30, testDim, 25)
	check := func(stage string) {
		t.Helper()
		for qi := 0; qi < queries.Rows; qi++ {
			q := vecmath.WrapMatrix(queries.Row(qi), 1, testDim)
			gotRes, err := tiered.Search(q, mutable.SearchOpts{K: testK})
			if err != nil {
				t.Fatalf("%s: tiered search: %v", stage, err)
			}
			wantRes, err := inram.Search(q, mutable.SearchOpts{K: testK})
			if err != nil {
				t.Fatalf("%s: in-RAM search: %v", stage, err)
			}
			sameResults(t, stage, gotRes[0], wantRes[0])
		}
	}
	check("pre-compaction")

	for _, u := range []*mutable.UpdatableIndex{tiered, inram} {
		if ok, err := u.Compact(true); err != nil || !ok {
			t.Fatalf("compact: ok=%v err=%v", ok, err)
		}
	}
	check("post-compaction")
}

// taggedPair deploys the same tagged corpus tiered and in RAM under the
// serving config (k=10 with its 2x fetch slack, compactor off).
func taggedPair(t *testing.T, n int, seed uint64) (tiered, inram *mutable.UpdatableIndex, data *vecmath.Matrix) {
	t.Helper()
	data = gaussMatrix(n, testDim, seed)
	mkIx := func() *ivfpq.Index {
		ix := ivfpq.Train(data, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
		ix.Add(data, 0)
		return ix
	}
	ids := make([]int64, n)
	attrs := make([]filter.Attrs, n)
	for i := range ids {
		ids[i] = int64(i)
		attrs[i] = attrsOf(int64(i))
	}

	mk := func(cfgTier *mutable.TierConfig) *mutable.UpdatableIndex {
		cfg := mutable.ServingConfig(4, 10, 4, 1)
		cfg.CheckInterval = -1
		cfg.Schema = filteredSchema(t)
		cfg.Tier = cfgTier
		u, err := mutable.New(mkIx(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Close)
		if err := u.LoadAttrs(ids, attrs); err != nil {
			t.Fatal(err)
		}
		return u
	}
	tiered = mk(&mutable.TierConfig{Dir: t.TempDir(), Store: tier.Config{HotBytes: 8 << 10, PrefetchWorkers: 1}})
	return tiered, mk(nil), data
}

// TestTieredFilteredSearch runs filtered queries against tiered and
// in-RAM deployments of the same corpus; results must be bit-identical
// at every selectivity.
func TestTieredFilteredSearch(t *testing.T) {
	tiered, inram, _ := taggedPair(t, 2000, 26)
	preds := []string{
		`tenant = 1`,
		`lang = "en"`,
		`tenant = 2 and lang = "fr"`,
	}
	queries := gaussMatrix(10, testDim, 27)
	for _, expr := range preds {
		pred := parsePred(t, expr)
		for _, mode := range []filter.Mode{filter.ModeAuto, filter.ModePre, filter.ModePost} {
			for qi := 0; qi < queries.Rows; qi++ {
				q := vecmath.WrapMatrix(queries.Row(qi), 1, testDim)
				o := mutable.SearchOpts{K: 10, Pred: pred, Mode: mode}
				gotRes, err := tiered.Search(q, o)
				if err != nil {
					t.Fatalf("%s: tiered filtered search: %v", expr, err)
				}
				wantRes, err := inram.Search(q, o)
				if err != nil {
					t.Fatalf("%s: in-RAM filtered search: %v", expr, err)
				}
				sameResults(t, expr+"/"+mode.String(), gotRes[0], wantRes[0])
			}
		}
	}
}

// TestPendingWritesDoNotStarveResults is the regression test for
// tombstone starvation: between compactions a delete (or overwrite) of a
// base neighbour is dropped from the base candidates after the scan's
// own top-k selection, so every query shape must fetch the base with the
// serving config's slack — the tiered and pre-filtered paths used to ask
// for exactly k and returned short result sets.
func TestPendingWritesDoNotStarveResults(t *testing.T) {
	tiered, inram, data := taggedPair(t, 2000, 30)
	pair := []*mutable.UpdatableIndex{tiered, inram}
	check := func(label string, q *vecmath.Matrix, o mutable.SearchOpts, gone map[int64]bool) {
		t.Helper()
		got, err := tiered.Search(q, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inram.Search(q, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[0]) != o.K {
			t.Fatalf("%s: %d hits with pending writes, want %d", label, len(got[0]), o.K)
		}
		for _, c := range got[0] {
			if gone[c.ID] {
				t.Fatalf("%s: deleted id %d returned", label, c.ID)
			}
		}
		sameResults(t, label, got[0], want[0])
	}

	// Unfiltered: delete every other one of the query's top-10 base ids.
	q := vecmath.WrapMatrix(data.Row(41), 1, testDim)
	o := mutable.SearchOpts{K: 10}
	top, err := inram.Search(q, o)
	if err != nil {
		t.Fatal(err)
	}
	gone := map[int64]bool{}
	for rank := 0; rank < 10; rank += 2 {
		gone[top[0][rank].ID] = true
		for _, u := range pair {
			u.Delete(top[0][rank].ID)
		}
	}
	check("deleted/unfiltered", q, o, gone)

	// Pre-filtered: overwrite every other hit with a vector elsewhere
	// (same tags), shadowing its base copy.
	q = vecmath.WrapMatrix(data.Row(97), 1, testDim)
	o = mutable.SearchOpts{K: 10, Pred: parsePred(t, `lang = "fr"`), Mode: filter.ModePre}
	if top, err = inram.Search(q, o); err != nil {
		t.Fatal(err)
	}
	moved := gaussMatrix(5, testDim, 31)
	for i := 0; i < 5; i++ {
		id := top[0][2*i].ID
		for _, u := range pair {
			if err := u.InsertWithAttrs(id, moved.Row(i), attrsOf(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("overwritten/pre-filtered", q, o, nil)
}

// TestTieredSkipFaultySurfacesInStats pins the degraded-mode contract end
// to end: with SkipFaulty set and a healthy disk nothing is skipped, and
// the skip counter is reachable through TierStats and, per query, on the
// traced base stage next to where its clusters were served from.
func TestTieredSkipFaultyStats(t *testing.T) {
	base := gaussMatrix(1000, testDim, 28)
	u := buildTiered(t, base, tieredConfig(t, 0, tier.Config{SkipFaulty: true}))
	q := gaussMatrix(1, testDim, 29).Row(0)
	sl := &obs.StageLog{}
	got, err := u.Search(vecmath.WrapMatrix(q, 1, testDim), mutable.SearchOpts{K: testK, Stages: sl})
	if err != nil || len(got[0]) != testK {
		t.Fatalf("%d results, err %v, want %d", len(got[0]), err, testK)
	}
	if ts := u.TierStats(); ts.SkippedClusters != 0 {
		t.Fatalf("healthy deployment skipped %d clusters", ts.SkippedClusters)
	}
	attrs := map[string]string{}
	for _, r := range sl.Records() {
		if r.Name == "mutable.base" {
			for _, a := range r.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	hot, _ := strconv.Atoi(attrs["hot_clusters"])
	cold, _ := strconv.Atoi(attrs["cold_clusters"])
	if hot+cold != 4 || attrs["skipped_clusters"] != "0" {
		t.Fatalf("base stage attrs %v: want hot+cold = nprobe 4, skipped 0", attrs)
	}
}
