package mutable_test

import (
	"errors"
	"testing"

	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// upsertOneWithAttrs stages vec under id with attrs.
func upsertOneWithAttrs(u *mutable.UpdatableIndex, id int64, vec []float32, attrs filter.Attrs) error {
	return u.UpsertWithAttrs([]int64{id}, vecmath.WrapMatrix(vec, 1, len(vec)), []filter.Attrs{attrs})
}

func filteredSchema(t *testing.T) *filter.Schema {
	t.Helper()
	s, err := filter.NewSchema(
		filter.Field{Name: "tenant", Type: filter.TInt},
		filter.Field{Name: "lang", Type: filter.TString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tenantOf is the deterministic tag assignment of the test corpus.
func tenantOf(id int64) int64 { return id % 4 }

func langOf(id int64) string {
	if id%3 == 0 {
		return "en"
	}
	return "fr"
}

func attrsOf(id int64) filter.Attrs {
	return filter.Attrs{
		"tenant": filter.IntValue(tenantOf(id)),
		"lang":   filter.StrValue(langOf(id)),
	}
}

// buildFiltered deploys a tagged updatable index over n random vectors
// (compactor off; tests drive Compact explicitly).
func buildFiltered(t *testing.T, n int) (*mutable.UpdatableIndex, *vecmath.Matrix) {
	t.Helper()
	data := gaussMatrix(n, testDim, 11)
	ix := ivfpq.Train(data, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
	ix.Add(data, 0)
	cfg := mutable.ServingConfig(4, 10, 4, 1)
	cfg.CheckInterval = -1
	cfg.Schema = filteredSchema(t)
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	ids := make([]int64, n)
	attrs := make([]filter.Attrs, n)
	for i := range ids {
		ids[i] = int64(i)
		attrs[i] = attrsOf(int64(i))
	}
	if err := u.LoadAttrs(ids, attrs); err != nil {
		t.Fatal(err)
	}
	return u, data
}

func parsePred(t *testing.T, expr string) filter.Pred {
	t.Helper()
	p, err := filter.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func queriesFrom(data *vecmath.Matrix, nq int, seed uint64) *vecmath.Matrix {
	r := xrand.New(seed)
	q := vecmath.NewMatrix(nq, data.Dim)
	for i := 0; i < nq; i++ {
		copy(q.Row(i), data.Row(r.Intn(data.Rows)))
		for j := range q.Row(i) {
			q.Row(i)[j] += float32(r.NormFloat64()) * 0.01
		}
	}
	return q
}

func TestSearchFilteredOnlyMatching(t *testing.T) {
	u, data := buildFiltered(t, 3000)
	qs := queriesFrom(data, 8, 3)
	for _, mode := range []filter.Mode{filter.ModeAuto, filter.ModePre, filter.ModePost} {
		res, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: parsePred(t, `tenant = 2`), Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for qi, cands := range res {
			if len(cands) == 0 {
				t.Fatalf("mode %v query %d: no results", mode, qi)
			}
			for _, c := range cands {
				if tenantOf(c.ID) != 2 {
					t.Fatalf("mode %v leaked id %d (tenant %d)", mode, c.ID, tenantOf(c.ID))
				}
			}
		}
	}
}

func TestSearchFilteredSeesOverlayWrites(t *testing.T) {
	u, data := buildFiltered(t, 2000)
	pred := parsePred(t, `tenant = 99`)

	qs := vecmath.WrapMatrix(data.Row(0), 1, data.Dim)
	res, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 0 {
		t.Fatalf("tenant 99 should be empty before the insert, got %d", len(res[0]))
	}

	// Insert a vector equal to the query under a fresh tenant: it must be
	// the top filtered hit immediately, straight from the overlay.
	newID := int64(1 << 20)
	if err := upsertOneWithAttrs(u, newID, data.Row(0), filter.Attrs{
		"tenant": filter.IntValue(99),
		"lang":   filter.StrValue("en"),
	}); err != nil {
		t.Fatal(err)
	}
	res, err = u.Search(qs, mutable.SearchOpts{K: 10, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 1 || res[0][0].ID != newID {
		t.Fatalf("overlay insert not visible to filtered search: %+v", res[0])
	}

	// Delete kills the tags along with the vector.
	u.Remove([]int64{newID})
	res, err = u.Search(qs, mutable.SearchOpts{K: 10, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 0 {
		t.Fatalf("deleted id still surfaces through the filter: %+v", res[0])
	}
	if u.AttrStore().Matches(pred, newID) {
		t.Fatal("tags survive a delete")
	}
}

func TestFilteredAttrsSurviveCompaction(t *testing.T) {
	u, data := buildFiltered(t, 2000)
	pred := parsePred(t, `tenant = 1 AND lang = "en"`)
	qs := queriesFrom(data, 4, 9)

	before, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}

	// Churn enough to make compaction fold real work, then force it.
	fresh := gaussMatrix(200, testDim, 77)
	for i := 0; i < 200; i++ {
		id := int64(10_000 + i)
		if err := upsertOneWithAttrs(u, id, fresh.Row(i), attrsOf(id)); err != nil {
			t.Fatal(err)
		}
	}
	if ran, err := u.Compact(true); err != nil || !ran {
		t.Fatalf("forced compaction: ran=%v err=%v", ran, err)
	}
	if u.Stats().Epoch == 0 {
		t.Fatal("compaction did not publish a new epoch")
	}

	after, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range before {
		for _, c := range after[qi] {
			if tenantOf(c.ID) != 1 && c.ID < 10_000 {
				t.Fatalf("post-compaction filtered search leaked id %d", c.ID)
			}
		}
		if len(after[qi]) < len(before[qi]) {
			t.Fatalf("query %d: filtered results shrank across compaction (%d -> %d)",
				qi, len(before[qi]), len(after[qi]))
		}
	}
}

func TestFilteredModeAgreement(t *testing.T) {
	// Pre and post filtering may rank differently near the k boundary
	// (post is bounded by its fetch depth), but at generous selectivity
	// and small k both must find the same top results.
	u, data := buildFiltered(t, 3000)
	pred := parsePred(t, `lang = "fr"`) // ~2/3 of the corpus
	qs := queriesFrom(data, 6, 21)
	pre, err := u.Search(qs, mutable.SearchOpts{K: 5, Pred: pred, Mode: filter.ModePre})
	if err != nil {
		t.Fatal(err)
	}
	post, err := u.Search(qs, mutable.SearchOpts{K: 5, Pred: pred, Mode: filter.ModePost})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range pre {
		if len(pre[qi]) != len(post[qi]) {
			t.Fatalf("query %d: pre found %d, post %d", qi, len(pre[qi]), len(post[qi]))
		}
		for i := range pre[qi] {
			if pre[qi][i].ID != post[qi][i].ID {
				t.Fatalf("query %d rank %d: pre %d vs post %d", qi, i, pre[qi][i].ID, post[qi][i].ID)
			}
		}
	}
}

func TestFilteredPlanningStats(t *testing.T) {
	u, data := buildFiltered(t, 2000)
	qs := queriesFrom(data, 3, 5)
	// tenant = 0 is ~25% selective -> post; tenant = 0 AND lang = "en"
	// is ~8% -> pre.
	if _, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: parsePred(t, `tenant = 0`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: parsePred(t, `tenant = 0 AND lang = "en"`)}); err != nil {
		t.Fatal(err)
	}
	st := u.FilterStats()
	if st == nil {
		t.Fatal("nil filter stats on a schema deployment")
	}
	if st.Filtered != 6 || st.PreDecisions != 3 || st.PostDecisions != 3 {
		t.Fatalf("stats %+v, want 6 filtered split 3/3", st)
	}
	total := uint64(0)
	for _, c := range st.SelectivityHist {
		total += c
	}
	if total != st.Filtered {
		t.Fatalf("selectivity histogram sums to %d, want %d", total, st.Filtered)
	}
}

func TestFilteredErrors(t *testing.T) {
	u, data := buildFiltered(t, 500)
	qs := queriesFrom(data, 1, 1)
	if _, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: parsePred(t, `missing = 1`)}); !errors.Is(err, filter.ErrInvalid) {
		t.Fatalf("unknown field error %v does not wrap filter.ErrInvalid", err)
	}
	if _, err := u.Search(qs, mutable.SearchOpts{K: 0, Pred: parsePred(t, `tenant = 1`)}); err == nil {
		t.Fatal("k=0 accepted")
	}

	// A deployment without a schema rejects filtered traffic and tagged
	// writes.
	plain := gaussMatrix(500, testDim, 3)
	ix := ivfpq.Train(plain, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
	ix.Add(plain, 0)
	cfg := mutable.ServingConfig(4, 10, 4, 1)
	cfg.CheckInterval = -1
	bare, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Close)
	if _, err := bare.Search(qs, mutable.SearchOpts{K: 10, Pred: parsePred(t, `tenant = 1`)}); !errors.Is(err, filter.ErrInvalid) {
		t.Fatalf("schemaless filtered search error %v does not wrap filter.ErrInvalid", err)
	}
	if err := upsertOneWithAttrs(bare, 1, plain.Row(0), filter.Attrs{"tenant": filter.IntValue(1)}); !errors.Is(err, mutable.ErrNoSchema) {
		t.Fatalf("schemaless tagged insert error %v, want ErrNoSchema", err)
	}
}

func TestFilteredPartiallyTaggedCorpus(t *testing.T) {
	// Only a small slice of the corpus carries tags (the shape a
	// cold-booted server produces as tagged upserts trickle in): the
	// planner must see the corpus-level selectivity (~1.5%, pre-filter),
	// not the tagged-level 100% that would post-filter a fetch depth
	// sized for the slice and return almost nothing.
	data := gaussMatrix(2000, testDim, 31)
	ix := ivfpq.Train(data, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
	ix.Add(data, 0)
	cfg := mutable.ServingConfig(testNList, 10, 4, 1) // probe every cluster
	cfg.CheckInterval = -1
	cfg.Schema = filteredSchema(t)
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	const tagged = 30
	for i := 0; i < tagged; i++ {
		if err := u.AttrStore().Set(int64(i), filter.Attrs{"tenant": filter.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}

	qs := vecmath.WrapMatrix(data.Row(0), 1, data.Dim)
	res, err := u.Search(qs, mutable.SearchOpts{K: 10, Pred: parsePred(t, `tenant = 1`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 10 {
		t.Fatalf("filtered search over a partially-tagged corpus returned %d of 10 results", len(res[0]))
	}
	for _, c := range res[0] {
		if c.ID >= tagged {
			t.Fatalf("leaked untagged id %d", c.ID)
		}
	}
	st := u.FilterStats()
	if st.PreDecisions != 1 || st.PostDecisions != 0 {
		t.Fatalf("planner chose %d pre / %d post; corpus-level selectivity must plan pre", st.PreDecisions, st.PostDecisions)
	}
}

// TestPendingWritesShareClusterLUT pins "one LUT per (query, probed
// cluster)": live log entries in probed clusters are scored off the LUT
// the base scan of that cluster built, so a read's LUT bytes do not depend
// on what is pending — and a log entry whose cluster's base list is fully
// disallowed still gets the (lazily built) LUT it needs.
func TestPendingWritesShareClusterLUT(t *testing.T) {
	const n, m, nprobe = 2000, 4, 4
	data := gaussMatrix(n, testDim, 11)
	ix := ivfpq.Train(data, ivfpq.Params{NList: testNList, M: m, Seed: 7})
	ix.Add(data, 0)
	for c, sz := range ix.ListSizes() {
		if sz == 0 {
			t.Fatalf("cluster %d is empty; the test wants every probed cluster non-empty", c)
		}
	}
	cfg := mutable.ServingConfig(nprobe, 10, 4, 1)
	cfg.CheckInterval = -1
	cfg.Schema = filteredSchema(t)
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	const lutBytes = m * 256 * 6 // float32 entry + its uint16 quantization
	q := vecmath.WrapMatrix(data.Row(5), 1, testDim)
	read := func(o mutable.SearchOpts) (obs.Cost, []topk.Candidate) {
		t.Helper()
		var c obs.Cost
		o.K, o.Cost = 10, &c
		res, err := u.Search(q, o)
		if err != nil {
			t.Fatal(err)
		}
		return c, res[0]
	}
	empty, _ := read(mutable.SearchOpts{})
	if empty.LUTBytes != nprobe*lutBytes || empty.OverlayCodes != 0 {
		t.Fatalf("empty-overlay read: %d LUT bytes, %d overlay codes; want %d, 0", empty.LUTBytes, empty.OverlayCodes, nprobe*lutBytes)
	}

	// Pending writes around the query land in the clusters it probes.
	near := queriesFrom(q, 40, 3)
	for i := 0; i < near.Rows; i++ {
		if err := upsertOneWithAttrs(u, int64(n+i), near.Row(i), filter.Attrs{"tenant": filter.IntValue(9)}); err != nil {
			t.Fatal(err)
		}
	}
	pending, _ := read(mutable.SearchOpts{})
	if pending.OverlayCodes == 0 {
		t.Fatal("no pending entry fell in a probed cluster")
	}
	if pending.LUTBytes != empty.LUTBytes {
		t.Fatalf("read with %d pending entries in probed clusters built %d LUT bytes, empty-overlay read %d",
			pending.OverlayCodes, pending.LUTBytes, empty.LUTBytes)
	}

	// No base vector carries tenant 9: every probed base list is fully
	// disallowed and builds nothing, yet the clusters holding the tagged
	// log entries still build theirs, once each.
	filtered, hits := read(mutable.SearchOpts{Pred: parsePred(t, `tenant = 9`), Mode: filter.ModePre})
	if len(hits) != 10 {
		t.Fatalf("pre-filtered read over pending entries returned %d hits, want 10", len(hits))
	}
	for _, h := range hits {
		if h.ID < n {
			t.Fatalf("untagged base id %d passed the filter", h.ID)
		}
	}
	if filtered.CodesScanned != filtered.OverlayCodes || filtered.LUTBytes == 0 ||
		filtered.LUTBytes%lutBytes != 0 || filtered.LUTBytes > nprobe*lutBytes {
		t.Fatalf("fully-disallowed base: cost %+v, want only overlay codes scanned off 1..%d LUTs", filtered, nprobe)
	}
}
