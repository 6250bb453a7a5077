package filter

import (
	"errors"
	"math"
	"testing"
)

func storeWith(t *testing.T, n int) *Store {
	t.Helper()
	s := NewStore(mustSchema(t))
	langs := []string{"en", "fr", "de"}
	for i := 0; i < n; i++ {
		err := s.Set(int64(i), Attrs{
			"tenant": IntValue(int64(i % 10)),
			"lang":   StrValue(langs[i%len(langs)]),
			"score":  IntValue(int64(i % 100)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func evalIDs(bm *Bitmap) map[int64]bool {
	out := map[int64]bool{}
	for _, id := range bitmapIDs(bm) {
		out[id] = true
	}
	return out
}

// bruteEval is the reference evaluator: Matches over every stored id.
func bruteEval(s *Store, p Pred, n int) map[int64]bool {
	out := map[int64]bool{}
	for i := 0; i < n; i++ {
		if s.Matches(p, int64(i)) {
			out[int64(i)] = true
		}
	}
	return out
}

func TestStoreEvalMatchesBruteForce(t *testing.T) {
	const n = 1000
	s := storeWith(t, n)
	exprs := []string{
		`tenant = 3`,
		`lang = "en"`,
		`lang IN ("en", "de")`,
		`score BETWEEN 10 AND 19`,
		`score >= 90`,
		`tenant = 3 AND lang = "en"`,
		`tenant = 3 OR tenant = 4`,
		`(tenant = 1 OR tenant = 2) AND score < 50`,
		`tenant = 99`, // matches nothing
	}
	for _, in := range exprs {
		p, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(s.Schema()); err != nil {
			t.Fatal(err)
		}
		got := evalIDs(s.Eval(p))
		want := bruteEval(s, p, n)
		if len(got) != len(want) {
			t.Fatalf("%q: Eval admits %d ids, brute force %d", in, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("%q: Eval missing id %d", in, id)
			}
		}
	}
}

func TestStoreEstimate(t *testing.T) {
	const n = 1000
	s := storeWith(t, n)
	cases := []struct {
		in   string
		want float64
		tol  float64
	}{
		{`tenant = 3`, 0.1, 0.01},
		{`lang = "en"`, 1.0 / 3, 0.01},
		{`score BETWEEN 0 AND 49`, 0.5, 0.01},
		{`tenant = 3 AND lang = "en"`, 0.1 / 3, 0.02}, // independence assumption
		{`tenant = 3 OR tenant = 4`, 0.19, 0.02},
		{`tenant = 99`, 0, 0.001},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.EstimateTotal(p, 0); math.Abs(got-c.want) > c.tol {
			t.Errorf("EstimateTotal(%q, 0) = %.4f, want %.4f +/- %.3f", c.in, got, c.want, c.tol)
		}
	}
}

func TestStoreUpsertReplacesAndRemoveUnindexes(t *testing.T) {
	s := NewStore(mustSchema(t))
	if err := s.Set(1, Attrs{"tenant": IntValue(5), "lang": StrValue("en")}); err != nil {
		t.Fatal(err)
	}
	// Replacement drops fields absent from the new attrs.
	if err := s.Set(1, Attrs{"tenant": IntValue(6)}); err != nil {
		t.Fatal(err)
	}
	eq := func(expr string) bool {
		p, err := Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		return s.Eval(p).Contains(1)
	}
	if eq(`tenant = 5`) || eq(`lang = "en"`) {
		t.Fatal("old tags survive a replacing Set")
	}
	if !eq(`tenant = 6`) {
		t.Fatal("new tag missing after replacing Set")
	}
	s.Remove(1)
	if eq(`tenant = 6`) {
		t.Fatal("tags survive Remove")
	}
	if s.Len() != 0 {
		t.Fatalf("store len %d after removing the only id", s.Len())
	}
}

func TestStoreSetValidates(t *testing.T) {
	s := NewStore(mustSchema(t))
	if err := s.Set(1, Attrs{"missing": IntValue(1)}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown field error %v does not wrap ErrInvalid", err)
	}
	if err := s.Set(1, Attrs{"tenant": StrValue("x")}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("type mismatch error %v does not wrap ErrInvalid", err)
	}
	if s.Len() != 0 {
		t.Fatal("rejected Set left state behind")
	}
}

func TestStoreEvalIsConsistentCut(t *testing.T) {
	s := storeWith(t, 100)
	p, err := Parse(`tenant = 3`)
	if err != nil {
		t.Fatal(err)
	}
	bm := s.Eval(p)
	before := bm.Cardinality()
	// Later writes must not reach an already-returned bitmap.
	if err := s.Set(3, Attrs{"tenant": IntValue(9)}); err != nil {
		t.Fatal(err)
	}
	if bm.Cardinality() != before || !bm.Contains(3) {
		t.Fatal("returned bitmap aliases live posting lists")
	}
}

func TestPlanSearch(t *testing.T) {
	if p := PlanSearch(0.01, 10, ModeAuto); p.Mode != ModePre || p.FetchK != 10 {
		t.Fatalf("low selectivity planned %v fetch %d, want pre/10", p.Mode, p.FetchK)
	}
	p := PlanSearch(0.5, 10, ModeAuto)
	if p.Mode != ModePost {
		t.Fatalf("high selectivity planned %v, want post", p.Mode)
	}
	if p.FetchK != 30 { // 10/0.5 * 1.5
		t.Fatalf("post fetch k = %d, want 30", p.FetchK)
	}
	if p := PlanSearch(0.0001, 10, ModePost); p.FetchK != MaxFetchK {
		t.Fatalf("forced post at tiny selectivity fetch %d, want cap %d", p.FetchK, MaxFetchK)
	}
	if p := PlanSearch(0.9, 10, ModePre); p.Mode != ModePre {
		t.Fatalf("forced pre planned %v", p.Mode)
	}
}

func TestStatsRecordAndMerge(t *testing.T) {
	var st Stats
	st.Record(PlanSearch(0.0005, 10, ModeAuto), false, 2)
	st.Record(PlanSearch(0.3, 10, ModeAuto), false, 1)
	st.Record(PlanSearch(0.3, 10, ModePre), true, 1)
	snap := st.Snapshot()
	if snap.Filtered != 4 || snap.PreDecisions != 3 || snap.PostDecisions != 1 || snap.ForcedMode != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.SelectivityHist[0] != 2 || snap.SelectivityHist[3] != 2 {
		t.Fatalf("selectivity histogram %v", snap.SelectivityHist)
	}
	merged := &StatsSnapshot{}
	merged.Merge(snap)
	merged.Merge(snap)
	if merged.Filtered != 8 || merged.SelectivityHist[0] != 4 {
		t.Fatalf("merged %+v", merged)
	}
}

func TestEstimateTotalPartiallyTaggedCorpus(t *testing.T) {
	// 500 tagged vectors living in a 50k corpus: over tagged vectors the
	// predicate looks like selectivity 1.0, over the corpus it is 1% —
	// and the corpus is what a filtered scan covers, so planning must see
	// the corpus fraction.
	s := NewStore(mustSchema(t))
	for i := 0; i < 500; i++ {
		if err := s.Set(int64(i), Attrs{"tenant": IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Parse(`tenant = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EstimateTotal(p, 0); got != 1.0 {
		t.Fatalf("EstimateTotal over tagged = %.4f, want 1.0", got)
	}
	got := s.EstimateTotal(p, 50000)
	if math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("EstimateTotal over the corpus = %.4f, want 0.01", got)
	}
	if plan := PlanSearch(got, 10, ModeAuto); plan.Mode != ModePre {
		t.Fatalf("partially-tagged corpus planned %v, want pre", plan.Mode)
	}
	// A total below the tagged count falls back to the tagged count.
	if got := s.EstimateTotal(p, 10); got != 1.0 {
		t.Fatalf("EstimateTotal with stale total = %.4f, want 1.0", got)
	}
}
