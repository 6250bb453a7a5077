package workload

import (
	"testing"

	"repro/internal/filter"
)

func TestSelectivitySweepExactFractions(t *testing.T) {
	n := 4000
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	fracs := []float64{0.001, 0.01, 0.1, 0.5}
	schema, attrs, bands, err := SelectivitySweep(ids, fracs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != n || len(bands) != len(fracs) {
		t.Fatalf("shapes: %d attrs, %d bands", len(attrs), len(bands))
	}
	store := filter.NewStore(schema)
	if err := store.Load(ids, attrs); err != nil {
		t.Fatal(err)
	}
	for bi, b := range bands {
		want := int(fracs[bi]*float64(n) + 0.5)
		if want < 1 {
			want = 1
		}
		if b.Members != want {
			t.Fatalf("band %d: %d members, want %d", bi, b.Members, want)
		}
		got := store.Eval(b.Pred).Cardinality()
		if got != want {
			t.Fatalf("band %d (%s): predicate admits %d ids, want exactly %d", bi, b.Expr, got, want)
		}
		est := store.EstimateTotal(b.Pred, 0)
		if diff := est - b.Fraction; diff > 0.01 || diff < -0.01 {
			t.Fatalf("band %d: estimated selectivity %.4f vs target %.4f", bi, est, b.Fraction)
		}
	}
	// Bands overlap freely (independent samples), and every id carries a
	// tenant in [0, SweepTenants).
	for i, a := range attrs {
		ten, ok := a["tenant"]
		if !ok || ten.Int < 0 || ten.Int >= SweepTenants {
			t.Fatalf("id %d: bad tenant tag %+v", i, a)
		}
	}
}

func TestSelectivitySweepDeterministic(t *testing.T) {
	ids := make([]int64, 500)
	for i := range ids {
		ids[i] = int64(i)
	}
	_, a1, _, err := SelectivitySweep(ids, []float64{0.1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	_, a2, _, err := SelectivitySweep(ids, []float64{0.1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i].String() != a2[i].String() {
			t.Fatalf("id %d: assignment differs across identical seeds", i)
		}
	}
}

func TestSelectivitySweepRejectsBadFractions(t *testing.T) {
	ids := []int64{1, 2, 3}
	for _, f := range []float64{0, -0.1, 1.5} {
		if _, _, _, err := SelectivitySweep(ids, []float64{f}, 1); err == nil {
			t.Fatalf("fraction %v accepted", f)
		}
	}
}
