package mutable

import (
	"testing"

	"repro/internal/ivfpq"
	"repro/internal/tier"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestOracleLeavesTierResidencyAlone pins "shadow traffic must not steer
// the tier hot set" on a tiered deployment: full-width oracle reads touch
// no rebalance counter and queue no prefetch, so the prefetch counters
// stand still and the next rebalance pins what it would have pinned
// without them. Half the clusters carry zero access frequency — never
// pinned, with room to spare in the budget — so a single stray touch
// would promote them. In-package to drive the store's Rebalance directly.
func TestOracleLeavesTierResidencyAlone(t *testing.T) {
	const rows, dim, nlist = 2000, 16, 8
	r := xrand.New(41)
	data := vecmath.NewMatrix(rows, dim)
	for i := range data.Data {
		data.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(data, ivfpq.Params{NList: nlist, M: 4, KSub: 16, Seed: 7})
	ix.Add(data, 0)
	freqs := make([]float64, nlist)
	for c := 0; c < nlist; c += 2 {
		freqs[c] = 1
	}
	cfg := ServingConfig(4, 10, 0, 1)
	cfg.CheckInterval = -1
	cfg.Tier = &TierConfig{Dir: t.TempDir(), Store: tier.Config{HotBytes: 1 << 20, PrefetchWorkers: 1}}
	u, err := New(ix, freqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	before := *u.TierStats()
	if before.HotClusters != nlist/2 {
		t.Fatalf("deployment pinned %d clusters, want the %d with a non-zero frequency", before.HotClusters, nlist/2)
	}
	for i := 0; i < 10; i++ {
		if _, err := u.SearchOracle(data.Row(i), 10, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := u.TierStats(); st.PrefetchIssued != before.PrefetchIssued || st.PrefetchDropped != before.PrefetchDropped {
		t.Fatalf("oracle reads queued prefetches: issued %d -> %d, dropped %d -> %d",
			before.PrefetchIssued, st.PrefetchIssued, before.PrefetchDropped, st.PrefetchDropped)
	}
	u.snap.Load().tix.Store().Rebalance()
	if st := u.TierStats(); st.HotClusters != before.HotClusters || st.Promotions != before.Promotions || st.Evictions != before.Evictions {
		t.Fatalf("hot set moved after oracle reads: %d clusters (%d promotions, %d evictions), was %d (%d, %d)",
			st.HotClusters, st.Promotions, st.Evictions, before.HotClusters, before.Promotions, before.Evictions)
	}

	// The live read is what steers residency: it probes cold clusters too.
	if _, err := u.Search(vecmath.WrapMatrix(data.Row(0), 1, dim), SearchOpts{K: 10}); err != nil {
		t.Fatal(err)
	}
	u.snap.Load().tix.Store().Rebalance()
	if st := u.TierStats(); st.Promotions == before.Promotions {
		t.Fatal("a live read over cold clusters promoted nothing at the next rebalance")
	}
}
