package mutable_test

// Shadow-oracle coverage: the exact re-execution the quality plane
// compares live answers against must see the same consistent cut live
// searches see — overlay inserts immediately, tombstones immediately,
// filters exactly — and must survive concurrent epoch swaps (this file's
// race test runs the full sampled plane against a force-compacting
// index).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/vecmath"
)

// TestOracleSeesOverlayAndTombstones: an upserted vector identical to
// the query must be the oracle's nearest neighbor the moment Insert
// returns, and must vanish from the truth the moment Delete returns.
func TestOracleSeesOverlayAndTombstones(t *testing.T) {
	base := gaussMatrix(2000, testDim, 21)
	u := buildUpdatable(t, base, 0)

	q := gaussMatrix(1, testDim, 77).Row(0)
	res, err := u.SearchOracle(q, testK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) != testK {
		t.Fatalf("oracle returned %d of %d", len(res.Truth), testK)
	}
	for i := 1; i < len(res.Truth); i++ {
		if res.Truth[i].Dist < res.Truth[i-1].Dist {
			t.Fatalf("truth not ascending at %d: %+v", i, res.Truth)
		}
	}
	if res.Cluster < 0 || res.Cluster >= testNList {
		t.Fatalf("cluster %d out of range", res.Cluster)
	}
	if res.Selectivity != 1 {
		t.Fatalf("unfiltered selectivity %v", res.Selectivity)
	}

	const id = int64(777_000)
	if err := upsertOne(u, id, q); err != nil {
		t.Fatal(err)
	}
	res, err = u.SearchOracle(q, testK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truth[0].ID != id {
		t.Fatalf("exact-match overlay insert is not the oracle's nearest: %+v", res.Truth[0])
	}
	u.Remove([]int64{id})
	res, err = u.SearchOracle(q, testK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hasID(res.Truth, id) {
		t.Fatal("tombstoned id still in oracle truth")
	}
}

// TestOracleFilterConsistent: a predicate constrains the oracle's truth
// exactly, and the reported selectivity reflects the match fraction.
func TestOracleFilterConsistent(t *testing.T) {
	u, _ := buildFiltered(t, 2000)
	q := gaussMatrix(1, testDim, 55).Row(0)
	res, err := u.SearchOracle(q, testK, parsePred(t, `tenant = 3`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) != testK {
		t.Fatalf("filtered oracle returned %d of %d", len(res.Truth), testK)
	}
	for _, c := range res.Truth {
		if tenantOf(c.ID) != 3 {
			t.Fatalf("id %d (tenant %d) violates the predicate", c.ID, tenantOf(c.ID))
		}
	}
	if res.Selectivity <= 0.1 || res.Selectivity >= 0.5 {
		t.Fatalf("selectivity %v, want ~0.25 for tenant = 3 over id %% 4", res.Selectivity)
	}
}

// TestQualityOracleAdapter: the obs-facing adapter resolves the opaque
// predicate, converts candidates to ids, and rejects foreign predicate
// types instead of panicking.
func TestQualityOracleAdapter(t *testing.T) {
	u, _ := buildFiltered(t, 1000)
	oracle := u.QualityOracle()
	q := gaussMatrix(1, testDim, 56).Row(0)

	truth, err := oracle(obs.QualitySample{Vector: q, K: 5, Pred: parsePred(t, `tenant = 1`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Truth) != 5 || truth.NProbe != 4 {
		t.Fatalf("adapter truth: %+v", truth)
	}
	for _, id := range truth.Truth {
		if tenantOf(id) != 1 {
			t.Fatalf("id %d violates the adapted predicate", id)
		}
	}
	if _, err := oracle(obs.QualitySample{Vector: q, K: 5, Pred: "not a predicate"}); err == nil {
		t.Fatal("foreign predicate type accepted")
	}
}

// TestClusterOccupancy: the drift reference matches the deployed base
// exactly and follows epoch swaps.
func TestClusterOccupancy(t *testing.T) {
	base := gaussMatrix(1500, testDim, 31)
	u := buildUpdatable(t, base, 0)

	sum := func(occ []float64) (total float64) {
		for _, v := range occ {
			total += v
		}
		return
	}
	occ := u.ClusterOccupancy()
	if len(occ) != testNList || sum(occ) != 1500 {
		t.Fatalf("occupancy %v (sum %v), want %d clusters summing 1500", occ, sum(occ), testNList)
	}

	for i := 0; i < 50; i++ {
		if err := upsertOne(u, int64(10_000+i), gaussMatrix(1, testDim, uint64(100+i)).Row(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := u.Compact(true); err != nil {
		t.Fatal(err)
	}
	occ = u.ClusterOccupancy()
	if sum(occ) != 1550 {
		t.Fatalf("post-compaction occupancy sums %v, want 1550", sum(occ))
	}
}

// TestShadowExecutionUnderCompaction runs the full sampled quality
// plane — serve-side sampling shape, shadow worker, drift detector —
// against an index whose epochs are force-published concurrently.
// Exists to run under -race: every shadow execution must succeed over a
// consistent (epoch, overlay) cut, and the estimator must land at
// recall 1 for self-queries.
func TestShadowExecutionUnderCompaction(t *testing.T) {
	base := gaussMatrix(1200, testDim, 41)
	u := buildUpdatable(t, base, 0)

	q := obs.NewQuality(obs.QualityConfig{
		ShardID: "race", SampleEvery: 1, QueueDepth: 4096,
	}, u.QualityOracle(), u.ClusterOccupancy, nil)
	defer q.Close()

	stop := make(chan struct{})
	swapper := startSwapper(t, u, stop)

	var wg sync.WaitGroup
	const writers = 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := int64(500_000 + w*1000 + i)
				if err := upsertOne(u, id, gaussMatrix(1, testDim, uint64(id)).Row(0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	const samples = 200
	for i := 0; i < samples; i++ {
		vec := base.Row(i % base.Rows)
		res, err := u.Search(vecmath.WrapMatrix(vec, 1, testDim), mutable.SearchOpts{K: testK})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, len(res[0]))
		for j, c := range res[0] {
			ids[j] = c.ID
		}
		if q.ShouldSample() {
			q.Submit(obs.QualitySample{Vector: vec, K: testK, Live: ids})
		}
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	if !q.Drain(30 * time.Second) {
		t.Fatal("shadow queue did not drain")
	}

	snap := q.Snapshot()
	if snap.Errors != 0 {
		t.Fatalf("%d shadow executions failed under compaction", snap.Errors)
	}
	if snap.Executed != samples {
		t.Fatalf("executed %d of %d", snap.Executed, samples)
	}
	// The live path probes 4 of 8 clusters, so some loss against the
	// full-width oracle is expected — but an epoch swap mid-flight must
	// not corrupt the estimator into garbage (or an empty stream).
	if snap.Recall.Trials == 0 || snap.Recall.Estimate < 0.5 {
		t.Fatalf("shadow recall under compaction: %+v", snap.Recall)
	}
}
