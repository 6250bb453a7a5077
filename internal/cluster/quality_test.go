package cluster

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestFleetQualityEndToEnd boots a two-shard fleet with the shadow
// oracle sampling every query, drives traffic through the router, and
// checks the whole quality surface: per-shard /quality snapshots, the
// router's worst-of rollup (served on its own /quality), and the
// aggregated /stats quality summary rows. Shards probe every cluster
// (NProbe = NList), so the live path and the exact oracle agree and the
// fleet estimate must sit at recall ~1 with the truth inside the CI.
func TestFleetQualityEndToEnd(t *testing.T) {
	const dim = 8
	rng := xrand.New(17)
	base := vecmath.NewMatrix(600, dim)
	for i := range base.Data {
		base.Data[i] = float32(rng.NormFloat64())
	}
	shards, err := StartLocalShards(base, LocalOptions{
		Shards: 2, NList: 8, NProbe: 8, K: 5, Seed: 3,
		Obs: true, QualitySample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range shards {
			s.Close()
		}
	}()
	r, err := New(ShardURLs(shards), Config{K: 5, SearchTimeout: 2 * time.Second, HedgeQuantile: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(NewHandler(r))
	defer front.Close()

	ctx := context.Background()
	const queries = 40
	for i := 0; i < queries; i++ {
		if _, err := r.SearchOpts(ctx, base.Row(i*7), SearchOptions{K: 5}); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	for _, s := range shards {
		if !s.Quality.Drain(30 * time.Second) {
			t.Fatalf("shard %s shadow queue did not drain", s.ID)
		}
	}

	// Per-shard: every fanned-out query was shadow-checked, and at full
	// probe width live and oracle agree — the estimate must be ~1 with
	// the truth inside the Wilson interval.
	for _, s := range shards {
		snap := s.Quality.Snapshot()
		if snap.Executed != queries {
			t.Fatalf("shard %s executed %d shadows, want %d", s.ID, snap.Executed, queries)
		}
		if snap.Recall.Estimate < 0.9 {
			t.Fatalf("shard %s full-width shadow recall %v", s.ID, snap.Recall.Estimate)
		}
		if snap.Recall.CILow > snap.Recall.Estimate || snap.Recall.CIHigh < snap.Recall.Estimate {
			t.Fatalf("shard %s estimate outside its own CI: %+v", s.ID, snap.Recall)
		}
	}

	// The fleet rollup gathers both shards with a non-disabled worst-of
	// verdict, and the router serves the same shape on GET /quality.
	fleet := r.FleetQuality(ctx, 2*time.Second)
	if len(fleet.Shards) != 2 || fleet.State == "disabled" {
		t.Fatalf("fleet quality rollup: %+v", fleet)
	}
	resp, err := front.Client().Get(front.URL + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire FleetQuality
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Shards) != 2 || wire.State != fleet.State {
		t.Fatalf("router /quality: %+v", wire)
	}
	for idx, snap := range wire.Shards {
		if snap.Sampled == 0 || snap.SampleEvery != 1 {
			t.Fatalf("shard %s wire snapshot: %+v", idx, snap)
		}
	}

	// The aggregated /stats view carries one summary row per shard with
	// the estimate and its CI half-width.
	agg := r.AggregatedStats(ctx, 2*time.Second)
	if len(agg.Quality) != 2 {
		t.Fatalf("aggregated stats quality rows: %+v", agg.Quality)
	}
	for _, row := range agg.Quality {
		if row.Sampled == 0 || row.Recall < 0.9 || row.CIHalfWidth <= 0 {
			t.Fatalf("quality summary row: %+v", row)
		}
	}
}

// TestFleetQualityDisabled: a fleet without sampling reports "disabled"
// and contributes no aggregated quality rows — the rollup must not
// invent a verdict out of inert shards.
func TestFleetQualityDisabled(t *testing.T) {
	const dim = 8
	rng := xrand.New(19)
	base := vecmath.NewMatrix(300, dim)
	for i := range base.Data {
		base.Data[i] = float32(rng.NormFloat64())
	}
	shards, err := StartLocalShards(base, LocalOptions{Shards: 2, NList: 8, NProbe: 4, K: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range shards {
			s.Close()
		}
	}()
	r, err := New(ShardURLs(shards), Config{K: 5, SearchTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	fleet := r.FleetQuality(ctx, 2*time.Second)
	if fleet.State != "disabled" {
		t.Fatalf("inert fleet state %q, want disabled", fleet.State)
	}
	if agg := r.AggregatedStats(ctx, 2*time.Second); len(agg.Quality) != 0 {
		t.Fatalf("inert fleet produced quality rows: %+v", agg.Quality)
	}
}

// TestQualitySchemaSharedAcrossTiers pins the JSON names the quality
// surface shares between tiers: the shard /stats "quality" section is
// what the router's aggregator decodes (Router.AggregatedStats), the
// snapshot field names are what both tiers' /quality endpoints serve,
// and the summary row names are what dashboards join on.
func TestQualitySchemaSharedAcrossTiers(t *testing.T) {
	shard := jsonKeys(t, serve.StatsPayload{
		ShardID: "s0",
		Quality: &obs.QualitySnapshot{},
	})
	if !shard["quality"] {
		t.Error(`shard stats payload lacks the "quality" section the router aggregator decodes`)
	}

	snap := jsonKeys(t, obs.QualitySnapshot{ShardID: "s0"})
	for _, k := range []string{"shard_id", "state", "sample_every", "sampled", "executed", "dropped", "errors", "recall", "drift"} {
		if !snap[k] {
			t.Errorf("quality snapshot lacks %q", k)
		}
	}
	est := jsonKeys(t, obs.QualityEstimate{})
	for _, k := range []string{"samples", "trials", "matched", "estimate", "ci_low", "ci_high"} {
		if !est[k] {
			t.Errorf("quality estimate lacks %q", k)
		}
	}

	row := jsonKeys(t, ShardQualityStat{ShardID: "0"})
	for _, k := range []string{"shard_id", "state", "sampled", "recall_estimate", "ci_half_width"} {
		if !row[k] {
			t.Errorf("aggregated quality row lacks %q", k)
		}
	}

	fleet := jsonKeys(t, FleetQuality{State: "ok", Shards: map[string]obs.QualitySnapshot{"0": {}}})
	for _, k := range []string{"state", "shards"} {
		if !fleet[k] {
			t.Errorf("fleet quality rollup lacks %q", k)
		}
	}
}
