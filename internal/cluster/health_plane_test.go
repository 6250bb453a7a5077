package cluster

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestKillDrillHealthPlane is the health-plane acceptance test: a kill
// drill over a live local fleet with the SLO/cost/flight plane on. The
// drill must show up in every surface — the router's integrity budget
// burns while the shard is down, the breaker trip and recovery land in
// the flight recorder, the /slo rollup pages, the /debug/bundle
// postmortem carries the whole story, and the shards' cost rings
// account the drill's queries.
func TestKillDrillHealthPlane(t *testing.T) {
	const dim = 8
	r8 := xrand.New(42)
	base := vecmath.NewMatrix(600, dim)
	for i := range base.Data {
		base.Data[i] = float32(r8.NormFloat64())
	}
	shards, err := StartLocalShards(base, LocalOptions{
		Shards: 2, NList: 8, NProbe: 4, K: 5, Seed: 3,
		Obs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range shards {
			s.Close()
		}
	}()

	// Trust-all health (HealthInterval < 0): the fanout keeps dispatching
	// to the dead shard, so breaker transitions are driven entirely by
	// request outcomes and the drill is deterministic.
	r, err := New(ShardURLs(shards), Config{
		K:                5,
		SearchTimeout:    2 * time.Second,
		HedgeQuantile:    -1,
		HealthInterval:   -1,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		SLO: obs.NewSLOTracker(obs.SLOConfig{
			Name:            "router",
			IntegrityTarget: 0.99,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(NewHandler(r))
	defer front.Close()

	ctx := context.Background()
	search := func() {
		t.Helper()
		cands, err := r.SearchOpts(ctx, base.Row(0), SearchOptions{K: 5})
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		if len(cands) == 0 {
			t.Fatal("search answered no candidates")
		}
	}

	// Healthy baseline: full-fidelity answers, no budget burned.
	for i := 0; i < 5; i++ {
		search()
	}
	if snap := r.cfg.SLO.Snapshot(); snap.State != obs.SLOOk || snap.Degraded != 0 {
		t.Fatalf("baseline snapshot %+v, want ok with zero degraded", snap)
	}

	victim := shards[1]
	victim.Kill()

	// Degraded service: answers keep flowing (shard loss degrades recall,
	// not availability) while the integrity budget burns and the victim's
	// breaker opens.
	for i := 0; i < 8; i++ {
		search()
	}
	snap := r.cfg.SLO.Snapshot()
	if snap.State != obs.SLOPage {
		t.Fatalf("mid-outage state %q, want page (snapshot %+v)", snap.State, snap)
	}
	if snap.Degraded < 8 {
		t.Fatalf("degraded count %d, want >= 8", snap.Degraded)
	}
	var integ obs.SLOObjective
	for _, o := range snap.Objectives {
		if o.Objective == "integrity" {
			integ = o
		}
	}
	if integ.Objective == "" || integ.FastBurn <= 0 {
		t.Fatalf("integrity objective did not burn: %+v", snap.Objectives)
	}

	breakerEvent := func(to string) bool {
		for _, ev := range obs.Flight.Events() {
			if ev.Kind == "breaker" && ev.Attrs["url"] == victim.URL && ev.Attrs["to"] == to {
				return true
			}
		}
		return false
	}
	if !breakerEvent("open") {
		t.Fatalf("breaker trip for %s missing from the flight record", victim.URL)
	}

	// Recovery: the shard comes back on its port; after the cooldown the
	// half-open probe succeeds and the breaker closes.
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !breakerEvent("closed") {
		if time.Now().After(deadline) {
			t.Fatal("breaker did not close within 5s of the shard restarting")
		}
		search()
		time.Sleep(25 * time.Millisecond)
	}
	degBefore := r.Stats().Degraded
	search()
	if deg := r.Stats().Degraded; deg != degBefore {
		t.Fatalf("post-recovery search still degraded (%d -> %d)", degBefore, deg)
	}

	// The fleet /slo rollup pages (the burn is still inside the windows)
	// and carries both shard snapshots.
	sresp, err := front.Client().Get(front.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var fleet FleetSLO
	if err := json.NewDecoder(sresp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if fleet.State != obs.SLOPage {
		t.Fatalf("fleet state %q, want page", fleet.State)
	}
	if fleet.Router.Name != "router" || len(fleet.Shards) != 2 {
		t.Fatalf("fleet rollup incomplete: router %q, %d shard snapshots", fleet.Router.Name, len(fleet.Shards))
	}

	// The postmortem bundle tells the whole story: every section present,
	// the flight record carrying both breaker transitions.
	bresp, err := front.Client().Get(front.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil || bresp.StatusCode != 200 {
		t.Fatalf("bundle fetch: status %d err %v", bresp.StatusCode, err)
	}
	files := untarBundleFiles(t, blob)
	for _, name := range []string{
		"flight.json", "traces.json", "metrics.txt", "slo.json",
		"costly.json", "stats.json", "goroutine.txt", "heap.txt",
	} {
		if _, ok := files[name]; !ok {
			t.Errorf("bundle is missing section %q (got %v)", name, sectionNames(files))
		}
	}
	var flight []obs.FlightEvent
	if err := json.Unmarshal(files["flight.json"], &flight); err != nil {
		t.Fatalf("flight.json: %v", err)
	}
	var sawOpen, sawClosed bool
	for _, ev := range flight {
		if ev.Kind == "breaker" && ev.Attrs["url"] == victim.URL {
			switch ev.Attrs["to"] {
			case "open":
				sawOpen = true
			case "closed":
				sawClosed = true
			}
		}
	}
	if !sawOpen || !sawClosed {
		t.Fatalf("bundle flight record lacks the breaker story: open=%v closed=%v", sawOpen, sawClosed)
	}

	// The surviving shard's health plane saw the drill: SLO requests
	// recorded, cost ring populated, /debug/costly served over HTTP.
	if shards[0].SLO.Snapshot().Requests == 0 {
		t.Fatal("surviving shard recorded no SLO requests")
	}
	if p := shards[0].Costs.Payload(); p.Queries == 0 || p.TotalBytes == 0 {
		t.Fatalf("surviving shard cost ring empty: %+v", p)
	}
	cresp, err := front.Client().Get(shards[0].URL + "/debug/costly")
	if err != nil {
		t.Fatal(err)
	}
	var costly obs.CostlyPayload
	if err := json.NewDecoder(cresp.Body).Decode(&costly); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if costly.Queries == 0 || len(costly.Top) == 0 {
		t.Fatalf("/debug/costly payload empty: %+v", costly)
	}
	if costly.Top[0].Cost.CodeBytes == 0 || costly.Top[0].Cost.LUTBytes == 0 {
		t.Fatalf("top entry carries no backend cost: %+v", costly.Top[0])
	}
}

// untarBundleFiles unpacks a gzipped tar bundle into name -> body.
func untarBundleFiles(t *testing.T, blob []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("bundle gzip: %v", err)
	}
	out := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("bundle tar body: %v", err)
		}
		out[hdr.Name] = body
	}
	return out
}

func sectionNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	return names
}
