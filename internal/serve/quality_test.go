package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// buildQualityServer deploys a small mutable index behind a Server with
// the shadow-oracle plane sampling every answered query (the hottest
// possible sampler), plus the cost tracker and SLO tracker the test
// asserts stay isolated from shadow traffic.
func buildQualityServer(t *testing.T) (*Server, *obs.Quality, *obs.CostTracker, *vecmath.Matrix) {
	t.Helper()
	const dim = 16
	r := xrand.New(3)
	base := vecmath.NewMatrix(1500, dim)
	for i := range base.Data {
		base.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(base, ivfpq.Params{NList: 8, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)
	cfg := mutable.ServingConfig(4, 10, 2, 1)
	cfg.CheckInterval = -1
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	quality := obs.NewQuality(obs.QualityConfig{
		ShardID: "s0", SampleEvery: 1, QueueDepth: 4096,
	}, u.QualityOracle(), u.ClusterOccupancy, nil)
	t.Cleanup(quality.Close)

	costs := obs.NewCostTracker(8)
	s, err := NewServer(Config{K: 10, CacheSize: 64, Costs: costs, Quality: quality}, u)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, quality, costs, base
}

// TestShadowDoesNotInflateServingCounters runs the sampler at its
// hottest (every query shadowed) and pins the isolation contract: the
// upanns_serve_* counters, the /debug/costly ring, and the result cache
// must reflect exactly the live requests — shadow executions are
// invisible to every serving surface.
func TestShadowDoesNotInflateServingCounters(t *testing.T) {
	s, quality, costs, base := buildQualityServer(t)
	ctx := context.Background()

	const distinct = 20
	const repeats = 2
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < distinct; i++ {
			if _, err := s.Search(ctx, base.Row(i*31)); err != nil {
				t.Fatalf("search: %v", err)
			}
		}
	}
	if !quality.Drain(30 * time.Second) {
		t.Fatal("shadow queue did not drain")
	}

	const live = distinct * repeats
	st := s.Stats()
	if st.Requests != live {
		t.Fatalf("serve requests %d, want %d: shadow executions leaked into admission", st.Requests, live)
	}
	if st.Completed+st.CacheHits != live {
		t.Fatalf("served %d (completed %d + cache %d), want %d", st.Completed+st.CacheHits, st.Completed, st.CacheHits, live)
	}
	// The second pass repeats the first verbatim, so it must be answered
	// from the cache — and the cache-hit count must not include any
	// shadow re-execution of those same vectors.
	if st.CacheHits != distinct {
		t.Fatalf("cache hits %d, want %d", st.CacheHits, distinct)
	}
	if p := costs.Payload(); p.Queries != live {
		t.Fatalf("cost ring saw %d queries, want %d: shadow executions charged cost vectors", p.Queries, live)
	}

	// The plane itself must have seen every query — including the cache
	// hits, whose staleness is exactly what shadow sampling can catch.
	snap := quality.Snapshot()
	if snap.Sampled != live || snap.Executed != live {
		t.Fatalf("quality sampled %d executed %d, want %d each", snap.Sampled, snap.Executed, live)
	}
	if snap.Recall.Trials == 0 || snap.Recall.Estimate < 0.5 {
		t.Fatalf("implausible shadow recall: %+v", snap.Recall)
	}
}

// TestQualityEstimateBracketsTrueRecall pins the estimator's accuracy
// where it has to extrapolate: the deployment probes 2 of 16 clusters, so
// its true recall is below 1, and the plane head-samples one query in
// four. The population truth comes from exact oracle re-execution of the
// whole stream, and must sit inside the estimator's Wilson interval,
// widened by a small slack: the sampled subset's recall differs from the
// population's by more than the binomial term the interval models.
func TestQualityEstimateBracketsTrueRecall(t *testing.T) {
	const (
		dim         = 16
		k           = 10
		queries     = 200
		sampleEvery = 4
		slack       = 0.05
	)
	r := xrand.New(11)
	base := vecmath.NewMatrix(2000, dim)
	for i := range base.Data {
		base.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(base, ivfpq.Params{NList: 16, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)
	cfg := mutable.ServingConfig(2, k, 2, 1)
	cfg.CheckInterval = -1
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	quality := obs.NewQuality(obs.QualityConfig{
		ShardID: "s0", SampleEvery: sampleEvery, QueueDepth: 4096,
	}, u.QualityOracle(), u.ClusterOccupancy, nil)
	t.Cleanup(quality.Close)
	s, err := NewServer(Config{K: k, Quality: quality}, u)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Held-out queries: base rows would find themselves at distance ~0.
	qs := vecmath.NewMatrix(queries, dim)
	for i := range qs.Data {
		qs.Data[i] = float32(r.NormFloat64())
	}
	ctx := context.Background()
	hits := 0
	for qi := 0; qi < queries; qi++ {
		res, err := s.Search(ctx, qs.Row(qi))
		if err != nil {
			t.Fatalf("search %d: %v", qi, err)
		}
		truth, err := u.SearchOracle(qs.Row(qi), k, nil)
		if err != nil {
			t.Fatalf("oracle %d: %v", qi, err)
		}
		want := make(map[int64]bool, len(truth.Truth))
		for _, c := range truth.Truth {
			want[c.ID] = true
		}
		for _, c := range res {
			if want[c.ID] {
				hits++
			}
		}
	}
	if !quality.Drain(30 * time.Second) {
		t.Fatal("shadow queue did not drain")
	}

	trueRecall := float64(hits) / float64(queries*k)
	est := quality.Snapshot().Recall
	if est.Samples != queries/sampleEvery {
		t.Fatalf("estimator saw %d samples, want %d", est.Samples, queries/sampleEvery)
	}
	if trueRecall >= 1 {
		t.Fatalf("true recall %.4f: nprobe 2 of 16 should miss some neighbors, or the estimate never extrapolates", trueRecall)
	}
	if trueRecall < est.CILow-slack || trueRecall > est.CIHigh+slack {
		t.Fatalf("true recall %.4f outside estimator CI [%.4f, %.4f] (+/- %.2f slack); estimate %.4f",
			trueRecall, est.CILow, est.CIHigh, slack, est.Estimate)
	}
	t.Logf("true recall %.4f, estimate %.4f, CI [%.4f, %.4f] over %d samples",
		trueRecall, est.Estimate, est.CILow, est.CIHigh, est.Samples)
}

// TestShadowExcludedFromSLORequestWindows drives live traffic through a
// quality-enabled server whose SLO tracker owns both the request
// objectives and the quality objective: shadow samples must land only
// in the quality denominator, never in the request windows.
func TestShadowExcludedFromSLORequestWindows(t *testing.T) {
	const dim = 16
	r := xrand.New(5)
	base := vecmath.NewMatrix(1000, dim)
	for i := range base.Data {
		base.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(base, ivfpq.Params{NList: 8, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)
	cfg := mutable.ServingConfig(4, 10, 2, 1)
	cfg.CheckInterval = -1
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	slo := obs.NewSLOTracker(obs.SLOConfig{Name: "s0", QualityTarget: 0.9})
	quality := obs.NewQuality(obs.QualityConfig{ShardID: "s0", SampleEvery: 1, QueueDepth: 4096},
		u.QualityOracle(), u.ClusterOccupancy, slo)
	t.Cleanup(quality.Close)
	s, err := NewServer(Config{K: 10, Quality: quality}, u)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ctx := context.Background()
	const live = 30
	for i := 0; i < live; i++ {
		if _, err := s.Search(ctx, base.Row(i*17)); err != nil {
			t.Fatal(err)
		}
		// The HTTP handler records request outcomes; the server itself
		// does not, so mimic the handler's live-path record here.
		slo.Record(false, false, time.Millisecond)
	}
	if !quality.Drain(30 * time.Second) {
		t.Fatal("shadow queue did not drain")
	}

	snap := slo.Snapshot()
	if snap.Requests != live {
		t.Fatalf("SLO request window saw %d, want %d: shadow samples burned request budget", snap.Requests, live)
	}
	if snap.QualitySamples != live {
		t.Fatalf("quality denominator %d, want %d", snap.QualitySamples, live)
	}
}
