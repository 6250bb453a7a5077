package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// ServingPolicy is one serving-layer operating point of the QPS-vs-p99
// sweep.
type ServingPolicy struct {
	Name      string
	MaxBatch  int
	Linger    time.Duration
	CacheSize int
}

// ServingPolicies returns the sweep: no batching, two micro-batching
// settings, and micro-batching plus the result cache.
func ServingPolicies() []ServingPolicy {
	return []ServingPolicy{
		{Name: "batch=1 (no batching)", MaxBatch: 1},
		{Name: "batch=8 linger=200us", MaxBatch: 8, Linger: 200 * time.Microsecond},
		{Name: "batch=32 linger=500us", MaxBatch: 32, Linger: 500 * time.Microsecond},
		{Name: "batch=32 + cache", MaxBatch: 32, Linger: 500 * time.Microsecond, CacheSize: 256},
	}
}

// ServingPoint is one measured serving operating point.
type ServingPoint struct {
	Policy ServingPolicy
	QPS    float64
	Stats  serve.Stats
}

// Serving is the online-serving experiment: closed-loop clients issue
// Zipf-skewed single-query requests against the serving layer
// (internal/serve) fronting the engine, and each policy's sustained QPS
// and latency quantiles are measured end to end. It is the serving-tier
// restatement of Fig. 16: per-query cost falls with batched dispatch, so
// micro-batching lifts QPS while *reducing* tail latency under concurrent
// load (queue waits shrink faster than linger adds delay), and the LRU
// cache converts the Fig. 4a popularity skew into sub-engine-latency p50.
func (c *Context) Serving() (*Report, error) {
	points, err := c.ServingCurve(ServingPolicies())
	if err != nil {
		return nil, err
	}
	tracing, err := c.ServingTracingOverhead()
	if err != nil {
		return nil, err
	}
	obsPair, err := c.ServingObsOverhead()
	if err != nil {
		return nil, err
	}
	return servingReport(points, tracing, obsPair), nil
}

// ServingPointArtifact is one policy's machine-readable measurement.
type ServingPointArtifact struct {
	Name          string  `json:"name"`
	MaxBatch      int     `json:"max_batch"`
	CacheSize     int     `json:"cache_size"`
	QPS           float64 `json:"qps"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	HitRate       float64 `json:"cache_hit_rate"`
	P50           float64 `json:"p50_seconds"`
	P95           float64 `json:"p95_seconds"`
	P99           float64 `json:"p99_seconds"`
	Shed          uint64  `json:"shed"`
	Expired       uint64  `json:"expired"`
	BackendErrs   uint64  `json:"backend_errors"`
}

// ServingTracingArtifact is the tracing-overhead measurement: the same
// micro-batching policy driven twice under identical closed-loop load,
// once with tracing off (no trace in the request context, so every span
// call no-ops on a nil receiver) and once with every request traced into
// the retention rings.
type ServingTracingArtifact struct {
	P99OffSeconds  float64 `json:"p99_off_seconds"`
	P99OnSeconds   float64 `json:"p99_on_seconds"`
	MeanOffSeconds float64 `json:"mean_off_seconds"`
	MeanOnSeconds  float64 `json:"mean_on_seconds"`
	// OverheadPct is the relative mean-latency cost of tracing every
	// request, (on/off - 1) * 100. The budget is checked against the
	// mean rather than p99: p99 at smoke scale rides on a handful of
	// samples and is dominated by scheduler jitter, while the mean
	// averages hundreds of requests and isolates the tracing cost
	// itself. p99 is still reported for visibility.
	OverheadPct float64 `json:"mean_overhead_pct"`
}

// ServingObsArtifact is the health-plane overhead measurement: the
// batch=8 policy driven with the full observability plane off (no
// tracer, no SLO tracker, no cost tracker — every obs call no-ops on a
// nil receiver) and on (tracing, per-request SLO classification, and
// per-dispatch cost accounting all live), under identical closed-loop
// load. It is the evidence that the always-on health plane is free
// enough to deploy by default.
type ServingObsArtifact struct {
	P99OffSeconds  float64 `json:"p99_off_seconds"`
	P99OnSeconds   float64 `json:"p99_on_seconds"`
	MeanOffSeconds float64 `json:"mean_off_seconds"`
	MeanOnSeconds  float64 `json:"mean_on_seconds"`
	// OverheadPct is the relative mean-latency cost of the full plane,
	// (on/off - 1) * 100. Violations budgets both the mean and the p99.
	OverheadPct float64 `json:"mean_overhead_pct"`
}

// ServingArtifact is the serving sweep's machine-readable result
// (BENCH_serving.json); Violations makes it self-checking.
type ServingArtifact struct {
	Points  []ServingPointArtifact  `json:"points"`
	Tracing *ServingTracingArtifact `json:"tracing,omitempty"`
	Obs     *ServingObsArtifact     `json:"obs,omitempty"`
}

// Violations returns acceptance-shape regressions: the sweep must be
// lossless, every micro-batching policy must beat batch-1 dispatch on
// QPS, the batching frontier (best batched p99) must be equal-or-lower
// than batch-1's p99, and the cached policy must hit its cache and lift
// p50 over the uncached one. The frontier form keeps the tail check
// meaningful at smoke scale, where a single policy's p99 rides on a
// handful of samples.
func (a *ServingArtifact) Violations() []string {
	var v []string
	if len(a.Points) < 4 {
		return append(v, "serving: sweep incomplete")
	}
	for _, p := range a.Points {
		if p.Shed != 0 || p.Expired != 0 || p.BackendErrs != 0 {
			v = append(v, fmt.Sprintf("serving[%s]: lossy run (shed=%d expired=%d errs=%d)",
				p.Name, p.Shed, p.Expired, p.BackendErrs))
		}
	}
	base := a.Points[0]
	bestP99 := -1.0
	for _, p := range a.Points[1:] {
		if p.QPS <= base.QPS {
			v = append(v, fmt.Sprintf("serving: batch=%d QPS %.0f not above batch=1 QPS %.0f",
				p.MaxBatch, p.QPS, base.QPS))
		}
		if bestP99 < 0 || p.P99 < bestP99 {
			bestP99 = p.P99
		}
	}
	if bestP99 > base.P99 {
		v = append(v, fmt.Sprintf("serving: best batched p99 %.6fs worse than batch=1 p99 %.6fs",
			bestP99, base.P99))
	}
	uncached, cached := a.Points[len(a.Points)-2], a.Points[len(a.Points)-1]
	if cached.HitRate <= 0.1 {
		v = append(v, fmt.Sprintf("serving: cache hit rate %.2f too low for Zipf load", cached.HitRate))
	}
	if cached.P50 >= uncached.P50 {
		v = append(v, fmt.Sprintf("serving: cache did not reduce p50 (%.6fs vs %.6fs)", cached.P50, uncached.P50))
	}
	if a.Tracing != nil {
		// Tracing must cost under 5% of mean latency — that is the budget
		// that justifies tracing every request by default. The 500us
		// absolute term is the smoke-scale noise floor: per-request span
		// work costs single-digit microseconds, so a real tracing
		// regression shows up as milliseconds, while scheduler jitter on
		// a loaded host routinely moves a few-millisecond mean by a few
		// hundred microseconds. The relative bound dominates at
		// production-scale latencies.
		if limit := a.Tracing.MeanOffSeconds*1.05 + 500e-6; a.Tracing.MeanOnSeconds > limit {
			v = append(v, fmt.Sprintf("serving: tracing mean overhead %.1f%% (%.6fs -> %.6fs) exceeds the 5%% budget",
				a.Tracing.OverheadPct, a.Tracing.MeanOffSeconds, a.Tracing.MeanOnSeconds))
		}
	}
	if a.Obs != nil {
		// The full health plane gets the same 5% budget as tracing alone:
		// SLO classification is two atomic-free counter bumps under a
		// short lock, and cost accounting is one struct share per batch
		// plus an atomic floor check per request, so the plane should be
		// indistinguishable from the tracer it rides with. The absolute
		// terms are the smoke-scale noise floors (see the tracing budget
		// above); p99 gets a wider one because at smoke scale it rides on
		// a handful of samples.
		if limit := a.Obs.MeanOffSeconds*1.05 + 500e-6; a.Obs.MeanOnSeconds > limit {
			v = append(v, fmt.Sprintf("serving: obs mean overhead %.1f%% (%.6fs -> %.6fs) exceeds the 5%% budget",
				a.Obs.OverheadPct, a.Obs.MeanOffSeconds, a.Obs.MeanOnSeconds))
		}
		if limit := a.Obs.P99OffSeconds*1.05 + 2e-3; a.Obs.P99OnSeconds > limit {
			v = append(v, fmt.Sprintf("serving: obs p99 %.6fs -> %.6fs exceeds the 5%% budget",
				a.Obs.P99OffSeconds, a.Obs.P99OnSeconds))
		}
	}
	return v
}

// servingArtifact flattens measured points into the artifact form.
func servingArtifact(points []ServingPoint) *ServingArtifact {
	a := &ServingArtifact{}
	for _, pt := range points {
		a.Points = append(a.Points, ServingPointArtifact{
			Name:          pt.Policy.Name,
			MaxBatch:      pt.Policy.MaxBatch,
			CacheSize:     pt.Policy.CacheSize,
			QPS:           pt.QPS,
			MeanBatchSize: pt.Stats.MeanBatchSize,
			HitRate:       pt.Stats.HitRate(),
			P50:           pt.Stats.Latency.P50,
			P95:           pt.Stats.Latency.P95,
			P99:           pt.Stats.Latency.P99,
			Shed:          pt.Stats.Shed,
			Expired:       pt.Stats.Expired,
			BackendErrs:   pt.Stats.BackendErrs,
		})
	}
	return a
}

// servingReport renders measured serving points (and, when measured,
// the tracing- and obs-overhead pairs) as the experiment report.
func servingReport(points []ServingPoint, tracing *ServingTracingArtifact, obsPair *ServingObsArtifact) *Report {
	art := servingArtifact(points)
	art.Tracing = tracing
	art.Obs = obsPair
	rep := &Report{
		ID:       "serving",
		Title:    "Online serving: micro-batching and caching vs QPS and tail latency",
		Artifact: art,
	}
	t := metrics.NewTable(
		fmt.Sprintf("Serving sweep (%s, %d closed-loop clients, Zipf query popularity)",
			dataset.SIFT1B.Name, servingClients),
		"policy", "QPS", "mean batch", "coalesced", "hit rate", "p50", "p95", "p99", "shed")
	for _, pt := range points {
		t.AddRow(pt.Policy.Name,
			metrics.F(pt.QPS),
			metrics.F(pt.Stats.MeanBatchSize),
			fmt.Sprintf("%d", pt.Stats.Coalesced),
			metrics.Pct(pt.Stats.HitRate()),
			metrics.Seconds(pt.Stats.Latency.P50),
			metrics.Seconds(pt.Stats.Latency.P95),
			metrics.Seconds(pt.Stats.Latency.P99),
			fmt.Sprintf("%d", pt.Stats.Shed))
	}
	rep.Tables = append(rep.Tables, t)

	base, batched, cached := points[0], points[1], points[len(points)-1]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("micro-batching (batch=8) vs none: %.2fx QPS, p99 %s -> %s",
			batched.QPS/base.QPS,
			metrics.Seconds(base.Stats.Latency.P99), metrics.Seconds(batched.Stats.Latency.P99)),
		fmt.Sprintf("result cache under Zipf load: hit rate %s, p50 %s -> %s",
			metrics.Pct(cached.Stats.HitRate()),
			metrics.Seconds(points[len(points)-2].Stats.Latency.P50),
			metrics.Seconds(cached.Stats.Latency.P50)),
		"expected shape: batch >= 8 strictly above batch=1 QPS at equal-or-lower p99; cache cuts p50 further")
	if tracing != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"tracing every request: mean %s (off) -> %s (on), %.1f%% overhead (budget 5%%); p99 %s -> %s",
			metrics.Seconds(tracing.MeanOffSeconds), metrics.Seconds(tracing.MeanOnSeconds),
			tracing.OverheadPct,
			metrics.Seconds(tracing.P99OffSeconds), metrics.Seconds(tracing.P99OnSeconds)))
	}
	if obsPair != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"full health plane (tracer + SLO + cost): mean %s (off) -> %s (on), %.1f%% overhead (budget 5%%); p99 %s -> %s",
			metrics.Seconds(obsPair.MeanOffSeconds), metrics.Seconds(obsPair.MeanOnSeconds),
			obsPair.OverheadPct,
			metrics.Seconds(obsPair.P99OffSeconds), metrics.Seconds(obsPair.P99OnSeconds)))
	}
	return rep
}

// servingClients is the closed-loop client count; enough concurrency to
// fill micro-batches without oversubscribing small CI machines.
const servingClients = 16

// ServingCurve measures every policy on the harness' default engine and
// returns the raw points (the Serving experiment renders them; tests
// assert on them directly).
func (c *Context) ServingCurve(policies []ServingPolicy) ([]ServingPoint, error) {
	s := c.getSetup(dataset.SIFT1B, c.O.IVFGrid[0])
	nprobe := c.O.NProbeGrid[0]
	cfg := c.upannsConfig(nprobe)
	e, err := c.getEngine(s, cfg, buildKey(cfg), c.O.DPUs)
	if err != nil {
		return nil, err
	}

	total := 10 * c.O.Queries
	if total < 400 {
		total = 400
	}
	perClient := (total + servingClients - 1) / servingClients

	// Two interleaved sweep rounds, keeping each policy's higher-QPS
	// point: the acceptance shape compares policies against each other,
	// and a noise burst on a shared host that hits a single policy's
	// only run would invert a comparison the code did not. Round-robin
	// order (full sweep, then full sweep again) spreads any load ramp
	// across all policies instead of concentrating it on the last one.
	// One round under the race detector, where runs cost multiples and
	// only structural shapes are asserted.
	rounds := 2
	if raceEnabled {
		rounds = 1
	}
	points := make([]ServingPoint, len(policies))
	for round := 0; round < rounds; round++ {
		for i, p := range policies {
			pt, err := c.runServingPolicy(e, s.queries, p, perClient, servingObs{})
			if err != nil {
				return nil, fmt.Errorf("serving policy %q: %w", p.Name, err)
			}
			if round == 0 || pt.QPS > points[i].QPS {
				points[i] = pt
			}
		}
	}
	return points, nil
}

// ServingTracingOverhead measures the cost of tracing every request: the
// batch=8 policy driven twice under identical closed-loop load, spans
// off then spans on (a full tracer — head sampling 1, retention rings
// live — so every request pays span allocation, stage recording, and the
// ring push). The artifact's Violations pins the mean overhead under 5%.
func (c *Context) ServingTracingOverhead() (*ServingTracingArtifact, error) {
	p := ServingPolicy{Name: "batch=8 (tracing pair)", MaxBatch: 8, Linger: 200 * time.Microsecond}
	meanOff, meanOn, p99Off, p99On, err := c.servingOverheadPair(p, "tracing", func() servingObs {
		return servingObs{tracer: obs.NewTracer(obs.TracerConfig{})}
	})
	if err != nil {
		return nil, err
	}
	return &ServingTracingArtifact{
		MeanOffSeconds: meanOff, MeanOnSeconds: meanOn,
		P99OffSeconds: p99Off, P99OnSeconds: p99On,
		OverheadPct: (meanOn/meanOff - 1) * 100,
	}, nil
}

// ServingObsOverhead measures the cost of the whole health plane: the
// batch=8 policy driven with everything off, then with a live tracer,
// an SLO tracker classifying every request, and a cost tracker fed by
// every dispatch — the full always-on configuration of a production
// shard. The artifact's Violations pins mean and p99 overhead under 5%.
func (c *Context) ServingObsOverhead() (*ServingObsArtifact, error) {
	p := ServingPolicy{Name: "batch=8 (obs pair)", MaxBatch: 8, Linger: 200 * time.Microsecond}
	meanOff, meanOn, p99Off, p99On, err := c.servingOverheadPair(p, "obs", func() servingObs {
		return servingObs{
			tracer: obs.NewTracer(obs.TracerConfig{}),
			slo:    obs.NewSLOTracker(obs.SLOConfig{Name: "bench"}),
			costs:  obs.NewCostTracker(0),
		}
	})
	if err != nil {
		return nil, err
	}
	return &ServingObsArtifact{
		MeanOffSeconds: meanOff, MeanOnSeconds: meanOn,
		P99OffSeconds: p99Off, P99OnSeconds: p99On,
		OverheadPct: (meanOn/meanOff - 1) * 100,
	}, nil
}

// servingOverheadPair drives policy p under identical closed-loop load
// with instrumentation off and on (a fresh `on` configuration per rep,
// so retention rings never carry over) and returns the best means and
// p99s of each side. Off/on passes interleave and each side keeps its
// best (lowest) numbers: on a shared host a noisy phase hitting only
// one side would swamp the 5% budget these pairs are checked against,
// and the within-round order alternates (off/on, then on/off) so a
// monotone load ramp penalizes both sides equally instead of whichever
// runs second. Best-of keeps the ratio a property of the code rather
// than of the machine's moment. Under the race detector one round
// suffices: the run only feeds structural checks there, and every
// extra round costs seconds of instrumented serving.
func (c *Context) servingOverheadPair(p ServingPolicy, label string, on func() servingObs) (meanOff, meanOn, p99Off, p99On float64, err error) {
	s := c.getSetup(dataset.SIFT1B, c.O.IVFGrid[0])
	cfg := c.upannsConfig(c.O.NProbeGrid[0])
	e, err := c.getEngine(s, cfg, buildKey(cfg), c.O.DPUs)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	total := 10 * c.O.Queries
	if total < 400 {
		total = 400
	}
	perClient := (total + servingClients - 1) / servingClients

	reps := 5
	if raceEnabled {
		reps = 1
	}
	meanOff, meanOn, p99Off, p99On = -1, -1, -1, -1
	run := func(o servingObs, mean, p99 *float64) error {
		pt, err := c.runServingPolicy(e, s.queries, p, perClient, o)
		if err != nil {
			return fmt.Errorf("serving %s pair run: %w", label, err)
		}
		if *mean < 0 || pt.Stats.Latency.Mean < *mean {
			*mean = pt.Stats.Latency.Mean
		}
		if *p99 < 0 || pt.Stats.Latency.P99 < *p99 {
			*p99 = pt.Stats.Latency.P99
		}
		return nil
	}
	runOff := func() error { return run(servingObs{}, &meanOff, &p99Off) }
	runOn := func() error { return run(on(), &meanOn, &p99On) }
	for i := 0; i < reps; i++ {
		first, second := runOff, runOn
		if i%2 == 1 {
			first, second = runOn, runOff
		}
		if err := first(); err != nil {
			return 0, 0, 0, 0, err
		}
		if err := second(); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	return meanOff, meanOn, p99Off, p99On, nil
}

// servingObs is one side of an instrumentation overhead pair: which
// parts of the observability plane a serving run wires in. The zero
// value is the fully-off baseline — every obs call no-ops on a nil
// receiver.
type servingObs struct {
	tracer *obs.Tracer
	slo    *obs.SLOTracker
	costs  *obs.CostTracker
}

// runServingPolicy drives one policy with closed-loop Zipfian clients
// and returns the measured point. o selects the instrumentation: a
// non-nil tracer traces every request (span instrumentation active
// through the whole serve path plus ring retention), a non-nil SLO
// tracker classifies every completion the way the HTTP handler does,
// and a non-nil cost tracker makes every dispatch account its cost
// vector.
func (c *Context) runServingPolicy(e *core.Engine, pool *vecmath.Matrix, p ServingPolicy, perClient int, o servingObs) (ServingPoint, error) {
	srv, err := serve.NewServer(serve.Config{
		K:              c.O.K,
		MaxBatch:       p.MaxBatch,
		MaxLinger:      p.Linger,
		QueueDepth:     4096,
		DefaultTimeout: 60 * time.Second,
		CacheSize:      p.CacheSize,
		Costs:          o.costs,
	}, &serve.FuncBackend{D: e.Index.Dim, Fn: func(q *vecmath.Matrix, _ int) ([][]topk.Candidate, error) {
		br, err := e.SearchBatch(q) // the engine is built at the served K
		if err != nil {
			return nil, err
		}
		return br.Results, nil
	}})
	if err != nil {
		return ServingPoint{}, err
	}

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	start := time.Now()
	for w := 0; w < servingClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Zipf exponent ~1 matches the access-skew regime of Fig. 4a;
			// per-client seeds decorrelate the streams.
			stream := workload.NewQueryStream(pool, 1.0, c.O.Seed+uint64(w)*7919)
			for i := 0; i < perClient; i++ {
				tr := o.tracer.Start("serve.request")
				reqStart := time.Now()
				_, err := srv.Search(obs.WithTrace(context.Background(), tr), stream.Next())
				o.tracer.Finish(tr, err)
				o.slo.Record(err != nil, false, time.Since(reqStart))
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	srv.Close()
	if firstErr != nil {
		return ServingPoint{}, firstErr
	}
	st := srv.Stats()
	return ServingPoint{
		Policy: p,
		QPS:    float64(st.Completed+st.CacheHits) / elapsed,
		Stats:  st,
	}, nil
}
