package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The quality experiment validates the online search-quality plane
// (internal/obs shadow-oracle sampling) on two axes:
//
//   - estimator accuracy: the plane head-samples a strict subset of a
//     query stream and must land its Wilson interval on the deployment's
//     true recall, measured offline by exact oracle re-execution of the
//     *full* stream;
//   - sampling overhead: the serving path with the plane live at its
//     production sampling rate must stay within 3% of the plane-off
//     mean and p99 latency under identical closed-loop load — shadow
//     executions run off the hot path, so their only permitted cost is
//     one atomic on the request path plus background CPU contention.

// qualitySampleEvery is the head-sampling rate of the accuracy phase: a
// strict subset, so the estimate is a genuine extrapolation rather than
// a restatement of the measured population.
const qualitySampleEvery = 4

// qualityOverheadSampleEvery is the production default sampling rate
// (-quality-sample's documented operating point) used by the overhead
// pair.
const qualityOverheadSampleEvery = 64

// QualityAccuracyArtifact is the estimator-vs-truth measurement.
type QualityAccuracyArtifact struct {
	Queries     int     `json:"queries"`
	SampleEvery int     `json:"sample_every"`
	Samples     int64   `json:"samples"`
	TrueRecall  float64 `json:"true_recall"`
	Estimate    float64 `json:"estimate"`
	CILow       float64 `json:"ci_low"`
	CIHigh      float64 `json:"ci_high"`
}

// QualityOverheadArtifact is the plane-off/plane-on latency pair.
type QualityOverheadArtifact struct {
	SampleEvery    int     `json:"sample_every"`
	MeanOffSeconds float64 `json:"mean_off_seconds"`
	MeanOnSeconds  float64 `json:"mean_on_seconds"`
	P99OffSeconds  float64 `json:"p99_off_seconds"`
	P99OnSeconds   float64 `json:"p99_on_seconds"`
	// OverheadPct is the relative mean-latency cost of the live plane,
	// (on/off - 1) * 100.
	OverheadPct float64 `json:"mean_overhead_pct"`
	// Shadowed is the number of shadow executions the on-side's best run
	// performed (evidence the measured side actually sampled).
	Shadowed uint64 `json:"shadowed"`
}

// QualityArtifact is the experiment's machine-readable result
// (BENCH_quality.json); Violations makes it self-checking.
type QualityArtifact struct {
	Accuracy *QualityAccuracyArtifact `json:"accuracy"`
	Overhead *QualityOverheadArtifact `json:"overhead"`
}

// Violations returns the acceptance-shape regressions this run exhibits
// (empty = healthy): the true recall must sit inside the estimator's
// Wilson interval (widened by a smoke-scale slack — at tiny sample
// counts the subset-vs-population recall gap has its own variance on
// top of the binomial term the interval models), and the plane must
// cost under 3% of mean and p99 latency. The absolute terms are the
// smoke-scale noise floors: the hot-path cost is one atomic add per
// request, so a real regression shows up as milliseconds, while
// scheduler jitter on a loaded host routinely moves a few-millisecond
// mean by a few hundred microseconds.
func (a *QualityArtifact) Violations() []string {
	var v []string
	if a.Accuracy == nil || a.Overhead == nil {
		return append(v, "quality: incomplete run")
	}
	acc := a.Accuracy
	if acc.Samples == 0 {
		v = append(v, "quality: estimator saw no samples")
	} else {
		const slack = 0.05
		if acc.TrueRecall < acc.CILow-slack || acc.TrueRecall > acc.CIHigh+slack {
			v = append(v, fmt.Sprintf("quality: true recall %.4f outside estimator CI [%.4f, %.4f] (+/- %.2f slack)",
				acc.TrueRecall, acc.CILow, acc.CIHigh, slack))
		}
	}
	o := a.Overhead
	if o.Shadowed == 0 {
		v = append(v, "quality: overhead on-side performed no shadow executions")
	}
	if limit := o.MeanOffSeconds*1.03 + 500e-6; o.MeanOnSeconds > limit {
		v = append(v, fmt.Sprintf("quality: sampling mean overhead %.1f%% (%.6fs -> %.6fs) exceeds the 3%% budget",
			o.OverheadPct, o.MeanOffSeconds, o.MeanOnSeconds))
	}
	if limit := o.P99OffSeconds*1.03 + 2e-3; o.P99OnSeconds > limit {
		v = append(v, fmt.Sprintf("quality: sampling p99 %.6fs -> %.6fs exceeds the 3%% budget",
			o.P99OffSeconds, o.P99OnSeconds))
	}
	return v
}

// Quality runs the experiment and renders the report.
func (c *Context) Quality() (*Report, error) {
	art, err := c.QualityRun()
	if err != nil {
		return nil, err
	}
	return qualityReport(art), nil
}

// QualityRun executes both phases and returns the raw artifact (tests
// assert on it directly; Quality renders it).
func (c *Context) QualityRun() (*QualityArtifact, error) {
	s := c.getSetup(dataset.SIFT1B, c.O.IVFGrid[0])
	nprobe := c.O.NProbeGrid[0]
	k := c.O.K

	// A private index build: the quality phases must not share mutable
	// state with experiments that churn the cached setup's index.
	ix := s.ix.CloneStructure()
	ix.Add(s.ds.Vectors, 0)
	mcfg := mutable.ServingConfig(nprobe, k, c.O.DPUs, c.O.Seed)
	mcfg.CheckInterval = -1
	u, err := mutable.New(ix, s.freqs, mcfg)
	if err != nil {
		return nil, err
	}
	defer u.Close()

	acc, err := c.qualityAccuracy(u, s, k)
	if err != nil {
		return nil, err
	}
	over, err := c.qualityOverheadPair(u, s, k)
	if err != nil {
		return nil, err
	}
	return &QualityArtifact{Accuracy: acc, Overhead: over}, nil
}

// qualityAccuracy drives every harness query through a quality-enabled
// server (head-sampling one in qualitySampleEvery), then re-executes
// the whole stream against the exact oracle offline to score the
// estimator against the population truth it extrapolates.
func (c *Context) qualityAccuracy(u *mutable.UpdatableIndex, s *setup, k int) (*QualityAccuracyArtifact, error) {
	quality := obs.NewQuality(obs.QualityConfig{
		ShardID: "bench", SampleEvery: qualitySampleEvery, QueueDepth: 4096,
	}, u.QualityOracle(), u.ClusterOccupancy, nil)
	defer quality.Close()
	srv, err := serve.NewServer(serve.Config{K: k, Quality: quality}, u)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	ctx := context.Background()
	live := make([][]int64, s.queries.Rows)
	for qi := 0; qi < s.queries.Rows; qi++ {
		res, err := srv.Search(ctx, s.queries.Row(qi))
		if err != nil {
			return nil, err
		}
		ids := make([]int64, len(res))
		for i, cand := range res {
			ids[i] = cand.ID
		}
		live[qi] = ids
	}
	if !quality.Drain(60 * time.Second) {
		return nil, fmt.Errorf("quality: shadow queue did not drain")
	}

	// Population truth: exact oracle re-execution of every query, same
	// matching rule as the estimator (|live ∩ truth| / k).
	total := 0.0
	for qi, ids := range live {
		res, err := u.SearchOracle(s.queries.Row(qi), k, nil)
		if err != nil {
			return nil, err
		}
		truth := make(map[int64]bool, len(res.Truth))
		for _, cand := range res.Truth {
			truth[cand.ID] = true
		}
		hit := 0
		for _, id := range ids {
			if truth[id] {
				hit++
			}
		}
		total += float64(hit) / float64(k)
	}

	snap := quality.Snapshot()
	return &QualityAccuracyArtifact{
		Queries:     s.queries.Rows,
		SampleEvery: qualitySampleEvery,
		Samples:     snap.Recall.Samples,
		TrueRecall:  total / float64(s.queries.Rows),
		Estimate:    snap.Recall.Estimate,
		CILow:       snap.Recall.CILow,
		CIHigh:      snap.Recall.CIHigh,
	}, nil
}

// qualityOverheadPair drives the batch=8 serving policy over the
// mutable deployment under identical closed-loop load with the quality
// plane off and on (production sampling rate, fresh plane per on-rep so
// estimator state never carries over). Off/on passes interleave with
// alternating within-round order and each side keeps its best (lowest)
// numbers — the same noise discipline as servingOverheadPair, and for
// the same reason: the 3% budget is a property of the code, not of the
// machine's moment.
func (c *Context) qualityOverheadPair(u *mutable.UpdatableIndex, s *setup, k int) (*QualityOverheadArtifact, error) {
	total := 10 * c.O.Queries
	if total < 400 {
		total = 400
	}
	perClient := (total + servingClients - 1) / servingClients

	reps := 5
	if raceEnabled {
		reps = 1
	}
	meanOff, meanOn, p99Off, p99On := -1.0, -1.0, -1.0, -1.0
	var shadowed uint64
	run := func(on bool, mean, p99 *float64) error {
		var quality *obs.Quality
		if on {
			quality = obs.NewQuality(obs.QualityConfig{
				ShardID: "bench", SampleEvery: qualityOverheadSampleEvery, QueueDepth: 1024,
			}, u.QualityOracle(), u.ClusterOccupancy, nil)
		}
		srv, err := serve.NewServer(serve.Config{
			K:              k,
			MaxBatch:       8,
			QueueDepth:     4096,
			DefaultTimeout: 60 * time.Second,
			Quality:        quality,
		}, u)
		if err != nil {
			quality.Close()
			return err
		}

		var wg sync.WaitGroup
		var errMu sync.Mutex
		var firstErr error
		for w := 0; w < servingClients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				stream := workload.NewQueryStream(s.queries, 1.0, c.O.Seed+uint64(w)*7919)
				for i := 0; i < perClient; i++ {
					if _, err := srv.Search(context.Background(), stream.Next()); err != nil {
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
		srv.Close()
		if quality != nil {
			if !quality.Drain(30 * time.Second) {
				quality.Close()
				return fmt.Errorf("quality: overhead run shadow queue did not drain")
			}
			snap := quality.Snapshot()
			quality.Close()
			if snap.Executed > shadowed {
				shadowed = snap.Executed
			}
		}
		if firstErr != nil {
			return firstErr
		}
		st := srv.Stats()
		if *mean < 0 || st.Latency.Mean < *mean {
			*mean = st.Latency.Mean
		}
		if *p99 < 0 || st.Latency.P99 < *p99 {
			*p99 = st.Latency.P99
		}
		return nil
	}
	runOff := func() error { return run(false, &meanOff, &p99Off) }
	runOn := func() error { return run(true, &meanOn, &p99On) }
	for i := 0; i < reps; i++ {
		first, second := runOff, runOn
		if i%2 == 1 {
			first, second = runOn, runOff
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
	}
	return &QualityOverheadArtifact{
		SampleEvery:    qualityOverheadSampleEvery,
		MeanOffSeconds: meanOff, MeanOnSeconds: meanOn,
		P99OffSeconds: p99Off, P99OnSeconds: p99On,
		OverheadPct: (meanOn/meanOff - 1) * 100,
		Shadowed:    shadowed,
	}, nil
}

// qualityReport renders the artifact as the experiment report.
func qualityReport(a *QualityArtifact) *Report {
	rep := &Report{
		ID:       "quality",
		Title:    "Search-quality plane: shadow-estimator accuracy and sampling overhead",
		Artifact: a,
	}
	acc, o := a.Accuracy, a.Overhead
	t := metrics.NewTable(
		fmt.Sprintf("Shadow-oracle estimator (%s, 1-in-%d head sampling)", dataset.SIFT1B.Name, acc.SampleEvery),
		"queries", "samples", "true recall", "estimate", "CI low", "CI high")
	t.AddRow(
		fmt.Sprintf("%d", acc.Queries),
		fmt.Sprintf("%d", acc.Samples),
		fmt.Sprintf("%.4f", acc.TrueRecall),
		fmt.Sprintf("%.4f", acc.Estimate),
		fmt.Sprintf("%.4f", acc.CILow),
		fmt.Sprintf("%.4f", acc.CIHigh))
	rep.Tables = append(rep.Tables, t)

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("estimator vs population truth: estimate %.4f (CI [%.4f, %.4f]) vs true %.4f from exact re-execution of the full stream",
			acc.Estimate, acc.CILow, acc.CIHigh, acc.TrueRecall),
		fmt.Sprintf("sampling overhead at 1-in-%d (%d shadows): mean %s (off) -> %s (on), %.1f%% (budget 3%%); p99 %s -> %s",
			o.SampleEvery, o.Shadowed,
			metrics.Seconds(o.MeanOffSeconds), metrics.Seconds(o.MeanOnSeconds), o.OverheadPct,
			metrics.Seconds(o.P99OffSeconds), metrics.Seconds(o.P99OnSeconds)),
		"expected shape: true recall inside the Wilson interval; plane-on mean and p99 within 3% of plane-off")
	for _, v := range a.Violations() {
		rep.Notes = append(rep.Notes, "VIOLATION: "+v)
	}
	return rep
}
