package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fixedOracle returns the same truth for every sample — the simplest
// ground truth for estimator goldens.
func fixedOracle(truth QualityTruth) QualityOracle {
	return func(QualitySample) (QualityTruth, error) { return truth, nil }
}

// ids returns [lo, lo+n) as an id slice.
func ids(lo int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// submitAll pushes n copies of s through the plane and waits for the
// shadow worker to drain them.
func submitAll(t *testing.T, q *Quality, s QualitySample, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if q.ShouldSample() {
			q.Submit(s)
		}
	}
	if !q.Drain(5 * time.Second) {
		t.Fatalf("shadow queue did not drain")
	}
}

// Wilson golden values, precomputed independently: the interval must
// match the closed form, stay inside [0,1], and degrade to (0,1) with
// no trials.
func TestWilsonIntervalGolden(t *testing.T) {
	cases := []struct {
		successes, trials int64
		lo, hi            float64
	}{
		{8, 10, 0.49016, 0.94332},     // p=0.8, n=10
		{10, 10, 0.72246, 1.0},        // p=1 pins hi at 1, lo well below
		{0, 10, 0.0, 0.27754},         // p=0 mirrors it
		{50, 100, 0.40383, 0.59617},   // p=0.5, n=100: symmetric
		{95, 100, 0.88825, 0.97846},   // the quality plane's typical regime
		{950, 1000, 0.93469, 0.96187}, // and at 10x the samples, tighter
	}
	for _, c := range cases {
		lo, hi := WilsonInterval(c.successes, c.trials, 1.96)
		if math.Abs(lo-c.lo) > 1e-4 || math.Abs(hi-c.hi) > 1e-4 {
			t.Errorf("Wilson(%d/%d) = (%.5f, %.5f), want (%.5f, %.5f)",
				c.successes, c.trials, lo, hi, c.lo, c.hi)
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("Wilson(%d/%d) = (%.5f, %.5f) leaves [0,1] or inverts", c.successes, c.trials, lo, hi)
		}
		if p := float64(c.successes) / float64(c.trials); p < lo || p > hi {
			t.Errorf("Wilson(%d/%d) = (%v, %v) excludes its own point estimate %v", c.successes, c.trials, lo, hi, p)
		}
	}
	if lo, hi := WilsonInterval(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("no trials: got (%v, %v), want (0, 1)", lo, hi)
	}
}

// A stream with known true recall: every live answer matches exactly 8
// of the 10 truth ids, so the estimator must converge to exactly 0.8
// with the true value inside the CI, and the CI must tighten as samples
// accumulate.
func TestQualityEstimatorKnownRecall(t *testing.T) {
	q := NewQuality(QualityConfig{SampleEvery: 1, QueueDepth: 4096},
		fixedOracle(QualityTruth{Truth: ids(0, 10), NProbe: 8, Cluster: -1, Selectivity: 1}), nil, nil)
	defer q.Close()

	live := append(ids(0, 8), 100, 101) // 8 of 10 truth ids
	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: live}, 50)
	snap := q.Snapshot()
	if snap.Recall.Samples != 50 || snap.Recall.Trials != 500 || snap.Recall.Matched != 400 {
		t.Fatalf("estimator counts: %+v", snap.Recall)
	}
	if snap.Recall.Estimate != 0.8 {
		t.Fatalf("estimate %v, want exactly 0.8", snap.Recall.Estimate)
	}
	if snap.Recall.CILow > 0.8 || snap.Recall.CIHigh < 0.8 {
		t.Fatalf("true recall 0.8 outside CI [%v, %v]", snap.Recall.CILow, snap.Recall.CIHigh)
	}
	wide := snap.Recall.CIHigh - snap.Recall.CILow

	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: live}, 450)
	snap = q.Snapshot()
	if narrow := snap.Recall.CIHigh - snap.Recall.CILow; narrow >= wide {
		t.Fatalf("CI did not tighten: %v samples -> %v, was %v", snap.Recall.Samples, narrow, wide)
	}
	if snap.Recall.Estimate != 0.8 {
		t.Fatalf("estimate drifted to %v", snap.Recall.Estimate)
	}
}

// Slice accounting: unfiltered traffic, 1%-selectivity filtered
// traffic, and a tagged tenant land in distinct slices with the
// documented bucket labels, each carrying its own estimate.
func TestQualitySliceBucketing(t *testing.T) {
	sel := atomic.Int64{} // permille selectivity the oracle reports next
	oracle := func(s QualitySample) (QualityTruth, error) {
		return QualityTruth{Truth: ids(0, 10), NProbe: 8, Cluster: -1,
			Selectivity: float64(sel.Load()) / 1000}, nil
	}
	q := NewQuality(QualityConfig{SampleEvery: 1, QueueDepth: 4096}, oracle, nil, nil)
	defer q.Close()

	perfect := ids(0, 10)
	sel.Store(1000)
	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: perfect}, 4)
	sel.Store(10) // 1% selectivity
	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: perfect, FilterID: "tenant = 7"}, 3)
	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: append(ids(0, 5), ids(100, 5)...),
		FilterID: "tenant = 7", Tenant: "t7"}, 2)

	snap := q.Snapshot()
	got := map[string]QualitySlice{}
	for _, s := range snap.Slices {
		got[s.Bucket+"/"+s.Tenant] = s
	}
	if len(got) != 3 {
		t.Fatalf("slices: %+v", snap.Slices)
	}
	if s := got["unfiltered/"]; s.Samples != 4 || s.Estimate != 1 || s.NProbe != 8 {
		t.Fatalf("unfiltered slice: %+v", s)
	}
	if s := got["<=0.01/"]; s.Samples != 3 || s.Estimate != 1 {
		t.Fatalf("1%%-selectivity slice: %+v", s)
	}
	if s := got["<=0.01/t7"]; s.Samples != 2 || s.Estimate != 0.5 {
		t.Fatalf("tenant slice: %+v", s)
	}
}

// Head sampling: SampleEvery=4 selects a quarter of the traffic, and
// the skipped three quarters cost nothing downstream.
func TestQualityHeadSampling(t *testing.T) {
	q := NewQuality(QualityConfig{SampleEvery: 4, QueueDepth: 4096},
		fixedOracle(QualityTruth{Truth: ids(0, 10), Cluster: -1, Selectivity: 1}), nil, nil)
	defer q.Close()
	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: ids(0, 10)}, 400)
	snap := q.Snapshot()
	if snap.Sampled != 100 || snap.Executed != 100 {
		t.Fatalf("sampled %d executed %d, want 100 each", snap.Sampled, snap.Executed)
	}
}

// Drift detection: traffic matching occupancy keeps the detector quiet;
// traffic collapsing onto one centroid pages; re-uniformized traffic
// clears with hysteresis — and both transitions land in the flight
// recorder.
func TestQualityDriftPageAndClear(t *testing.T) {
	const shardID = "drift-test-shard"
	clusters := make(chan int, 4096) // assignment the oracle reports next
	oracle := func(QualitySample) (QualityTruth, error) {
		return QualityTruth{Truth: ids(0, 10), NProbe: 8, Cluster: <-clusters, Selectivity: 1}, nil
	}
	occ := func() []float64 { return []float64{25, 25, 25, 25} }
	q := NewQuality(QualityConfig{
		ShardID: shardID, SampleEvery: 1, QueueDepth: 4096,
		DriftWindow: 64, DriftMinSamples: 32, DriftThreshold: 0.3,
	}, oracle, occ, nil)
	defer q.Close()

	feed := func(n int, pick func(i int) int) {
		t.Helper()
		for i := 0; i < n; i++ {
			clusters <- pick(i)
		}
		submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: ids(0, 10)}, n)
	}

	feed(64, func(i int) int { return i % 4 }) // warm: matches occupancy
	if snap := q.Snapshot(); snap.Drift.Paged || snap.State != SLOOk {
		t.Fatalf("uniform traffic tripped drift: %+v", snap.Drift)
	}

	feed(256, func(int) int { return 0 }) // collapse onto centroid 0
	snap := q.Snapshot()
	if !snap.Drift.Paged || snap.State != SLOPage {
		t.Fatalf("drifted traffic did not page: %+v", snap.Drift)
	}
	if snap.Drift.KL <= snap.Drift.Baseline+0.3 {
		t.Fatalf("paged without KL excess: %+v", snap.Drift)
	}

	feed(1024, func(i int) int { return i % 4 }) // traffic re-uniformizes
	snap = q.Snapshot()
	if snap.Drift.Paged || snap.State != SLOOk {
		t.Fatalf("drift page did not clear: %+v", snap.Drift)
	}

	var page, clear bool
	for _, ev := range Flight.Events() {
		if ev.Kind == "quality_page" && ev.Attrs["shard"] == shardID {
			switch ev.Attrs["transition"] {
			case "page":
				page = true
				if ev.Attrs["reason"] != "drift" {
					t.Fatalf("page reason %q, want drift", ev.Attrs["reason"])
				}
			case "clear":
				clear = true
			}
		}
	}
	if !page || !clear {
		t.Fatalf("flight record missing quality_page transitions (page=%v clear=%v)", page, clear)
	}
}

// The SLO quality objective: low-recall shadow samples burn its budget
// through the burn-rate engine (fake clock), and compliant samples keep
// it ok. Target 0.95 makes an all-bad stream burn 20x — past the page
// threshold in both windows.
func TestQualityFeedsSLOObjective(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", QualityTarget: 0.95, Now: clk.Now})
	q := NewQuality(QualityConfig{SampleEvery: 1, QueueDepth: 4096, RecallTarget: 0.9},
		fixedOracle(QualityTruth{Truth: ids(0, 10), Cluster: -1, Selectivity: 1}), nil, tr)
	defer q.Close()

	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: ids(0, 10)}, 100)
	if o := objective(t, tr.Snapshot(), "quality"); o.State != SLOOk || o.FastBad != 0 {
		t.Fatalf("compliant shadow stream burned quality budget: %+v", o)
	}

	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: ids(500, 10)}, 400)
	snap := tr.Snapshot()
	o := objective(t, snap, "quality")
	if o.State != SLOPage {
		t.Fatalf("all-miss shadow stream did not page the quality objective: %+v", o)
	}
	if snap.QualitySamples != 500 || snap.QualityBad != 400 {
		t.Fatalf("quality denominators: %+v", snap)
	}
	// The quality objective has its own denominator: shadow samples must
	// not have touched the request-plane objectives.
	if snap.Requests != 0 {
		t.Fatalf("shadow samples leaked into the request windows: %d requests", snap.Requests)
	}
	if q.Snapshot().State != SLOPage {
		t.Fatalf("plane state %q does not reflect the paging objective", q.Snapshot().State)
	}
}

// Oracle failures are counted, not fatal, and do not move the
// estimator.
func TestQualityOracleErrors(t *testing.T) {
	q := NewQuality(QualityConfig{SampleEvery: 1, QueueDepth: 64},
		func(QualitySample) (QualityTruth, error) { return QualityTruth{}, fmt.Errorf("oracle down") },
		nil, nil)
	defer q.Close()
	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: ids(0, 10)}, 10)
	snap := q.Snapshot()
	if snap.Errors != 10 || snap.Recall.Samples != 0 {
		t.Fatalf("errored executions: %+v", snap)
	}
}

// Nil and closed planes are inert: the serving layer never needs a
// quality-enabled check.
func TestQualityNilAndClosed(t *testing.T) {
	var q *Quality
	if q.ShouldSample() {
		t.Fatal("nil plane sampled")
	}
	q.Submit(QualitySample{})
	q.Close()
	if snap := q.Snapshot(); snap.State != "disabled" {
		t.Fatalf("nil snapshot state %q", snap.State)
	}
	q.WriteMetrics(NewPromWriter())

	live := NewQuality(QualityConfig{SampleEvery: 1},
		fixedOracle(QualityTruth{Truth: ids(0, 10)}), nil, nil)
	live.Close()
	live.Close() // idempotent
	live.Submit(QualitySample{Vector: []float32{1}, K: 10, Live: ids(0, 10)})
	if snap := live.Snapshot(); snap.Dropped != 1 {
		t.Fatalf("submit after close: %+v", snap)
	}
}

// The snapshot (the /quality payload) survives JSON, and WriteMetrics
// emits the upanns_quality_* families.
func TestQualityHandlerAndMetrics(t *testing.T) {
	q := NewQuality(QualityConfig{ShardID: "s9", SampleEvery: 1, QueueDepth: 64},
		fixedOracle(QualityTruth{Truth: ids(0, 10), NProbe: 8, Cluster: -1, Selectivity: 1}), nil, nil)
	defer q.Close()
	submitAll(t, q, QualitySample{Vector: []float32{1}, K: 10, Live: ids(0, 10)}, 5)

	body, err := json.Marshal(q.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap QualitySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /quality: %v", err)
	}
	if snap.ShardID != "s9" || snap.Executed != 5 || snap.Recall.Estimate != 1 {
		t.Fatalf("payload: %+v", snap)
	}

	w := NewPromWriter()
	q.WriteMetrics(w)
	text := string(w.Bytes())
	for _, name := range []string{
		"upanns_quality_sampled_total", "upanns_quality_shadow_total",
		"upanns_quality_recall_estimate", "upanns_quality_recall_ci_low",
		"upanns_quality_recall_ci_high", "upanns_quality_slice_recall",
		"upanns_quality_drift_kl", "upanns_quality_drift_paged",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics missing %s:\n%s", name, text)
		}
	}
}
