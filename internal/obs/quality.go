package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// quality.go is the online search-quality plane: the one axis the rest
// of the observability stack is blind on. Latency, bandwidth, cost and
// burn rates all stay flat while recall silently degrades — overlay
// growth before compaction, centroid drift as the corpus shifts,
// tiered cold-miss fallout, low-selectivity post-filtering — so the
// plane measures recall continuously instead of asserting it in CI:
//
//   - a head sampler (the tracer's modulo-counter shape) selects a
//     small fraction of live queries at the serving layer and enqueues
//     them for asynchronous shadow execution, off the hot path, against
//     the exact oracle (full-nprobe scan over the same epoch snapshot,
//     tombstone- and filter-consistent);
//   - each shadow comparison feeds streaming recall@k estimators with
//     Wilson confidence intervals, overall and sliced by
//     filter-selectivity bucket, nprobe and tenant tag;
//   - a drift detector compares the live query-to-centroid assignment
//     distribution against index cluster occupancy (KL divergence over
//     a rolling baseline), paging when traffic and placement diverge —
//     before recall falls off a cliff;
//   - every comparison records into the component SLO tracker's quality
//     objective, so the multi-window burn-rate engine owns paging.
//
// Shadow executions bypass the serving layer entirely: they never touch
// admission, the result cache, cost vectors, or the SLO request
// windows, so the oracle cannot pollute the signals it guards.

// QualitySample is one sampled live query handed to the shadow worker.
// Vector and Live are owned by the plane (Submit copies them).
type QualitySample struct {
	// Vector is the query vector.
	Vector []float32
	// K is the result depth the live answer was served at; recall is
	// estimated at this k.
	K int
	// FilterID is the canonical predicate string ("" = unfiltered),
	// used for slice labelling.
	FilterID string
	// Pred is the parsed predicate, opaque to this package, handed back
	// to the oracle verbatim (nil = unfiltered).
	Pred any
	// Tenant is an optional tenant tag for slice accounting.
	Tenant string
	// Live is the id set the serving path returned.
	Live []int64
}

// QualityTruth is the oracle's answer for one shadow execution.
type QualityTruth struct {
	// Truth is the exact top-k id set over the same epoch snapshot.
	Truth []int64
	// NProbe is the live path's operating point (slice label).
	NProbe int
	// Cluster is the query's nearest centroid (drift signal); negative
	// means unknown.
	Cluster int
	// Selectivity is the estimated filter selectivity (1 = unfiltered).
	Selectivity float64
}

// QualityOracle re-executes one sampled query exactly. Implementations
// must be safe for concurrent use with live traffic and must not feed
// the serving-plane counters.
type QualityOracle func(QualitySample) (QualityTruth, error)

// QualityConfig tunes the quality plane. The zero value of every field
// selects the default documented on it.
type QualityConfig struct {
	// ShardID tags the /quality payload and flight events.
	ShardID string
	// SampleEvery selects every Nth successfully answered query for
	// shadow execution (default 64; 1 samples everything).
	SampleEvery int
	// QueueDepth bounds the shadow queue (default 64). A full queue
	// drops the sample — the hot path never blocks on the oracle.
	QueueDepth int
	// RecallTarget is the per-sample recall@k below which a shadow
	// comparison burns the SLO quality budget (default 0.9).
	RecallTarget float64
	// DriftThreshold is how many nats of KL divergence above the
	// rolling baseline page the drift detector (default 0.5); the page
	// clears with hysteresis at half the threshold.
	DriftThreshold float64
	// DriftMinSamples is how many assignments must warm the live
	// histogram before drift verdicts are trusted (default 256).
	DriftMinSamples int
	// DriftWindow sizes the rolling live-assignment histogram; the
	// baseline KL adapts with a time constant of 8x this window, and
	// only while the detector is quiet (default 4096).
	DriftWindow int
	// Now overrides the clock for flight-event timestamps in tests.
	Now func() time.Time
}

func (c QualityConfig) withDefaults() QualityConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RecallTarget <= 0 || c.RecallTarget > 1 {
		c.RecallTarget = 0.9
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.5
	}
	if c.DriftMinSamples <= 0 {
		c.DriftMinSamples = 256
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 4096
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// qualityKey is one recall slice: selectivity bucket x nprobe x tenant.
type qualityKey struct {
	bucket string
	nprobe int
	tenant string
}

// qualityCell is one slice's streaming binomial recall estimator.
type qualityCell struct {
	samples int64 // shadow comparisons accumulated
	trials  int64 // truth positions judged (sum of min(k, |truth|))
	matched int64 // truth positions the live answer also returned
}

// qualitySelectivityBounds are the slice bucket upper bounds; the label
// is "<=bound" (1%-selectivity traffic lands in "<=0.01"), with
// unfiltered queries in their own "unfiltered" bucket.
var qualitySelectivityBounds = []float64{0.001, 0.01, 0.1, 0.5, 1}

func selectivityBucket(filterID string, sel float64) string {
	if filterID == "" {
		return "unfiltered"
	}
	for _, b := range qualitySelectivityBounds {
		if sel <= b {
			return "<=" + strconv.FormatFloat(b, 'g', -1, 64)
		}
	}
	return "<=1"
}

// Quality is the shard-side quality plane: sampler, shadow worker,
// estimators and drift detector. Create with NewQuality, stop with
// Close. All methods are safe for concurrent use and no-op on a nil
// receiver, like every obs type.
type Quality struct {
	cfg       QualityConfig
	oracle    QualityOracle
	occupancy func() []float64 // index cluster occupancy (drift reference)
	slo       *SLOTracker      // quality objective sink (may be nil)

	seq      atomic.Uint64 // head-sampling counter (tracer shape)
	sampled  atomic.Uint64 // queries selected by the sampler
	enqueued atomic.Uint64 // samples that made it into the queue
	executed atomic.Uint64 // shadow executions completed
	dropped  atomic.Uint64 // samples dropped on a full queue
	errors   atomic.Uint64 // oracle failures

	queue chan QualitySample
	wg    sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	mu          sync.Mutex
	overall     qualityCell
	slices      map[qualityKey]*qualityCell
	driftCounts []float64 // rolling live query->centroid histogram
	driftTotal  float64
	driftKL     float64
	driftBase   float64 // rolling baseline KL
	driftWarm   bool
	driftPaged  bool
	paged       bool // combined page state (drift or SLO quality objective)
}

// NewQuality starts the quality plane: oracle executes shadow queries,
// occupancy supplies the index's current cluster occupancy for the
// drift detector (nil disables drift), and slo (may be nil) receives
// one quality-objective record per comparison — deploy that tracker
// with a nonzero QualityTarget or the burn-rate engine never sees the
// samples.
func NewQuality(cfg QualityConfig, oracle QualityOracle, occupancy func() []float64, slo *SLOTracker) *Quality {
	cfg = cfg.withDefaults()
	q := &Quality{
		cfg:       cfg,
		oracle:    oracle,
		occupancy: occupancy,
		slo:       slo,
		queue:     make(chan QualitySample, cfg.QueueDepth),
		slices:    make(map[qualityKey]*qualityCell),
	}
	q.wg.Add(1)
	go q.worker()
	return q
}

// Close stops the shadow worker after draining queued samples.
// Idempotent; Submit calls racing Close are dropped, not panicked.
func (q *Quality) Close() {
	if q == nil {
		return
	}
	q.closeMu.Lock()
	if q.closed {
		q.closeMu.Unlock()
		return
	}
	q.closed = true
	q.closeMu.Unlock()
	close(q.queue)
	q.wg.Wait()
}

// ShouldSample is the hot-path gate: one atomic add per answered query,
// selecting every SampleEvery-th. Nil-safe (false).
func (q *Quality) ShouldSample() bool {
	if q == nil {
		return false
	}
	n := q.seq.Add(1)
	if q.cfg.SampleEvery > 1 && n%uint64(q.cfg.SampleEvery) != 0 {
		return false
	}
	q.sampled.Add(1)
	return true
}

// Submit hands a selected query to the shadow worker. The vector and
// live ids are copied here (the caller's buffers may be reused); a full
// queue drops the sample rather than blocking the serving path.
func (q *Quality) Submit(s QualitySample) {
	if q == nil {
		return
	}
	s.Vector = append([]float32(nil), s.Vector...)
	s.Live = append([]int64(nil), s.Live...)
	q.closeMu.RLock()
	defer q.closeMu.RUnlock()
	if q.closed {
		q.dropped.Add(1)
		return
	}
	select {
	case q.queue <- s:
		q.enqueued.Add(1)
	default:
		q.dropped.Add(1)
	}
}

// Drain blocks until every enqueued sample has been shadow-executed or
// the timeout elapses; tests and benchmarks use it to read a settled
// estimator. It reports whether the queue drained in time.
func (q *Quality) Drain(timeout time.Duration) bool {
	if q == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for q.executed.Load() < q.enqueued.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// worker is the shadow executor: one goroutine, so oracle executions
// serialize and can never multiply load under a sampling burst.
func (q *Quality) worker() {
	defer q.wg.Done()
	for s := range q.queue {
		q.process(s)
	}
}

// process runs one shadow execution and folds it into the estimators.
func (q *Quality) process(s QualitySample) {
	truth, err := q.oracle(s)
	if err != nil {
		q.errors.Add(1)
		q.executed.Add(1)
		return
	}

	k := s.K
	if k > len(truth.Truth) {
		k = len(truth.Truth)
	}
	trials := int64(k)
	var matched int64
	if trials > 0 {
		want := make(map[int64]struct{}, k)
		for _, id := range truth.Truth[:k] {
			want[id] = struct{}{}
		}
		live := s.Live
		if len(live) > s.K {
			live = live[:s.K]
		}
		for _, id := range live {
			if _, ok := want[id]; ok {
				matched++
			}
		}
	}

	var occ []float64
	if q.occupancy != nil && truth.Cluster >= 0 {
		occ = q.occupancy()
	}

	q.mu.Lock()
	if trials > 0 {
		q.overall.samples++
		q.overall.trials += trials
		q.overall.matched += matched
		key := qualityKey{
			bucket: selectivityBucket(s.FilterID, truth.Selectivity),
			nprobe: truth.NProbe,
			tenant: s.Tenant,
		}
		cell := q.slices[key]
		if cell == nil {
			cell = &qualityCell{}
			q.slices[key] = cell
		}
		cell.samples++
		cell.trials += trials
		cell.matched += matched
	}
	if occ != nil {
		q.updateDriftLocked(truth.Cluster, occ)
	}
	lowRecall := trials > 0 && float64(matched) < q.cfg.RecallTarget*float64(trials)
	driftPaged := q.driftPaged
	q.mu.Unlock()

	// Each comparison is one quality-objective record: low per-sample
	// recall or an active drift page burns the budget, and the burn-rate
	// engine's both-windows rule decides when that becomes a page.
	q.slo.RecordQuality(lowRecall || driftPaged)
	q.executed.Add(1)
	q.updatePageState()
}

// updateDriftLocked folds one query->centroid assignment into the
// rolling histogram and re-evaluates the KL divergence against index
// occupancy. Caller holds mu.
func (q *Quality) updateDriftLocked(cluster int, occ []float64) {
	if cluster >= len(occ) {
		return
	}
	if len(q.driftCounts) != len(occ) {
		q.driftCounts = make([]float64, len(occ))
		q.driftTotal = 0
		q.driftWarm = false
	}
	q.driftCounts[cluster]++
	q.driftTotal++
	// Rolling window: once the histogram holds two windows' worth of
	// assignments, halve it, so old traffic decays exponentially.
	if q.driftTotal > 2*float64(q.cfg.DriftWindow) {
		for i := range q.driftCounts {
			q.driftCounts[i] /= 2
		}
		q.driftTotal /= 2
	}
	q.driftKL = klDivergence(q.driftCounts, occ)
	if !q.driftWarm {
		q.driftBase = q.driftKL
		q.driftWarm = true
	} else if !q.driftPaged && q.driftKL-q.driftBase < q.cfg.DriftThreshold/2 {
		// The baseline adapts slowly (time constant 8x the histogram
		// window) and only while the excess is inside the clear-hysteresis
		// band: once KL starts excursing, the baseline freezes so a real
		// shift pages instead of being absorbed.
		q.driftBase += (q.driftKL - q.driftBase) / (8 * float64(q.cfg.DriftWindow))
	}
	if q.driftTotal >= float64(q.cfg.DriftMinSamples) {
		excess := q.driftKL - q.driftBase
		if !q.driftPaged && excess > q.cfg.DriftThreshold {
			q.driftPaged = true
		} else if q.driftPaged && excess < q.cfg.DriftThreshold/2 {
			q.driftPaged = false
		}
	}
}

// klDivergence is KL(live ‖ occupancy) in nats over additive-smoothed
// distributions; p is a count histogram, r a nonnegative weight vector.
func klDivergence(p, r []float64) float64 {
	const eps = 0.5
	var pTot, rTot float64
	for i := range p {
		pTot += p[i] + eps
		rTot += r[i] + eps
	}
	var kl float64
	for i := range p {
		pi := (p[i] + eps) / pTot
		ri := (r[i] + eps) / rTot
		kl += pi * math.Log(pi/ri)
	}
	if kl < 0 {
		kl = 0 // float round-off on identical distributions
	}
	return kl
}

// WilsonInterval is the Wilson score interval for successes out of
// trials at confidence factor z (1.96 ~ 95%). Unlike the normal
// approximation it stays inside [0, 1] and behaves at small n and
// extreme proportions — exactly the streaming-recall regime.
func WilsonInterval(successes, trials int64, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	den := 1 + z2/n
	center := (p + z2/(2*n)) / den
	half := (z / den) * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	// The interval contains the point estimate by construction; at p = 0
	// and p = 1 the bound that should equal it lands one ulp inside.
	lo, hi = min(center-half, p), max(center+half, p)
	return max(lo, 0), min(hi, 1)
}

// wilsonZ is the default confidence factor (95%).
const wilsonZ = 1.96

// QualityEstimate is one streaming recall estimate with its Wilson CI.
type QualityEstimate struct {
	Samples  int64   `json:"samples"`
	Trials   int64   `json:"trials"`
	Matched  int64   `json:"matched"`
	Estimate float64 `json:"estimate"`
	CILow    float64 `json:"ci_low"`
	CIHigh   float64 `json:"ci_high"`
}

func (c qualityCell) estimate() QualityEstimate {
	e := QualityEstimate{Samples: c.samples, Trials: c.trials, Matched: c.matched}
	if c.trials > 0 {
		e.Estimate = float64(c.matched) / float64(c.trials)
	}
	e.CILow, e.CIHigh = WilsonInterval(c.matched, c.trials, wilsonZ)
	return e
}

// QualitySlice is one slice's recall estimate.
type QualitySlice struct {
	Bucket string `json:"selectivity_bucket"`
	NProbe int    `json:"nprobe"`
	Tenant string `json:"tenant,omitempty"`
	QualityEstimate
}

// DriftSnapshot is the drift detector's state.
type DriftSnapshot struct {
	Samples   float64 `json:"samples"`
	KL        float64 `json:"kl"`
	Baseline  float64 `json:"baseline"`
	Threshold float64 `json:"threshold"`
	Paged     bool    `json:"paged"`
}

// QualitySnapshot is the /quality payload of one shard.
type QualitySnapshot struct {
	ShardID     string          `json:"shard_id,omitempty"`
	State       string          `json:"state"` // worst of drift page and SLO quality objective
	SampleEvery int             `json:"sample_every"`
	Sampled     uint64          `json:"sampled"`
	Executed    uint64          `json:"executed"`
	Dropped     uint64          `json:"dropped"`
	Errors      uint64          `json:"errors"`
	Recall      QualityEstimate `json:"recall"`
	Slices      []QualitySlice  `json:"slices,omitempty"`
	Drift       DriftSnapshot   `json:"drift"`
}

// sloQualityState reads the quality objective's alert state out of the
// component SLO tracker ("ok" when the tracker or objective is absent).
func (q *Quality) sloQualityState() string {
	if q.slo == nil {
		return SLOOk
	}
	for _, o := range q.slo.Snapshot().Objectives {
		if o.Objective == "quality" {
			return o.State
		}
	}
	return SLOOk
}

// updatePageState re-evaluates the combined page verdict (drift page or
// SLO quality objective) and records a quality_page flight event on
// every transition, so the post-incident timeline correlates recall
// collapses with epoch swaps and shard churn.
func (q *Quality) updatePageState() {
	q.mu.Lock()
	driftPaged, kl := q.driftPaged, q.driftKL
	est := q.overall.estimate()
	q.mu.Unlock()

	paged := driftPaged || q.sloQualityState() == SLOPage
	q.mu.Lock()
	changed := paged != q.paged
	q.paged = paged
	q.mu.Unlock()
	if !changed {
		return
	}
	transition, reason := "clear", "recovered"
	if paged {
		transition = "page"
		if driftPaged {
			reason = "drift"
		} else {
			reason = "recall"
		}
	}
	Flight.Record("quality_page",
		Str("shard", q.cfg.ShardID),
		Str("transition", transition),
		Str("reason", reason),
		Float("kl", kl),
		Float("recall", est.Estimate))
}

// Snapshot evaluates the plane now. Nil-safe ("disabled").
func (q *Quality) Snapshot() QualitySnapshot {
	if q == nil {
		return QualitySnapshot{State: "disabled"}
	}
	q.mu.Lock()
	snap := QualitySnapshot{
		ShardID:     q.cfg.ShardID,
		State:       SLOOk,
		SampleEvery: q.cfg.SampleEvery,
		Sampled:     q.sampled.Load(),
		Executed:    q.executed.Load(),
		Dropped:     q.dropped.Load(),
		Errors:      q.errors.Load(),
		Recall:      q.overall.estimate(),
		Drift: DriftSnapshot{
			Samples:   q.driftTotal,
			KL:        q.driftKL,
			Baseline:  q.driftBase,
			Threshold: q.cfg.DriftThreshold,
			Paged:     q.driftPaged,
		},
	}
	for key, cell := range q.slices {
		snap.Slices = append(snap.Slices, QualitySlice{
			Bucket:          key.bucket,
			NProbe:          key.nprobe,
			Tenant:          key.tenant,
			QualityEstimate: cell.estimate(),
		})
	}
	q.mu.Unlock()
	sort.Slice(snap.Slices, func(i, j int) bool {
		a, b := snap.Slices[i], snap.Slices[j]
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		if a.NProbe != b.NProbe {
			return a.NProbe < b.NProbe
		}
		return a.Tenant < b.Tenant
	})
	if snap.Drift.Paged {
		snap.State = SLOPage
	}
	snap.State = WorseSLOState(snap.State, q.sloQualityState())
	return snap
}

// WriteMetrics emits the upanns_quality_* families. Nil-safe.
func (q *Quality) WriteMetrics(w *PromWriter) {
	if q == nil {
		return
	}
	snap := q.Snapshot()
	w.Counter("upanns_quality_sampled_total", "Queries selected for shadow-oracle execution.", float64(snap.Sampled))
	w.Counter("upanns_quality_shadow_total", "Shadow-oracle executions completed.", float64(snap.Executed))
	w.Counter("upanns_quality_shadow_dropped_total", "Samples dropped on a full shadow queue.", float64(snap.Dropped))
	w.Counter("upanns_quality_shadow_errors_total", "Shadow-oracle executions that failed.", float64(snap.Errors))
	w.Gauge("upanns_quality_recall_estimate", "Streaming recall@k estimate over shadow samples.", snap.Recall.Estimate)
	w.Gauge("upanns_quality_recall_ci_low", "Wilson 95% lower bound of the recall estimate.", snap.Recall.CILow)
	w.Gauge("upanns_quality_recall_ci_high", "Wilson 95% upper bound of the recall estimate.", snap.Recall.CIHigh)
	for _, s := range snap.Slices {
		w.Gauge("upanns_quality_slice_recall", "Recall estimate per (selectivity bucket, nprobe, tenant) slice.",
			s.Estimate, "bucket", s.Bucket, "nprobe", strconv.Itoa(s.NProbe), "tenant", s.Tenant)
	}
	w.Gauge("upanns_quality_drift_kl", "KL divergence of live centroid assignments vs index occupancy.", snap.Drift.KL)
	w.Gauge("upanns_quality_drift_baseline", "Rolling baseline of the drift KL divergence.", snap.Drift.Baseline)
	paged := 0.0
	if snap.Drift.Paged {
		paged = 1
	}
	w.Gauge("upanns_quality_drift_paged", "1 while the drift detector is paging.", paged)
}
