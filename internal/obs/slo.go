package obs

import (
	"sync"
	"time"
)

// slo.go is the judgment layer over the raw signals: declarative
// service-level objectives evaluated as multi-window burn rates, in the
// Google SRE shape. Each request is classified against every objective
// (available? fast enough? full-fidelity?) into per-bucket good/bad
// counters on a sliding ring; the burn rate of an objective over a
// window is
//
//	burn = badFraction / errorBudget      (errorBudget = 1 - target)
//
// so burn 1.0 consumes the budget exactly at the sustainable rate, and
// burn 14.4 on a 99.9% objective exhausts a 30-day budget in 2 days.
// An alert fires only when BOTH the fast window (default 5m) and the
// slow window (default 1h) exceed the threshold: the slow window keeps
// a short blip from paging, the fast window ends the alert quickly once
// the system recovers. The tracker is nil-safe like every obs type, so
// un-instrumented deployments pay nothing.

// SLO objective states, ordered by severity.
const (
	SLOOk   = "ok"
	SLOWarn = "warn"
	SLOPage = "page"
)

// sloStateRank orders alert states for worst-of rollups.
func sloStateRank(s string) int {
	switch s {
	case SLOPage:
		return 2
	case SLOWarn:
		return 1
	default:
		return 0
	}
}

// WorseSLOState returns the more severe of two objective states; the
// router uses it to roll per-shard verdicts into a fleet verdict.
func WorseSLOState(a, b string) string {
	if sloStateRank(b) > sloStateRank(a) {
		return b
	}
	return a
}

// SLOConfig declares a component's objectives. The zero value of every
// field picks a production-shaped default.
type SLOConfig struct {
	// Name identifies the component in the /slo payload ("shard-3",
	// "router").
	Name string

	// AvailabilityTarget is the fraction of requests that must not fail
	// (default 0.999). Client mistakes (4xx) should not be recorded at
	// all; only server-attributable failures burn this budget.
	AvailabilityTarget float64
	// LatencyTarget is the fraction of successful requests that must
	// answer within LatencyThreshold (default 0.99).
	LatencyTarget float64
	// LatencyThreshold is the latency SLI boundary (default 50ms, the
	// tracer's slow-query threshold).
	LatencyThreshold time.Duration
	// IntegrityTarget, when > 0, enables a third objective: the fraction
	// of requests answered at full fidelity (not degraded). The router
	// sets it so a kill drill — which by design produces zero client
	// errors — still burns a visible budget while a shard is missing.
	IntegrityTarget float64
	// QualityTarget, when > 0, enables a quality objective over the
	// shadow-oracle samples recorded through RecordQuality: the fraction
	// of sampled queries whose estimated recall (or drift verdict) must
	// be good. Quality samples keep their own denominator — shadow
	// executions never count toward the availability or latency windows.
	QualityTarget float64

	// FastWindow and SlowWindow are the two burn evaluation windows
	// (defaults 5m and 1h). FastWindow also fixes the bucket width at
	// FastWindow/5.
	FastWindow time.Duration
	SlowWindow time.Duration

	// PageBurn and WarnBurn are the alert thresholds (defaults 14.4 and
	// 6 — the classic 2%-of-monthly-budget-per-hour and
	// 5%-per-six-hours pages).
	PageBurn float64
	WarnBurn float64

	// Now overrides the clock; tests inject it to replay golden burn
	// scenarios deterministically.
	Now func() time.Time
}

// sloFastBuckets is the bucket resolution of the fast window.
const sloFastBuckets = 5

func (c SLOConfig) withDefaults() SLOConfig {
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	if c.LatencyTarget <= 0 || c.LatencyTarget >= 1 {
		c.LatencyTarget = 0.99
	}
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 50 * time.Millisecond
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= c.FastWindow {
		c.SlowWindow = 12 * c.FastWindow
	}
	if c.PageBurn <= 0 {
		c.PageBurn = 14.4
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 6
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sloBucket is one time slice of the sliding window.
type sloBucket struct {
	total    int64 // requests recorded
	errs     int64 // failed (availability-bad)
	slow     int64 // answered but over LatencyThreshold
	degraded int64 // answered below full fidelity
	qTotal   int64 // shadow-oracle quality samples (own denominator)
	qBad     int64 // quality samples judged bad (low recall / drift)
}

func (b *sloBucket) add(o sloBucket) {
	b.total += o.total
	b.errs += o.errs
	b.slow += o.slow
	b.degraded += o.degraded
	b.qTotal += o.qTotal
	b.qBad += o.qBad
}

// SLOTracker evaluates one component's objectives over a bucketed
// sliding window. All methods are safe for concurrent use and no-op on
// a nil receiver.
type SLOTracker struct {
	cfg       SLOConfig
	bucketDur time.Duration
	fastCount int // buckets in the fast window
	mu        sync.Mutex
	buckets   []sloBucket
	head      int       // index of the current bucket
	headStart time.Time // start of the current bucket's time slice
	cum       sloBucket // lifetime totals for the counter families
}

// NewSLOTracker builds a tracker for cfg (zero fields defaulted).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	bucketDur := cfg.FastWindow / sloFastBuckets
	n := int((cfg.SlowWindow + bucketDur - 1) / bucketDur)
	if n < sloFastBuckets {
		n = sloFastBuckets
	}
	return &SLOTracker{
		cfg:       cfg,
		bucketDur: bucketDur,
		fastCount: sloFastBuckets,
		buckets:   make([]sloBucket, n),
	}
}

// rotate advances the ring to cover now, zeroing any buckets whose time
// slices elapsed without traffic. Caller holds mu.
func (t *SLOTracker) rotate(now time.Time) {
	if t.headStart.IsZero() {
		t.headStart = now
		return
	}
	steps := int64(now.Sub(t.headStart) / t.bucketDur)
	if steps <= 0 {
		return
	}
	if steps >= int64(len(t.buckets)) {
		for i := range t.buckets {
			t.buckets[i] = sloBucket{}
		}
		t.head = 0
		t.headStart = now
		return
	}
	for i := int64(0); i < steps; i++ {
		t.head = (t.head + 1) % len(t.buckets)
		t.buckets[t.head] = sloBucket{}
	}
	t.headStart = t.headStart.Add(time.Duration(steps) * t.bucketDur)
}

// Record classifies one finished request against every objective.
// errored marks a server-attributable failure (do not record client
// mistakes); degraded marks a reply answered below full fidelity;
// latency is judged only on non-errored requests.
func (t *SLOTracker) Record(errored, degraded bool, latency time.Duration) {
	if t == nil {
		return
	}
	now := t.cfg.Now()
	t.mu.Lock()
	t.rotate(now)
	b := &t.buckets[t.head]
	b.total++
	t.cum.total++
	if errored {
		b.errs++
		t.cum.errs++
	} else if latency > t.cfg.LatencyThreshold {
		b.slow++
		t.cum.slow++
	}
	if degraded {
		b.degraded++
		t.cum.degraded++
	}
	t.mu.Unlock()
}

// RecordQuality classifies one shadow-oracle comparison against the
// quality objective. Quality samples carry their own denominator in the
// window buckets: a shadow execution is not a served request, so it must
// not dilute the availability or latency burn rates it sits next to.
func (t *SLOTracker) RecordQuality(bad bool) {
	if t == nil {
		return
	}
	now := t.cfg.Now()
	t.mu.Lock()
	t.rotate(now)
	b := &t.buckets[t.head]
	b.qTotal++
	t.cum.qTotal++
	if bad {
		b.qBad++
		t.cum.qBad++
	}
	t.mu.Unlock()
}

// window sums the n most recent buckets (head inclusive). Caller holds
// mu.
func (t *SLOTracker) window(n int) sloBucket {
	if n > len(t.buckets) {
		n = len(t.buckets)
	}
	var sum sloBucket
	i := t.head
	for c := 0; c < n; c++ {
		sum.add(t.buckets[i])
		i--
		if i < 0 {
			i = len(t.buckets) - 1
		}
	}
	return sum
}

// SLOObjective is one objective's evaluated state.
type SLOObjective struct {
	Objective string  `json:"objective"` // availability | latency | integrity
	Target    float64 `json:"target"`
	FastBurn  float64 `json:"fast_burn"`
	SlowBurn  float64 `json:"slow_burn"`
	FastBad   int64   `json:"fast_bad"`
	FastTotal int64   `json:"fast_total"`
	SlowBad   int64   `json:"slow_bad"`
	SlowTotal int64   `json:"slow_total"`
	State     string  `json:"state"` // ok | warn | page
}

// SLOSnapshot is the /slo payload of one component.
type SLOSnapshot struct {
	Name              string         `json:"name"`
	State             string         `json:"state"` // worst objective state
	FastWindowSeconds float64        `json:"fast_window_seconds"`
	SlowWindowSeconds float64        `json:"slow_window_seconds"`
	PageBurn          float64        `json:"page_burn"`
	WarnBurn          float64        `json:"warn_burn"`
	Requests          int64          `json:"requests"`
	Errors            int64          `json:"errors"`
	Slow              int64          `json:"slow"`
	Degraded          int64          `json:"degraded"`
	QualitySamples    int64          `json:"quality_samples,omitempty"`
	QualityBad        int64          `json:"quality_bad,omitempty"`
	Objectives        []SLOObjective `json:"objectives"`
}

// burnRate converts a bad fraction into budget multiples.
func burnRate(bad, total int64, target float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget < 1e-9 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// evalObjective applies the both-windows rule.
func evalObjective(name string, target float64, fastBad, fastTotal, slowBad, slowTotal int64, page, warn float64) SLOObjective {
	o := SLOObjective{
		Objective: name,
		Target:    target,
		FastBurn:  burnRate(fastBad, fastTotal, target),
		SlowBurn:  burnRate(slowBad, slowTotal, target),
		FastBad:   fastBad,
		FastTotal: fastTotal,
		SlowBad:   slowBad,
		SlowTotal: slowTotal,
		State:     SLOOk,
	}
	switch {
	case o.FastBurn >= page && o.SlowBurn >= page:
		o.State = SLOPage
	case o.FastBurn >= warn && o.SlowBurn >= warn:
		o.State = SLOWarn
	}
	return o
}

// Snapshot evaluates every objective now. A nil tracker reports the
// "disabled" state with no objectives.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{State: "disabled"}
	}
	now := t.cfg.Now()
	t.mu.Lock()
	t.rotate(now)
	fast := t.window(t.fastCount)
	slow := t.window(len(t.buckets))
	cum := t.cum
	t.mu.Unlock()

	snap := SLOSnapshot{
		Name:              t.cfg.Name,
		State:             SLOOk,
		FastWindowSeconds: t.cfg.FastWindow.Seconds(),
		SlowWindowSeconds: t.cfg.SlowWindow.Seconds(),
		PageBurn:          t.cfg.PageBurn,
		WarnBurn:          t.cfg.WarnBurn,
		Requests:          cum.total,
		Errors:            cum.errs,
		Slow:              cum.slow,
		Degraded:          cum.degraded,
		QualitySamples:    cum.qTotal,
		QualityBad:        cum.qBad,
	}
	snap.Objectives = append(snap.Objectives,
		evalObjective("availability", t.cfg.AvailabilityTarget,
			fast.errs, fast.total, slow.errs, slow.total, t.cfg.PageBurn, t.cfg.WarnBurn),
		// Latency is judged on answered requests only: an errored request
		// already burned availability, and its latency (often a timeout)
		// says nothing about the serving path's speed.
		evalObjective("latency", t.cfg.LatencyTarget,
			fast.slow, fast.total-fast.errs, slow.slow, slow.total-slow.errs, t.cfg.PageBurn, t.cfg.WarnBurn))
	if t.cfg.IntegrityTarget > 0 {
		snap.Objectives = append(snap.Objectives,
			evalObjective("integrity", t.cfg.IntegrityTarget,
				fast.degraded, fast.total, slow.degraded, slow.total, t.cfg.PageBurn, t.cfg.WarnBurn))
	}
	if t.cfg.QualityTarget > 0 {
		snap.Objectives = append(snap.Objectives,
			evalObjective("quality", t.cfg.QualityTarget,
				fast.qBad, fast.qTotal, slow.qBad, slow.qTotal, t.cfg.PageBurn, t.cfg.WarnBurn))
	}
	for _, o := range snap.Objectives {
		snap.State = WorseSLOState(snap.State, o.State)
	}
	return snap
}

// WriteMetrics emits the upanns_slo_* families. Nil-safe.
func (t *SLOTracker) WriteMetrics(w *PromWriter) {
	if t == nil {
		return
	}
	snap := t.Snapshot()
	for _, o := range snap.Objectives {
		w.Gauge("upanns_slo_target", "Declared objective target fraction.", o.Target, "objective", o.Objective)
		w.Gauge("upanns_slo_burn_rate", "Error-budget burn rate over the window.", o.FastBurn, "objective", o.Objective, "window", "fast")
		w.Gauge("upanns_slo_burn_rate", "Error-budget burn rate over the window.", o.SlowBurn, "objective", o.Objective, "window", "slow")
		w.Gauge("upanns_slo_alert_state", "Objective alert state: 0 ok, 1 warn, 2 page.", float64(sloStateRank(o.State)), "objective", o.Objective)
	}
	w.Counter("upanns_slo_requests_total", "Requests classified against the SLOs.", float64(snap.Requests))
	w.Counter("upanns_slo_bad_total", "Budget-burning requests per objective.", float64(snap.Errors), "objective", "availability")
	w.Counter("upanns_slo_bad_total", "Budget-burning requests per objective.", float64(snap.Slow), "objective", "latency")
	w.Counter("upanns_slo_bad_total", "Budget-burning requests per objective.", float64(snap.Degraded), "objective", "integrity")
	w.Counter("upanns_slo_bad_total", "Budget-burning requests per objective.", float64(snap.QualityBad), "objective", "quality")
}
