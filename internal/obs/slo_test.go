package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// sloClock is an injectable test clock for replaying burn scenarios.
type sloClock struct{ now time.Time }

func (c *sloClock) Now() time.Time          { return c.now }
func (c *sloClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newSLOClock() *sloClock                { return &sloClock{now: time.Unix(1_700_000_000, 0)} }
func objective(t *testing.T, s SLOSnapshot, name string) SLOObjective {
	t.Helper()
	for _, o := range s.Objectives {
		if o.Objective == name {
			return o
		}
	}
	t.Fatalf("objective %q missing from snapshot %+v", name, s)
	return SLOObjective{}
}

// record pushes n identical classifications through the tracker.
func record(tr *SLOTracker, n int, errored, degraded bool, lat time.Duration) {
	for i := 0; i < n; i++ {
		tr.Record(errored, degraded, lat)
	}
}

// Steady compliant traffic: every objective ok, zero burn.
func TestSLOSteadyCompliance(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", Now: clk.Now})
	for i := 0; i < 500; i++ {
		tr.Record(false, false, time.Millisecond)
		clk.Advance(time.Second)
	}
	snap := tr.Snapshot()
	if snap.State != SLOOk {
		t.Fatalf("state %q, want ok", snap.State)
	}
	if snap.Requests != 500 || snap.Errors != 0 {
		t.Fatalf("cum totals: %+v", snap)
	}
	av := objective(t, snap, "availability")
	if av.FastBurn != 0 || av.SlowBurn != 0 {
		t.Fatalf("compliant traffic burned budget: %+v", av)
	}
}

// A sustained outage exceeds the page threshold in both windows.
func TestSLOFastBurnPages(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", Now: clk.Now})
	// 100% failures on a 99.9% objective is burn 1000 — far past 14.4 in
	// both windows as soon as any traffic exists.
	record(tr, 50, true, false, 0)
	snap := tr.Snapshot()
	if snap.State != SLOPage {
		t.Fatalf("state %q, want page", snap.State)
	}
	av := objective(t, snap, "availability")
	if av.FastBurn < tr.cfg.PageBurn || av.SlowBurn < tr.cfg.PageBurn {
		t.Fatalf("burns %v/%v below page threshold", av.FastBurn, av.SlowBurn)
	}
	// Latency is judged on answered requests only: all requests errored,
	// so the latency objective has no denominator and stays ok.
	if la := objective(t, snap, "latency"); la.State != SLOOk || la.FastTotal != 0 {
		t.Fatalf("latency objective judged errored requests: %+v", la)
	}
}

// The both-windows rule: a short blip inside a long good history raises
// the fast burn but not the slow burn, so no alert fires.
func TestSLOBlipSuppressedBySlowWindow(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", Now: clk.Now})
	// An hour of good traffic spread over the slow window...
	for i := 0; i < 60; i++ {
		record(tr, 100, false, false, time.Millisecond)
		clk.Advance(time.Minute)
	}
	// ...then a 10-request failure burst.
	record(tr, 10, true, false, 0)
	snap := tr.Snapshot()
	av := objective(t, snap, "availability")
	if av.FastBurn < tr.cfg.PageBurn {
		t.Fatalf("fast burn %v should exceed page threshold during the blip", av.FastBurn)
	}
	if av.SlowBurn >= tr.cfg.WarnBurn {
		t.Fatalf("slow burn %v should stay under warn with an hour of good history", av.SlowBurn)
	}
	if snap.State != SLOOk {
		t.Fatalf("state %q: a blip with good slow-window history must not alert", snap.State)
	}
}

// Recovery: once the outage stops, the fast window clears within
// FastWindow and the alert ends even though the slow window still burns.
func TestSLORecoveryClearsFastWindow(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", Now: clk.Now})
	// Outage long enough to poison both windows.
	for i := 0; i < 30; i++ {
		record(tr, 10, true, false, 0)
		clk.Advance(time.Minute)
	}
	if s := tr.Snapshot(); s.State != SLOPage {
		t.Fatalf("mid-outage state %q, want page", s.State)
	}
	// Recover: good traffic for longer than FastWindow.
	for i := 0; i < 7; i++ {
		record(tr, 100, false, false, time.Millisecond)
		clk.Advance(time.Minute)
	}
	snap := tr.Snapshot()
	av := objective(t, snap, "availability")
	if av.FastBurn >= tr.cfg.WarnBurn {
		t.Fatalf("fast burn %v should clear after recovery (fast window rotated)", av.FastBurn)
	}
	if av.SlowBurn < tr.cfg.PageBurn {
		t.Fatalf("slow burn %v should still remember the outage", av.SlowBurn)
	}
	if snap.State != SLOOk {
		t.Fatalf("state %q: alert must end once the fast window clears", snap.State)
	}
}

// Latency objective: slow-but-successful answers burn the latency
// budget without touching availability.
func TestSLOLatencyObjective(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", LatencyThreshold: 10 * time.Millisecond, Now: clk.Now})
	record(tr, 50, false, false, 25*time.Millisecond)
	snap := tr.Snapshot()
	if av := objective(t, snap, "availability"); av.FastBurn != 0 {
		t.Fatalf("slow answers burned availability: %+v", av)
	}
	if la := objective(t, snap, "latency"); la.State != SLOPage {
		t.Fatalf("latency objective %+v, want page on 100%% slow answers", la)
	}
	if snap.Slow != 50 {
		t.Fatalf("cum slow %d, want 50", snap.Slow)
	}
}

// Integrity objective: enabled only by a nonzero target, burned by
// degraded (partial-fanout) answers.
func TestSLOIntegrityObjective(t *testing.T) {
	clk := newSLOClock()
	base := NewSLOTracker(SLOConfig{Name: "r", Now: clk.Now})
	if len(base.Snapshot().Objectives) != 2 {
		t.Fatalf("integrity objective should be absent without a target")
	}
	tr := NewSLOTracker(SLOConfig{Name: "r", IntegrityTarget: 0.99, Now: clk.Now})
	record(tr, 50, false, true, time.Millisecond)
	snap := tr.Snapshot()
	if in := objective(t, snap, "integrity"); in.State != SLOPage {
		t.Fatalf("integrity objective %+v, want page on all-degraded answers", in)
	}
	if av := objective(t, snap, "availability"); av.State != SLOOk {
		t.Fatalf("degraded 200s burned availability: %+v", av)
	}
	if snap.Degraded != 50 {
		t.Fatalf("cum degraded %d, want 50", snap.Degraded)
	}
}

// A gap longer than the whole slow window resets every bucket (the
// full-wrap branch of rotate) without disturbing lifetime totals.
func TestSLOFullWrapReset(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", Now: clk.Now})
	record(tr, 20, true, false, 0)
	clk.Advance(2 * time.Hour) // past the 1h slow window
	snap := tr.Snapshot()
	av := objective(t, snap, "availability")
	if av.FastBurn != 0 || av.SlowBurn != 0 || snap.State != SLOOk {
		t.Fatalf("stale outage survived a full-window gap: %+v", av)
	}
	if snap.Requests != 20 || snap.Errors != 20 {
		t.Fatalf("lifetime totals lost on wrap: %+v", snap)
	}
}

// Nil tracker: every method no-ops and the snapshot reports "disabled".
func TestSLONilTracker(t *testing.T) {
	var tr *SLOTracker
	tr.Record(true, true, time.Hour) // must not panic
	if s := tr.Snapshot(); s.State != "disabled" || len(s.Objectives) != 0 {
		t.Fatalf("nil snapshot %+v", s)
	}
	tr.WriteMetrics(NewPromWriter())
	raw, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var body SLOSnapshot
	if err := json.Unmarshal(raw, &body); err != nil || body.State != "disabled" {
		t.Fatalf("nil snapshot body %q err %v", raw, err)
	}
}

func TestWorseSLOState(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{SLOOk, SLOWarn, SLOWarn},
		{SLOPage, SLOWarn, SLOPage},
		{SLOOk, SLOOk, SLOOk},
		{"disabled", SLOWarn, SLOWarn},
		{SLOPage, "disabled", SLOPage},
	}
	for _, c := range cases {
		if got := WorseSLOState(c.a, c.b); got != c.want {
			t.Fatalf("WorseSLOState(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

// The upanns_slo_* families expose per-objective burn and alert state.
func TestSLOWriteMetrics(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{Name: "s0", Now: clk.Now})
	record(tr, 10, true, false, 0)
	w := NewPromWriter()
	tr.WriteMetrics(w)
	vals := parseProm(t, string(w.Bytes()))
	if vals[`upanns_slo_alert_state{objective="availability"}`] != 2 {
		t.Fatalf("alert state gauge: %v", vals)
	}
	if vals[`upanns_slo_burn_rate{objective="availability",window="fast"}`] < 14.4 {
		t.Fatalf("fast burn gauge: %v", vals)
	}
	if vals["upanns_slo_requests_total"] != 10 {
		t.Fatalf("requests counter: %v", vals)
	}
	if vals[`upanns_slo_bad_total{objective="availability"}`] != 10 {
		t.Fatalf("bad counter: %v", vals)
	}
}
