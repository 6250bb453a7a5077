package obs

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TracerConfig tunes trace retention and sampling. The zero value of
// every field selects the default documented on it.
type TracerConfig struct {
	// Capacity is the recent-trace ring size (default 128). The recent
	// ring churns with traffic; it answers "what do requests look like
	// right now".
	Capacity int
	// SlowCapacity is the slow/error ring size (default 64). Tail-based
	// sampling always lands slow and failed traces here, so they survive
	// recent-ring churn — this ring is the slow-query log.
	SlowCapacity int
	// SlowThreshold classifies a finished trace as slow (default 50ms).
	SlowThreshold time.Duration
	// SampleEvery head-samples locally-originated traces: 1 traces every
	// request (the default), N traces every Nth. Incoming traceparent
	// headers override it — the upstream already decided. Note head
	// sampling bounds what tail sampling can keep: a request that was
	// never traced cannot be retained however slow it turns out.
	SampleEvery int
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.Capacity <= 0 {
		c.Capacity = 128
	}
	if c.SlowCapacity <= 0 {
		c.SlowCapacity = 64
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 50 * time.Millisecond
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	return c
}

// Tracer starts request traces and retains finished ones in two ring
// buffers (recent + slow/error). All methods are safe for concurrent use
// and nil-safe: a nil tracer starts nil traces, so handlers can wire
// tracing unconditionally.
type Tracer struct {
	cfg TracerConfig
	seq atomic.Uint64

	started  atomic.Uint64 // traces started
	sampled  atomic.Uint64 // requests skipped by head sampling
	finished atomic.Uint64
	slow     atomic.Uint64
	errs     atomic.Uint64

	mu     sync.Mutex
	recent *ring
	slowed *ring
}

// NewTracer returns a tracer with the given retention/sampling policy.
func NewTracer(cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		cfg:    cfg,
		recent: newRing(cfg.Capacity),
		slowed: newRing(cfg.SlowCapacity),
	}
}

// Start opens a locally-originated trace named name, or returns nil when
// head sampling skips this request (or the tracer is nil).
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	n := t.seq.Add(1)
	if t.cfg.SampleEvery > 1 && n%uint64(t.cfg.SampleEvery) != 0 {
		t.sampled.Add(1)
		return nil
	}
	return t.newTrace(name, t.newID(n), false)
}

// StartRemote opens a trace continuing an incoming traceparent header:
// the upstream's sampling decision wins (flagged-sampled headers always
// trace, unsampled ones never do). An absent or malformed header falls
// back to Start's local head sampling.
func (t *Tracer) StartRemote(traceparent, name string) *Trace {
	if t == nil {
		return nil
	}
	id, sampled, ok := ParseTraceparent(traceparent)
	if !ok {
		return t.Start(name)
	}
	if !sampled {
		t.sampled.Add(1)
		return nil
	}
	return t.newTrace(name, id, true)
}

func (t *Tracer) newTrace(name, id string, remote bool) *Trace {
	t.started.Add(1)
	now := time.Now()
	tr := &Trace{id: id, start: now, sampled: true, remote: remote}
	tr.root = &Span{tr: tr, name: name, start: now}
	return tr
}

// newID derives a 32-hex-char trace id from the clock and the tracer's
// sequence counter — unique enough for ring-buffer forensics without
// consuming entropy on the request path.
func (t *Tracer) newID(n uint64) string {
	return fmt.Sprintf("%016x%016x", uint64(time.Now().UnixNano()), n)
}

// Finish ends the trace's root span, classifies the trace (slow/error),
// and retains its wire form: always in the recent ring, and additionally
// in the slow ring when slow or failed — the tail-based keep. Nil-safe.
func (t *Tracer) Finish(tr *Trace, err error) {
	if t == nil || tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.root.dur == 0 {
		tr.root.dur = time.Since(tr.root.start)
	}
	if err != nil {
		tr.root.err = true
	}
	dur := tr.root.dur
	tr.mu.Unlock()

	wt := tr.Wire()
	wt.Slow = dur >= t.cfg.SlowThreshold
	t.finished.Add(1)
	if wt.Slow {
		t.slow.Add(1)
	}
	if wt.Err {
		t.errs.Add(1)
	}
	t.mu.Lock()
	t.recent.push(wt)
	if wt.Slow || wt.Err {
		t.slowed.push(wt)
	}
	t.mu.Unlock()
}

// Recent returns the recent ring, newest first.
func (t *Tracer) Recent() []*WireTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.snapshot()
}

// Slow returns the slow/error ring (the slow-query log), newest first.
func (t *Tracer) Slow() []*WireTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slowed.snapshot()
}

// TracerStats is the tracer's own counter snapshot, exported on /metrics.
type TracerStats struct {
	Started     uint64 `json:"started"`
	HeadSkipped uint64 `json:"head_skipped"`
	Finished    uint64 `json:"finished"`
	Slow        uint64 `json:"slow"`
	Errors      uint64 `json:"errors"`
}

// Stats snapshots the tracer counters (zero on nil).
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		Started:     t.started.Load(),
		HeadSkipped: t.sampled.Load(),
		Finished:    t.finished.Load(),
		Slow:        t.slow.Load(),
		Errors:      t.errs.Load(),
	}
}

// WriteMetrics renders the tracer counters into w.
func (t *Tracer) WriteMetrics(w *PromWriter) {
	if t == nil {
		return
	}
	s := t.Stats()
	w.Counter("upanns_traces_started_total", "Traces started.", float64(s.Started))
	w.Counter("upanns_traces_finished_total", "Traces finished and retained.", float64(s.Finished))
	w.Counter("upanns_traces_slow_total", "Finished traces over the slow threshold.", float64(s.Slow))
	w.Counter("upanns_traces_error_total", "Finished traces that failed.", float64(s.Errors))
	w.Counter("upanns_traces_head_skipped_total", "Requests skipped by head sampling.", float64(s.HeadSkipped))
}

// RecentPayload is the GET /trace/recent response body.
type RecentPayload struct {
	Recent []*WireTrace `json:"recent"`
	Slow   []*WireTrace `json:"slow"`
}

// Handler returns the GET /trace/recent endpoint: the recent ring plus
// the slow/error ring, newest first.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, RecentPayload{Recent: t.Recent(), Slow: t.Slow()})
	})
}

// ring is a fixed-capacity overwrite buffer of finished traces.
type ring struct {
	buf  []*WireTrace
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]*WireTrace, n)} }

func (r *ring) push(wt *WireTrace) {
	r.buf[r.next] = wt
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns the ring contents newest-first.
func (r *ring) snapshot() []*WireTrace {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*WireTrace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
