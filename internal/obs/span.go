package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings on the
// wire; the constructors below format the common types.
type Attr struct {
	Key   string
	Value string
}

// Str returns a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Float returns a float attribute.
func Float(k string, v float64) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', 6, 64)}
}

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Span is one timed operation inside a trace. Spans form a tree under the
// trace's root; timestamps come from time.Time's monotonic clock, so
// durations are immune to wall-clock steps. All methods are nil-safe.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	dur      time.Duration
	err      bool
	attrs    []Attr
	children []*Span
}

// End stamps the span's duration (idempotent: the first End wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.dur == 0 {
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// SetAttrs appends annotations to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

// SetError marks the span failed.
func (s *Span) SetError() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.err = true
	s.tr.mu.Unlock()
}

// Trace is one request's span tree. The trace-level mutex serializes
// structural mutation because fanout layers add spans from many
// goroutines. All methods are nil-safe, so uninstrumented requests cost
// one nil check per call site.
type Trace struct {
	mu      sync.Mutex
	id      string
	root    *Span
	start   time.Time
	cost    *Cost // per-query cost vector, attached at completion
	sampled bool  // rides the traceparent flag downstream
	remote  bool  // started from an incoming traceparent header
}

// SetCost attaches the request's cost vector to the trace so the
// slow-query log carries it. Nil-safe on both sides.
func (tr *Trace) SetCost(c Cost) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.cost = &c
	tr.mu.Unlock()
}

// ID returns the trace identity (32 hex chars), or "" on nil.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// StartSpan opens a child span under parent (nil parent = under the
// root) starting now. Returns nil on a nil trace.
func (tr *Trace) StartSpan(parent *Span, name string) *Span {
	if tr == nil {
		return nil
	}
	return tr.addSpan(parent, name, time.Now(), 0, nil)
}

// AddSpan records a span with explicit timing — for stages measured
// after the fact, like queue waits that are only known once a worker
// picks the batch up. A nil parent attaches under the root.
func (tr *Trace) AddSpan(parent *Span, name string, start time.Time, dur time.Duration, attrs ...Attr) *Span {
	if tr == nil {
		return nil
	}
	if dur < 0 {
		dur = 0
	}
	return tr.addSpan(parent, name, start, dur, attrs)
}

func (tr *Trace) addSpan(parent *Span, name string, start time.Time, dur time.Duration, attrs []Attr) *Span {
	s := &Span{tr: tr, name: name, start: start, dur: dur, attrs: attrs}
	tr.mu.Lock()
	if parent == nil {
		parent = tr.root
	}
	parent.children = append(parent.children, s)
	tr.mu.Unlock()
	return s
}

// AddStages replays a StageLog's records as child spans of parent.
// Batched serving needs this: a backend call serves a whole micro-batch,
// so per-request traces get the shared stage timings replicated under
// each request's dispatch span.
func (tr *Trace) AddStages(parent *Span, recs []StageRecord) {
	if tr == nil {
		return
	}
	for _, rec := range recs {
		tr.AddSpan(parent, rec.Name, rec.Start, rec.Dur, rec.Attrs...)
	}
}

// Graft attaches a wire-form span tree (a shard's response annotation)
// under parent, re-basing the shard-relative offsets onto the parent
// span's start so the distributed trace reads as one timeline.
func (tr *Trace) Graft(parent *Span, ws *WireSpan) {
	if tr == nil || ws == nil {
		return
	}
	tr.mu.Lock()
	if parent == nil {
		parent = tr.root
	}
	base := parent.start
	parent.children = append(parent.children, ws.toSpan(tr, base))
	tr.mu.Unlock()
}

// toSpan converts a wire span (offsets relative to its trace start) into
// a live span based at base.
func (ws *WireSpan) toSpan(tr *Trace, base time.Time) *Span {
	s := &Span{
		tr:    tr,
		name:  ws.Name,
		start: base.Add(time.Duration(ws.Start * float64(time.Second))),
		dur:   time.Duration(ws.Dur * float64(time.Second)),
		err:   ws.Err,
	}
	for k, v := range ws.Attrs {
		s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	}
	for _, c := range ws.Children {
		s.children = append(s.children, c.toSpan(tr, base))
	}
	return s
}

// StageRecord is one backend stage timing collected outside a trace (the
// backend does not know which requests ride the batch it is serving).
type StageRecord struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs []Attr
}

// StageLog collects stage records during one backend dispatch. It is
// used from a single worker goroutine; a nil log is a no-op collector,
// so backends record unconditionally and untraced dispatches pay only
// the nil check.
type StageLog struct {
	recs []StageRecord
}

// Record appends a stage that started at start and ends now.
func (l *StageLog) Record(name string, start time.Time, attrs ...Attr) {
	if l == nil {
		return
	}
	l.recs = append(l.recs, StageRecord{Name: name, Start: start, Dur: time.Since(start), Attrs: attrs})
}

// Records returns the collected stages (nil on a nil log).
func (l *StageLog) Records() []StageRecord {
	if l == nil {
		return nil
	}
	return l.recs
}

// WireSpan is the JSON form of one span: offsets and durations in
// seconds relative to the trace start, so a span tree is meaningful
// across processes without clock agreement.
type WireSpan struct {
	Name     string            `json:"name"`
	Start    float64           `json:"start_seconds"`
	Dur      float64           `json:"duration_seconds"`
	Err      bool              `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*WireSpan       `json:"children,omitempty"`
}

// WireTrace is the JSON form of one finished trace as served by
// GET /trace/recent. Stages flattens the tree into per-span-name total
// seconds — the slow-query log's per-stage breakdown.
type WireTrace struct {
	TraceID string             `json:"trace_id"`
	Name    string             `json:"name"`
	Dur     float64            `json:"duration_seconds"`
	Err     bool               `json:"error,omitempty"`
	Slow    bool               `json:"slow,omitempty"`
	Stages  map[string]float64 `json:"stage_seconds,omitempty"`
	// Cost is the request's resource vector when cost accounting ran —
	// the slow-query log's "what did this query actually move" column.
	Cost *Cost     `json:"cost,omitempty"`
	Root *WireSpan `json:"root"`
}

// Wire renders the trace's current span tree in wire form (nil on a nil
// trace). Call it after Finish so the root duration is stamped.
func (tr *Trace) Wire() *WireTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	root := tr.root.wire(tr.start)
	wt := &WireTrace{
		TraceID: tr.id,
		Name:    tr.root.name,
		Dur:     root.Dur,
		Err:     tr.root.err,
		Cost:    tr.cost,
		Root:    root,
		Stages:  map[string]float64{},
	}
	root.sumStages(wt.Stages)
	return wt
}

// WireRoot renders just the span tree — the shard response annotation.
func (tr *Trace) WireRoot() *WireSpan {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.root.wire(tr.start)
}

// wire converts the span subtree; caller holds tr.mu.
func (s *Span) wire(base time.Time) *WireSpan {
	ws := &WireSpan{
		Name:  s.name,
		Start: s.start.Sub(base).Seconds(),
		Dur:   s.dur.Seconds(),
		Err:   s.err,
	}
	if len(s.attrs) > 0 {
		ws.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			ws.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		ws.Children = append(ws.Children, c.wire(base))
	}
	return ws
}

// sumStages accumulates per-name child durations (the root itself is
// excluded: it is the total, not a stage).
func (ws *WireSpan) sumStages(into map[string]float64) {
	for _, c := range ws.Children {
		into[c.Name] += c.Dur
		c.sumStages(into)
	}
}

// ctxKey is the context key type for trace plumbing.
type ctxKey struct{}

// WithTrace returns ctx carrying tr (ctx unchanged when tr is nil).
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
