package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded here, in the benchmark's own files, around each call
// into a layer's public functions; spans inside the program are a later
// issue. They stay in memory and are written out once, at exit.

// span is one timed call. Req ties the spans of one replayed request
// together (-1 for load-window requests, which have no children); Parent
// is the ID of the span one nesting depth above it for the same request (0
// for none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the log was created
	EndNs   int64  `json:"end_ns"`
}

type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span and returns its ID.
func (l *spanLog) add(name string, req, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(l.origin).Nanoseconds(), EndNs: end.Sub(l.origin).Nanoseconds(),
	})
	return id
}

// time runs fn inside a span.
func (l *spanLog) time(name string, req, parent int, fn func()) int {
	start := time.Now()
	fn()
	return l.add(name, req, parent, start, time.Now())
}

// durationsUs returns the durations of every span called name, in
// microseconds, sorted.
func (l *spanLog) durationsUs(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// medianUs is the median duration of the spans called name (0 if none).
func (l *spanLog) medianUs(name string) float64 { return quantileSorted(l.durationsUs(name), 0.5) }

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantileSorted reads quantile q off an ascending slice (nearest rank).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func quantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}
