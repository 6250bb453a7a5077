package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/metrics"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). It is a single-use buffer: a MetricsHandler builds one
// per scrape, the collect callback fills it, and the buffer is written
// out. HELP/TYPE lines are emitted once per metric name, so a name may be
// written repeatedly with different label sets.
type PromWriter struct {
	buf   bytes.Buffer
	typed map[string]bool
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter {
	return &PromWriter{typed: make(map[string]bool)}
}

// Counter writes a cumulative counter sample. labels are alternating
// key/value pairs.
func (w *PromWriter) Counter(name, help string, v float64, labels ...string) {
	w.sample(name, help, "counter", v, labels)
}

// Gauge writes a current-value gauge sample.
func (w *PromWriter) Gauge(name, help string, v float64, labels ...string) {
	w.sample(name, help, "gauge", v, labels)
}

// Summary writes a latency histogram snapshot as a summary metric:
// quantile-labelled series plus _sum and _count. The repo's histograms
// have ~1300 geometric buckets — exporting them as a native Prometheus
// histogram would emit a series per bucket — so the precomputed
// quantiles are the exposition.
func (w *PromWriter) Summary(name, help string, s metrics.Snapshot, labels ...string) {
	w.header(name, help, "summary")
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
		w.series(name, append(append([]string(nil), labels...), "quantile", q.q), q.v)
	}
	w.series(name+"_sum", labels, s.Mean*float64(s.Count))
	w.series(name+"_count", labels, float64(s.Count))
}

func (w *PromWriter) sample(name, help, typ string, v float64, labels []string) {
	w.header(name, help, typ)
	w.series(name, labels, v)
}

func (w *PromWriter) header(name, help, typ string) {
	if w.typed[name] {
		return
	}
	w.typed[name] = true
	w.buf.WriteString("# HELP " + name + " " + help + "\n")
	w.buf.WriteString("# TYPE " + name + " " + typ + "\n")
}

func (w *PromWriter) series(name string, labels []string, v float64) {
	w.buf.WriteString(name)
	if len(labels) >= 2 {
		// Emit label pairs sorted by key regardless of caller order:
		// scrapes must be byte-stable run to run so /metrics diffs and
		// the CI scrape check are reproducible, and Prometheus treats
		// {a="1",b="2"} and {b="2",a="1"} as the same series anyway.
		if !labelKeysSorted(labels) {
			labels = sortLabelPairs(labels)
		}
		w.buf.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			w.buf.WriteString(labels[i])
			w.buf.WriteString(`="`)
			w.buf.WriteString(escapeLabel(labels[i+1]))
			w.buf.WriteByte('"')
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	w.buf.WriteByte('\n')
}

// labelKeysSorted reports whether the alternating key/value pairs are
// already in key order — the common case (single label, or callers
// passing keys alphabetically), which keeps the sort allocation off the
// scrape path.
func labelKeysSorted(labels []string) bool {
	for i := 2; i+1 < len(labels); i += 2 {
		if labels[i] < labels[i-2] {
			return false
		}
	}
	return true
}

// sortLabelPairs returns a copy of the alternating key/value pairs
// sorted by key (stable, so duplicate keys keep caller order).
func sortLabelPairs(labels []string) []string {
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, 2*n)
	for _, i := range idx {
		out = append(out, labels[2*i], labels[2*i+1])
	}
	return out
}

// escapeLabel escapes label values per the exposition format.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// Bytes returns the rendered exposition.
func (w *PromWriter) Bytes() []byte { return w.buf.Bytes() }

// MetricsHandler turns a collect callback into a GET /metrics endpoint.
// The callback runs once per scrape against a fresh writer.
func MetricsHandler(collect func(w *PromWriter)) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w := NewPromWriter()
		collect(w)
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rw.Write(w.Bytes()) //nolint:errcheck // best-effort response write
	})
}

// writeJSON is the package-local JSON response helper (internal/serve has
// one too, but obs sits below serve in the import graph).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response write
}
