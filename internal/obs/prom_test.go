package obs

import (
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// parseProm is a minimal exposition-format checker shared with the
// cluster demo smoke: every non-comment line must be
// `name{labels} value` with a parseable float value.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		vals[line[:sp]] = v
	}
	return vals
}

func TestPromWriterFormat(t *testing.T) {
	w := NewPromWriter()
	w.Counter("upanns_test_total", "A counter.", 42)
	w.Gauge("upanns_test_depth", "A gauge.", 3.5)
	w.Gauge("upanns_test_shard", "Labelled.", 1, "shard", "0")
	w.Gauge("upanns_test_shard", "Labelled.", 0, "shard", `we"ird`)
	out := string(w.Bytes())

	if strings.Count(out, "# TYPE upanns_test_shard gauge") != 1 {
		t.Fatalf("TYPE line not deduplicated:\n%s", out)
	}
	vals := parseProm(t, out)
	if vals["upanns_test_total"] != 42 || vals["upanns_test_depth"] != 3.5 {
		t.Fatalf("values lost: %v", vals)
	}
	if vals[`upanns_test_shard{shard="0"}`] != 1 {
		t.Fatalf("labelled series lost: %v", vals)
	}
	if !strings.Contains(out, `shard="we\"ird"`) {
		t.Fatalf("label escaping broken:\n%s", out)
	}
	names := make([]string, 0, len(w.typed))
	for n := range w.typed {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) != 3 || names[0] != "upanns_test_depth" {
		t.Fatalf("names %v", names)
	}
}

func TestPromSummary(t *testing.T) {
	h := metrics.NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(0.010)
	}
	w := NewPromWriter()
	w.Summary("upanns_test_latency_seconds", "Latency.", h.Snapshot())
	vals := parseProm(t, string(w.Bytes()))
	if vals["upanns_test_latency_seconds_count"] != 100 {
		t.Fatalf("summary count: %v", vals)
	}
	if s := vals["upanns_test_latency_seconds_sum"]; s < 0.9 || s > 1.1 {
		t.Fatalf("summary sum %v, want ~1.0", s)
	}
	p99 := vals[`upanns_test_latency_seconds{quantile="0.99"}`]
	if p99 < 0.008 || p99 > 0.012 {
		t.Fatalf("p99 %v, want ~0.010", p99)
	}
}

func TestMetricsHandler(t *testing.T) {
	handler := MetricsHandler(func(w *PromWriter) {
		Process().WriteMetrics(w)
		Kernel.WriteMetrics(w)
	})
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	vals := parseProm(t, rec.Body.String())
	if _, ok := vals["upanns_kernel_roofline_gbps"]; !ok {
		t.Fatalf("roofline gauge missing: %v", vals)
	}
	if vals["upanns_process_goroutines"] <= 0 {
		t.Fatalf("goroutines gauge missing: %v", vals)
	}
}
