package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON pins the Go tables (what is printed,
// what -compare bounds) to BENCHMARK.json (what the driver checks).
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, benchmark runs %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound, "end_to_end"})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better, 0, "per_layer"})
	}
	wantE2E, wantLayer := contractMetrics("end_to_end"), contractMetrics("per_layer")
	for i := range wantLayer {
		wantLayer[i].Bound = 0 // write_p50_ms keeps its -compare bound in Go only
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end differs:\n json %v\n go   %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("per_layer differs:\n json %v\n go   %v", layer, wantLayer)
	}
}

// TestSmoke runs every workload at tiny scale, end to end and traced, and
// checks the driver's result lines: every metric BENCHMARK.json declares,
// exactly once, finite, with nothing failed and the must-be-zero counters
// at zero.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, wl := range workloadNames {
		res, err := runWorkload(runOpts{
			Workload: wl, Seed: 3, Seconds: 1, E2E: true, Trace: true,
			Scale: tinyScale, Clients: 2, TmpRoot: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if !res.correct() || res.Failed != 0 || res.EndToEnd["error_rate"] != 0 {
			t.Errorf("%s: not correct: failed %d of %d, error_rate %v", wl, res.Failed, res.Attempted, res.EndToEnd["error_rate"])
		}
		for _, name := range mustBeZero {
			if res.EndToEnd[name] != 0 || res.PerLayer[name] != 0 {
				t.Errorf("%s: %s = %v / %v, want 0", wl, name, res.EndToEnd[name], res.PerLayer[name])
			}
		}
		if len(res.Budget) == 0 || res.Searches == 0 {
			t.Errorf("%s: no budget table or no searches", wl)
		}
		var declared [2][]string
		for _, m := range b.EndToEnd {
			declared[0] = append(declared[0], m.Name)
		}
		for _, m := range b.PerLayer {
			declared[1] = append(declared[1], m.Name)
		}
		for trace, want := range declared {
			line := contractLine(res, trace == 1)
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s trace %d: %v in %s", wl, trace, err, line)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", wl, trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", wl, trace, len(got.Metrics), len(want))
			}
			for _, name := range want {
				if n := strings.Count(line, `"`+name+`":`); n != 1 {
					t.Errorf("%s trace %d: %s appears %d times", wl, trace, name, n)
				}
				m, ok := got.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s trace %d: %s missing or not finite: %+v", wl, trace, name, m)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", wl, name, m.Value)
				}
			}
		}
		var out bytes.Buffer
		printResult(&out, res, 2)
		for _, def := range endToEnd {
			if !strings.Contains(out.String(), def.Name) {
				t.Errorf("%s: report does not print %s", wl, def.Name)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(qps, p99 []float64) *report {
		return &report{Workloads: map[string]*workloadReport{wlPlainFleet: {
			EndToEnd: map[string][]float64{"qps": qps, "latency_p99_ms": p99, "error_rate": {0}},
		}}}
	}
	var out bytes.Buffer
	a := mk([]float64{100, 101, 99, 100}, []float64{10, 10.1, 9.9, 10})
	if n := compare(&out, a, mk([]float64{97, 98, 96, 97}, []float64{10, 14, 6, 10})); n != 0 {
		t.Errorf("3%% slower qps within a 20%% bound counted as %d regressions:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a p99 spread of 80%% against a 25%% bound should be unresolved:\n%s", out.String())
	}
	out.Reset()
	if n := compare(&out, a, mk([]float64{70, 71, 69, 70}, []float64{10, 10, 10, 10})); n != 1 {
		t.Errorf("30%% slower qps: %d regressions, want 1:\n%s", n, out.String())
	}
	// The quartiles are Python's statistics.quantiles(range(1, 11), n=4):
	// 2.75 and 8.25 around a median of 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}
