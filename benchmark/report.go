package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// report is the -out file (and baseline.json): every metric of every
// workload, one value per repeat, with what is needed to read them.
type report struct {
	Meta      reportMeta                 `json:"meta"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type reportMeta struct {
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Repeats   int     `json:"repeats"`
	Scale     string  `json:"scale"`
	Clients   int     `json:"clients"` // closed-loop clients, min(nproc, 4)
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
}

// workloadReport holds one slice per metric: element r is repeat r.
type workloadReport struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
	Attempted []int                `json:"attempted"`
	Failed    []int                `json:"failed"`
	Searches  []int                `json:"search_samples"`
}

func newReport(seed uint64, seconds float64, repeats int, sc scale, clients int) *report {
	return &report{
		Meta: reportMeta{
			Seed: seed, Seconds: seconds, Repeats: repeats, Scale: sc.Name,
			Clients: clients, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		},
		Workloads: map[string]*workloadReport{},
	}
}

func (rep *report) add(r *runResult) {
	w := rep.Workloads[r.Workload]
	if w == nil {
		w = &workloadReport{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		rep.Workloads[r.Workload] = w
	}
	for name, val := range r.EndToEnd {
		w.EndToEnd[name] = append(w.EndToEnd[name], val)
	}
	for name, val := range r.PerLayer {
		w.PerLayer[name] = append(w.PerLayer[name], val)
	}
	w.Attempted = append(w.Attempted, r.Attempted)
	w.Failed = append(w.Failed, r.Failed)
	w.Searches = append(w.Searches, r.Searches)
}

func (rep *report) writeFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printResult writes one run's metrics by name with their units, then the
// latency budget when the run was traced.
func printResult(w io.Writer, r *runResult, clients int) {
	fmt.Fprintf(w, "\n== %s  (closed loop, C=%d clients; %d ops attempted, %d failed; p50/p99 over %d searches",
		r.Workload, clients, r.Attempted, r.Failed, r.Searches)
	if r.Writes > 0 {
		fmt.Fprintf(w, ", write_p50 over %d writes", r.Writes)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintln(w, "  wall time:"+r.Phases)
	fmt.Fprintf(w, "  whole window: %s (reported below: medians over its %d slices)\n", r.Whole, windowSlices)
	printMetrics(w, endToEnd, r.EndToEnd)
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(w, "  -- per layer (0 = does not apply to this workload)")
		printMetrics(w, perLayer, r.PerLayer)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "  -- latency budget (sequential replay; share of the loaded latency_p50_ms)\n")
		fmt.Fprintf(w, "  %-48s %12s %8s\n", "layer", "self us", "share")
		for _, row := range r.Budget {
			fmt.Fprintf(w, "  %-48s %12.1f %7.1f%%\n", row.Layer, row.SelfUs, 100*row.Share)
		}
	}
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, def := range defs {
		if val, ok := vals[def.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", def.Name, val, def.Unit)
		}
	}
}

// contractLine is the driver's result line: the last line of standard
// output, one JSON object.
func contractLine(r *runResult, trace bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]metric{}}
	list, vals := "end_to_end", r.EndToEnd
	if trace {
		list, vals = "per_layer", r.PerLayer
	}
	for _, def := range contractMetrics(list) {
		out.Metrics[def.Name] = metric{Value: vals[def.Name], Unit: def.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

// median and spread summarize one metric's repeats: the spread is the
// distance between the quartiles as a share of the median, quartiles as
// Python's statistics.quantiles(values, n=4) takes them (NaN under two
// values).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	// The default ("exclusive") method, clamping and all.
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(vals)
	if med == 0 {
		return math.NaN()
	}
	return (at(3) - at(1)) / math.Abs(med)
}
