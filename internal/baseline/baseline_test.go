package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ivfpq"
	"repro/internal/pim"
	"repro/internal/workload"
)

func buildIndex(t testing.TB) (*ivfpq.Index, *dataset.Dataset) {
	t.Helper()
	spec := dataset.Spec{
		Name: "test", Dim: 32, M: 8,
		Anchors: 16, SizeSkew: 0.9, QuerySkew: 0.9, Noise: 0.2,
		MotifProb: 0.3, MotifCount: 3, MotifSpan: 2,
	}
	ds := dataset.Generate(spec, 6000, 7)
	ix := ivfpq.Train(ds.Vectors, ivfpq.Params{NList: 16, M: 8, Seed: 3})
	ix.Add(ds.Vectors, 0)
	return ix, ds
}

func TestCPUAndGPUReturnSameResults(t *testing.T) {
	// Both run the identical functional pipeline; only the clock differs.
	ix, ds := buildIndex(t)
	queries := ds.Queries(20, 9)
	cpu, err := NewCPU(ix).SearchBatch(queries, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := NewGPU(ix).SearchBatch(queries, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range cpu.Results {
		if len(cpu.Results[qi]) != len(gpu.Results[qi]) {
			t.Fatalf("query %d lengths differ", qi)
		}
		for i := range cpu.Results[qi] {
			if cpu.Results[qi][i] != gpu.Results[qi][i] {
				t.Fatalf("query %d rank %d differs", qi, i)
			}
		}
	}
}

func TestGPUFasterThanCPUOnScans(t *testing.T) {
	ix, ds := buildIndex(t)
	queries := ds.Queries(50, 11)
	cpu, _ := NewCPU(ix).SearchBatch(queries, 8, 10)
	gpu, _ := NewGPU(ix).SearchBatch(queries, 8, 10)
	if gpu.Stages.Distance >= cpu.Stages.Distance {
		t.Errorf("GPU distance %v not faster than CPU %v", gpu.Stages.Distance, cpu.Stages.Distance)
	}
}

func TestGPUOOMViaModelBytes(t *testing.T) {
	ix, ds := buildIndex(t)
	queries := ds.Queries(5, 13)
	gpu := NewGPU(ix)
	gpu.ModelIndexBytes = 100 << 30
	res, err := gpu.SearchBatch(queries, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Fatal("expected OOM with 100 GiB modelled index")
	}
	if res.Results != nil {
		t.Fatal("OOM result must carry no results")
	}
}

func TestQPSWUsesPeakPower(t *testing.T) {
	ix, ds := buildIndex(t)
	queries := ds.Queries(10, 15)
	cpu, _ := NewCPU(ix).SearchBatch(queries, 4, 10)
	if cpu.QPSW <= 0 || cpu.QPSW != cpu.QPS/190 {
		t.Errorf("QPS/W = %v with QPS %v", cpu.QPSW, cpu.QPS)
	}
}

func TestIndexBytes(t *testing.T) {
	ix, _ := buildIndex(t)
	got := IndexBytes(ix)
	want := ix.NTotal*int64(8+8) + int64(16*32*4) + int64(len(ix.PQ.Codebooks)*4)
	if got != want {
		t.Fatalf("IndexBytes = %d, want %d", got, want)
	}
}

func TestPIMNaiveMatchesReference(t *testing.T) {
	ix, ds := buildIndex(t)
	queries := ds.Queries(15, 17)
	spec := pim.DefaultSpec()
	spec.NumDIMMs = 1
	spec.DPUsPerDIMM = 8
	sys := pim.NewSystem(spec)
	cfg := core.NaiveConfig()
	cfg.NProbe, cfg.K = 4, 10
	naive, err := core.Build(ix, sys, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	br, err := naive.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.Rows; qi++ {
		want, _ := ix.Search(queries.Row(qi), ivfpq.SearchOpts{NProbe: 4, K: 10, Quantized: true})
		if len(br.Results[qi]) != len(want) {
			t.Fatalf("query %d: lengths %d vs %d", qi, len(br.Results[qi]), len(want))
		}
		for i := range want {
			if br.Results[qi][i].Dist != want[i].Dist {
				t.Fatalf("query %d rank %d: dist %v vs %v", qi, i, br.Results[qi][i].Dist, want[i].Dist)
			}
		}
	}
}

func TestBaselineDimMismatch(t *testing.T) {
	ix, _ := buildIndex(t)
	other := dataset.Generate(dataset.DEEP1B, 10, 1)
	if _, err := NewCPU(ix).SearchBatch(other.Vectors, 4, 10); err == nil {
		t.Fatal("no error for dim mismatch")
	}
}

func TestClusterFrequenciesFeedPlacement(t *testing.T) {
	// Smoke test of the full offline path: freqs -> Build -> search.
	ix, ds := buildIndex(t)
	queries := ds.Queries(30, 19)
	freqs := workload.ClusterFrequencies(ix.Coarse, queries, 4)
	if len(freqs) != ix.NList() {
		t.Fatalf("freqs len %d", len(freqs))
	}
}
