// Package bench reproduces the paper's evaluation: one runner per table and
// figure of Section 5, each emitting printable tables whose rows mirror
// what the paper reports, plus the accuracy check across backends and the
// kernels experiment (the ADC kernels' bit-identity and speedup gate).
// Absolute numbers come from the scaled-down simulated deployment. The
// live serving path is measured by the repo benchmark (go run ./benchmark),
// not here.
//
// Scaling rule: the paper runs 1B vectors on 896 DPUs with IVF
// {4096, 8192, 16384} and nprobe {64, 128, 256}. The harness defaults keep
// the structural ratios (clusters per DPU, probed fraction, vectors per
// cluster large enough that the distance stage dominates) at a size a unit
// machine simulates in minutes: N=48k vectors on 32 DPUs with IVF
// {32, 64, 128} and nprobe {4, 8, 16}.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ivfpq"
	"repro/internal/metrics"
	"repro/internal/pim"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// Options sizes the scaled-down experiments.
type Options struct {
	N          int   // base vectors per dataset
	Queries    int   // queries per batch (paper: 1000)
	DPUs       int   // simulated DPUs (paper: 896)
	IVFGrid    []int // cluster counts (paper: 4096, 8192, 16384)
	NProbeGrid []int // probes (paper: 64, 128, 256)
	K          int   // top-k (paper default 10)
	KSub       int   // PQ centroids per subspace; scaled below 256 so the
	// fixed per-probe LUT cost keeps the paper's ratio to the reduced
	// cluster sizes
	TrainSub int // training subsample
	Seed     uint64
}

// DefaultOptions returns the scaled defaults described in the package
// comment.
func DefaultOptions() Options {
	return Options{
		N:          48000,
		Queries:    200,
		DPUs:       32,
		IVFGrid:    []int{32, 64, 128},
		NProbeGrid: []int{4, 8, 16},
		K:          10,
		KSub:       64,
		TrainSub:   8192,
		Seed:       1,
	}
}

// QuickOptions returns a reduced grid for fast smoke runs (tests, CI).
func QuickOptions() Options {
	o := DefaultOptions()
	o.N = 20000
	o.Queries = 80
	o.DPUs = 16
	o.IVFGrid = []int{16, 32}
	o.NProbeGrid = []int{4, 8}
	return o
}

// Artifact is a machine-readable experiment result: JSON-serializable
// and self-checking. cmd/upanns-bench writes artifacts as BENCH_<id>.json
// and the CI bench-smoke job fails on any reported violation.
type Artifact interface {
	// Violations returns the acceptance-shape regressions this run
	// exhibits; empty means healthy.
	Violations() []string
}

// Report is one experiment's output.
type Report struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
	// Artifact is the experiment's machine-readable payload (nil for
	// table-only experiments).
	Artifact Artifact
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// setup bundles one dataset's trained index and query batch.
type setup struct {
	spec    dataset.Spec
	ds      *dataset.Dataset
	ix      *ivfpq.Index
	queries *vecmath.Matrix
	freqs   []float64
}

// Context caches dataset/index builds across experiments; create one and
// run the experiments you need against it.
type Context struct {
	O       Options
	setups  map[string]*setup
	engines map[string]*core.Engine
	grid    map[string]*gridResult
}

// NewContext returns a fresh harness context.
func NewContext(o Options) *Context {
	return &Context{
		O:       o,
		setups:  map[string]*setup{},
		engines: map[string]*core.Engine{},
		grid:    map[string]*gridResult{},
	}
}

// getSetup builds (or returns cached) dataset + index for spec at nlist.
func (c *Context) getSetup(spec dataset.Spec, nlist int) *setup {
	key := fmt.Sprintf("%s/%d", spec.Name, nlist)
	if s, ok := c.setups[key]; ok {
		return s
	}
	ds := dataset.Generate(spec, c.O.N, c.O.Seed)
	ix := ivfpq.Train(ds.Vectors, ivfpq.Params{
		NList: nlist, M: spec.M, KSub: c.O.KSub, Seed: c.O.Seed + 7, TrainSub: c.O.TrainSub,
	})
	ix.Add(ds.Vectors, 0)
	queries := ds.Queries(c.O.Queries, c.O.Seed+13)
	// Historical frequencies from an independent sample, as the offline
	// phase would observe.
	hist := ds.Queries(c.O.Queries, c.O.Seed+29)
	maxProbe := 1
	for _, np := range c.O.NProbeGrid {
		if np > maxProbe {
			maxProbe = np
		}
	}
	freqs := workload.ClusterFrequencies(ix.Coarse, hist, maxProbe)
	s := &setup{spec: spec, ds: ds, ix: ix, queries: queries, freqs: freqs}
	c.setups[key] = s
	return s
}

// newSystem builds a PIM system with n DPUs (defaults to Options.DPUs).
func (c *Context) newSystem(n int) *pim.System {
	if n <= 0 {
		n = c.O.DPUs
	}
	spec := pim.DefaultSpec()
	spec.NumDIMMs = 1
	spec.DPUsPerDIMM = n
	return pim.NewSystem(spec)
}

// getEngine builds (or returns cached) an UpANNS engine; cfgKey must
// uniquely describe cfg's build-relevant fields.
func (c *Context) getEngine(s *setup, cfg core.Config, cfgKey string, dpus int) (*core.Engine, error) {
	key := fmt.Sprintf("%s/%d/%d/%s", s.spec.Name, s.ix.NList(), dpus, cfgKey)
	if e, ok := c.engines[key]; ok {
		// Reconfigure the search-time knobs on the cached engine if they
		// match the build-time layout; otherwise rebuild.
		if e.Cfg.Tasklets == cfg.Tasklets && e.Cfg.VectorsPerRead == cfg.VectorsPerRead && e.Cfg.K == cfg.K {
			e.Cfg.NProbe = cfg.NProbe
			return e, nil
		}
	}
	e, err := core.Build(s.ix, c.newSystem(dpus), s.freqs, cfg)
	if err != nil {
		return nil, err
	}
	c.engines[key] = e
	return e, nil
}

func buildKey(cfg core.Config) string {
	return fmt.Sprintf("t%d-r%d-k%d-cae%v-pl%v-pr%v",
		cfg.Tasklets, cfg.VectorsPerRead, cfg.K, cfg.UseCAE, cfg.UsePlacement, cfg.UsePruning)
}

// upannsConfig returns the default engine config at the harness K.
func (c *Context) upannsConfig(nprobe int) core.Config {
	cfg := core.DefaultConfig()
	cfg.NProbe = nprobe
	cfg.K = c.O.K
	cfg.Seed = c.O.Seed
	return cfg
}

// naiveConfig returns the PIM-naive config at the harness K.
func (c *Context) naiveConfig(nprobe int) core.Config {
	cfg := core.NaiveConfig()
	cfg.NProbe = nprobe
	cfg.K = c.O.K
	cfg.Seed = c.O.Seed
	return cfg
}

// paperScaleIndexBytes models the billion-scale resident size of a
// dataset's index on a conventional device (used for the GPU capacity
// checks in Fig. 12 at paper scale).
func paperScaleIndexBytes(spec dataset.Spec) int64 {
	const paperN = 1_000_000_000
	perVec := int64(spec.M + 8) // codes + id
	if spec.Name == dataset.DEEP1B.Name {
		// The paper marks Faiss-GPU out-of-memory on DEEP1B (Fig. 12,
		// blue X): the GPU build additionally keeps re-ranking vectors
		// resident, which exceeds the A100's 80 GB.
		perVec += int64(spec.Dim) * 4
	}
	return paperN * perVec
}

// platformScale is the fraction of the paper's 896-DPU deployment this
// harness simulates; the CPU/GPU comparators are scaled by the same
// factor so Table 1's platform ratios are preserved at reduced size.
func (c *Context) platformScale() float64 {
	return float64(c.O.DPUs) / 896.0
}

// runBaselines executes the CPU and GPU comparators for one setting, at
// the harness' platform scale.
func (c *Context) runBaselines(s *setup, queries *vecmath.Matrix, nprobe, k int) (cpu, gpu *baseline.Result, err error) {
	f := c.platformScale()
	cb := baseline.NewCPU(s.ix)
	cb.Dev = cb.Dev.Scaled(f)
	cpu, err = cb.SearchBatch(queries, nprobe, k)
	if err != nil {
		return nil, nil, err
	}
	g := baseline.NewGPU(s.ix)
	g.Dev = g.Dev.Scaled(f)
	g.ModelIndexBytes = paperScaleIndexBytes(s.spec)
	gpu, err = g.SearchBatch(queries, nprobe, k)
	return cpu, gpu, err
}

// Experiment is a named runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Report, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Hardware specifications", (*Context).Table1},
		{"intro", "Graph vs compression motivation", (*Context).Intro},
		{"fig1", "CPU/GPU stage breakdown vs dataset scale", (*Context).Fig1},
		{"fig4", "Cluster access/size/workload skew", (*Context).Fig4},
		{"fig7", "MRAM read latency vs transfer size", (*Context).Fig7},
		{"fig10", "QPS vs Faiss-CPU and PIM-naive", (*Context).Fig10},
		{"fig11", "Workload balance (max/avg) ablation", (*Context).Fig11},
		{"fig12", "QPS and QPS/W vs Faiss-GPU", (*Context).Fig12},
		{"fig13", "QPS vs tasklets per DPU", (*Context).Fig13},
		{"fig14", "Co-occurrence encoding gain vs length reduction", (*Context).Fig14},
		{"fig15", "Top-k pruning time reduction", (*Context).Fig15},
		{"fig16", "Batch size vs query latency", (*Context).Fig16},
		{"fig17", "MRAM read size vs QPS", (*Context).Fig17},
		{"fig18", "Top-k size vs QPS", (*Context).Fig18},
		{"fig19", "Query time breakdown per architecture", (*Context).Fig19},
		{"fig20", "Scalability vs DPU count", (*Context).Fig20},
		{"kernels", "ADC kernel bandwidth vs roofline", (*Context).Kernels},
		{"recall", "Accuracy validation across backends", (*Context).RecallCheck},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
