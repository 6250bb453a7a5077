package main

import "time"

// Workload names; BENCHMARK.json, the README and baseline.json use the
// same strings.
const (
	wlPlainFleet    = "plain_fleet"
	wlFilteredFleet = "filtered_fleet"
	wlMixedSingle   = "mixed_single"
	wlTieredCold    = "tiered_cold"
)

var workloadNames = []string{wlPlainFleet, wlFilteredFleet, wlMixedSingle, wlTieredCold}

// programSeed is what every program constructor that wants a seed gets
// (k-means, the engine's placement). The workload seed never reaches the
// program: it only shapes the vectors, ids and filters the benchmark
// generates, so two seeds exercise the same code on different inputs.
const programSeed = 1

// scale sizes one benchmark run. fullScale is what BENCHMARK.json and
// baseline.json measure; the smoke test shrinks it.
type scale struct {
	Name     string
	PerShard int // vectors per shard
	NList    int // IVF clusters per shard (about sqrt(PerShard))
	TrainSub int // training subsample per shard
	NProbe   int
	K        int
	DPUs     int // simulated DPUs per shard

	Warm        time.Duration // minimum warm-up
	Settle      time.Duration // how long Stats().Compactions must hold still
	WarmCap     time.Duration // give up waiting for a steady compaction count
	HeldOut     int           // recall queries
	TraceSample int           // requests replayed per nesting depth
	OracleCheck int           // sample searches compared with SearchOracle
	InsertPool  int           // vectors available to mixed_single's upserts
	MaxLogRatio float64       // mixed_single's compaction trigger
}

// fullScale follows ISSUE 11: SIFT1B-like vectors, 60k per shard, IVF
// 256 (at IVF 64 a single probe already returns the oracle's answer, so a
// dropped probe would be invisible), nprobe 8, k 10, 16 simulated DPUs.
// MaxLogRatio 0.005 folds the overlay every 300 log entries (the default
// 0.15 would fold once in 45 s at this write rate), so at least three
// log-triggered compactions complete inside one measured window.
var fullScale = scale{
	Name:     "full",
	PerShard: 60000, NList: 256, TrainSub: 8192, NProbe: 8, K: 10, DPUs: 16,
	Warm: 5 * time.Second, Settle: 2 * time.Second, WarmCap: 12 * time.Second,
	HeldOut: 500, TraceSample: 400, OracleCheck: 50,
	InsertPool: 24000, MaxLogRatio: 0.005,
}

// tinyScale is the tier-1 smoke test's size: the same code paths in a
// second or two per workload.
var tinyScale = scale{
	Name:     "tiny",
	PerShard: 2000, NList: 32, TrainSub: 1024, NProbe: 4, K: 10, DPUs: 4,
	Warm: 300 * time.Millisecond, Settle: 200 * time.Millisecond, WarmCap: 2 * time.Second,
	HeldOut: 40, TraceSample: 48, OracleCheck: 8,
	InsertPool: 2000, MaxLogRatio: 0.02,
}

// metricDef declares one metric: the name and unit printed, which way is
// better, and for end-to-end metrics the share of the baseline's median by
// which it may worsen before -compare calls it a regression. Contract says
// which list of BENCHMARK.json carries it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Bound  float64
	// Contract is "end_to_end" or "per_layer". write_p50_ms and
	// error_rate are end-to-end metrics of the report, but BENCHMARK.json
	// lists them under per_layer: its end-to-end metrics must be non-zero
	// on every workload, and these two are 0 on most.
	Contract string
}

// endToEnd are the metrics a client of the deployment sees.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.20, "end_to_end"},
	{"latency_p50_ms", "ms", "lower", 0.20, "end_to_end"},
	{"latency_p99_ms", "ms", "lower", 0.25, "end_to_end"},
	{"write_p50_ms", "ms", "lower", 0.20, "per_layer"},
	{"error_rate", "ratio", "lower", 0, "per_layer"},
	{"recall_at_10", "ratio", "higher", 0.25, "end_to_end"},
	{"setup_s", "s", "lower", 0.25, "end_to_end"},
	{"heap_mb", "MiB", "lower", 0.15, "end_to_end"},
}

// perLayer are the single-layer metrics, in the order the README's
// glossary explains them. A metric that does not apply to a workload
// (cluster.* on one shard, tier.* without a cold tier) reads 0 there.
var perLayer = []metricDef{
	{"cluster.http_self_us", "us", "lower", 0, "per_layer"},
	{"cluster.search_us", "us", "lower", 0, "per_layer"},
	{"cluster.self_us", "us", "lower", 0, "per_layer"},
	{"cluster.fanout_skew_us", "us", "lower", 0, "per_layer"},
	{"cluster.merge_us", "us", "lower", 0, "per_layer"},
	{"cluster.degraded", "count", "lower", 0, "per_layer"},

	{"serve.http_us", "us", "lower", 0, "per_layer"},
	{"serve.http_self_us", "us", "lower", 0, "per_layer"},
	{"serve.json_decode_us", "us", "lower", 0, "per_layer"},
	{"serve.json_encode_us", "us", "lower", 0, "per_layer"},
	{"serve.request_bytes", "B", "lower", 0, "per_layer"},
	{"serve.response_bytes", "B", "lower", 0, "per_layer"},
	{"serve.search_us", "us", "lower", 0, "per_layer"},
	{"serve.sched_self_us", "us", "lower", 0, "per_layer"},
	{"serve.batch_mean", "count", "higher", 0, "per_layer"},
	{"serve.shed", "count", "lower", 0, "per_layer"},
	{"serve.expired", "count", "lower", 0, "per_layer"},
	{"serve.write_us", "us", "lower", 0, "per_layer"},
	{"serve.write_p99_us", "us", "lower", 0, "per_layer"},

	{"mutable.search_us", "us", "lower", 0, "per_layer"},
	{"mutable.search_b32_us_per_query", "us", "lower", 0, "per_layer"},
	{"mutable.self_us", "us", "lower", 0, "per_layer"},
	{"mutable.overlay_pending", "count", "lower", 0, "per_layer"},
	{"mutable.compactions", "count", "higher", 0, "per_layer"},
	{"mutable.compaction_busy_share", "ratio", "lower", 0, "per_layer"},
	{"mutable.max_pause_ms", "ms", "lower", 0, "per_layer"},
	{"mutable.oracle_recall", "ratio", "higher", 0, "per_layer"},
	{"mutable.ryw_rate", "ratio", "higher", 0, "per_layer"},
	{"mutable.tombstone_leaks", "count", "lower", 0, "per_layer"},

	{"core.searchbatch_us_per_query", "us", "lower", 0, "per_layer"},
	{"core.searchbatch_b32_us_per_query", "us", "lower", 0, "per_layer"},
	{"core.host_over_native", "ratio", "lower", 0, "per_layer"},
	{"core.native_mismatches", "count", "lower", 0, "per_layer"},
	{"core.sim_qps", "1/s", "higher", 0, "per_layer"},
	{"core.sim_dist_share", "ratio", "lower", 0, "per_layer"},
	{"core.sim_balance", "ratio", "lower", 0, "per_layer"},

	{"ivfpq.search_us", "us", "lower", 0, "per_layer"},
	{"ivfpq.codes_per_query", "count", "lower", 0, "per_layer"},
	{"ivfpq.allocs_per_search", "count", "lower", 0, "per_layer"},
	{"ivf.probe_us", "us", "lower", 0, "per_layer"},
	{"pq.lut_build_us", "us", "lower", 0, "per_layer"},
	{"pq.scan_gbps", "GB/s", "higher", 0, "per_layer"},
	{"pq.scan_at_gbps_1pct", "GB/s", "higher", 0, "per_layer"},
	{"pq.scan_at_gbps_50pct", "GB/s", "higher", 0, "per_layer"},

	{"filter.parse_us", "us", "lower", 0, "per_layer"},
	{"filter.eval_us", "us", "lower", 0, "per_layer"},
	{"filter.pre_share", "ratio", "higher", 0, "per_layer"},
	{"filter.violations", "count", "lower", 0, "per_layer"},

	{"tier.search_us", "us", "lower", 0, "per_layer"},
	{"tier.hit_rate", "ratio", "higher", 0, "per_layer"},
	{"tier.cold_bytes_per_query", "B", "lower", 0, "per_layer"},
	{"tier.cold_gbps", "GB/s", "higher", 0, "per_layer"},
	{"tier.prefetch_hit_share", "ratio", "higher", 0, "per_layer"},
	{"tier.skipped_clusters", "count", "lower", 0, "per_layer"},

	{"process.alloc_bytes_per_op", "B", "lower", 0, "per_layer"},
	{"process.allocs_per_op", "count", "lower", 0, "per_layer"},
	{"process.gc_pause_ms", "ms", "lower", 0, "per_layer"},
	{"process.cpu_s_per_kop", "s", "lower", 0, "per_layer"},
	{"trace.overhead_pct", "%", "lower", 0, "per_layer"},
}

// contractMetrics returns the metrics BENCHMARK.json carries in list
// ("end_to_end" or "per_layer"), in declaration order.
func contractMetrics(list string) []metricDef {
	var out []metricDef
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			if def.Contract == list {
				out = append(out, def)
			}
		}
	}
	return out
}

// mustBeZero are the correctness counters: any of them above 0 fails the
// run, whatever the timings say.
var mustBeZero = []string{
	"error_rate", "cluster.degraded", "core.native_mismatches",
	"filter.violations", "mutable.tombstone_leaks", "tier.skipped_clusters",
	"ivfpq.allocs_per_search",
}
