// Package cluster is the distributed serving tier: a scatter-gather
// router that fans each query out to N live upanns-serve shard processes
// over HTTP, merges their per-shard top-k lists in the float domain, and
// routes writes to the owning shard by stable ID hashing so each shard's
// mutable overlay and background compaction keep working untouched.
//
// It turns the paper's Section 5.5 multi-host sketch, where "only query
// distribution and result aggregation require cross-host communication",
// into a deployable tier with the failure handling a real cluster needs:
//
//   - health checking: a background prober polls every shard's /healthz;
//     shards that fail (or report draining) are excluded from the fanout
//     and rejoin automatically when they recover;
//
//   - circuit breaking: consecutive shard failures open a per-shard
//     breaker; after a cooldown a single half-open probe decides whether
//     the shard rejoins, so a flapping shard cannot drag every query's
//     tail while it dies;
//
//   - hedged requests: each shard's response times feed a streaming
//     histogram (internal/metrics); once warmed, a shard request that has
//     not answered by that shard's configured latency quantile is hedged
//     with a duplicate, and the first reply wins — trading a small amount
//     of extra work for a shorter fanout tail (the slowest-shard problem
//     the paper's coordinator merge inherits);
//
//   - degraded serving: a query is answered from whichever shards
//     responded; losing a shard loses only that shard's fraction of the
//     corpus (recall degrades, availability does not);
//
//   - ownership-filtered merging: Merge deduplicates IDs across shards
//     and, given an authority predicate, drops candidates reported by a
//     shard that does not own them while their owner is alive — so a
//     tombstoned ID resurfacing from a stale shard cannot shadow the
//     owning shard's truth.
//
// Distances from different shards are compared directly in the float
// domain (each shard has its own LUT quantization scale), which is
// exactly as approximate as IVFPQ itself.
//
// Attribute filters pass through the tier untouched: SearchOpts carries
// the per-request k and predicate expression to every shard verbatim
// (shards own canonicalization, planning, and execution; see
// internal/filter), upserts carry their tags to the owning shard, the
// owner-filtered merge is unchanged, and AggregatedStats sums the
// shards' filtered-planning counters into one cluster-wide view.
//
// cmd/upanns-router wraps a Router in the HTTP surface (POST /search
// /upsert /delete, aggregated GET /stats, GET /healthz, graceful drain);
// examples/cluster boots a router plus three shards in one process and
// checks recall parity against a single host and behavior with a shard
// killed mid-run; the benchmark's fleet workloads (go run ./benchmark)
// measure the router's latency and throughput over real HTTP.
package cluster
