// Package repro is a from-scratch Go reproduction of "UpANNS: Enhancing
// Billion-Scale ANNS Efficiency with Real-World PIM Architecture"
// (SC '25), grown into a production-shaped serving system. The library
// lives under internal/, layered bottom-up:
//
//   - substrate: internal/vecmath (float32 matrices and distance
//     kernels), internal/xrand (seeded RNG — every experiment replays
//     bit-for-bit), internal/dataset (synthetic SIFT/DEEP/SPACEV-like
//     generators, fvecs/ivecs codecs, exact ground truth);
//
//   - index: internal/ivfpq with internal/kmeans, internal/pq and
//     internal/ivf (the shared IVFPQ index and its serialization),
//     internal/topk (bounded heaps and the pruned merge of Opt 4),
//     internal/hnsw (graph comparator);
//
//   - simulated hardware: internal/pim (the UPMEM system model — DPUs,
//     MRAM/WRAM, tasklets, cycle model, transfer rules) and
//     internal/archmodel (CPU/GPU roofline comparators);
//
//   - engine: internal/core (WRAM planning, MRAM cluster images, the DPU
//     kernel, batched search with modelled stage timing), with
//     internal/placement (Algorithms 1 and 2), internal/cooc (Opt 3), and
//     internal/baseline (Faiss-CPU/GPU and PIM-naive comparators);
//
//   - mutability: internal/mutable — online insert/delete staged in an
//     LSM-style overlay, epoch-snapshot serving with RCU-style
//     publication, one read path on the native ADC kernels, background
//     compaction under log/tombstone pressure, durable state;
//
//   - tiering: internal/tier — out-of-core cluster storage for the
//     epoch base: an on-disk cluster image (ivfpq.WriteImage/OpenImage),
//     a frequency-driven hot set pinned under a byte budget (reusing
//     the placement greedy), an async prefetcher ahead of the probe
//     list, and cold streaming through the blocked scan kernels;
//     results stay bit-identical to in-RAM search, injected I/O faults
//     surface as wrapped errors or counted skip-degraded answers, and
//     a fault-injection + golden-equivalence harness proves both;
//
//   - serving: internal/serve — worker-pulled micro-batches, admission
//     control, request coalescing, an LRU result cache, a write batcher,
//     and the shard HTTP surface (wire types + handler) every serving
//     binary shares; internal/workload (Poisson arrivals, Zipfian query
//     streams, mixed churn) and internal/metrics (tables, streaming
//     latency histograms) support it;
//
//   - distribution: internal/cluster — a scatter-gather router over live
//     shard processes: float-domain top-k merging with an
//     authoritative-owner filter, write routing by stable ID hash,
//     health probing with exclusion and rejoin, per-shard circuit
//     breaking, hedged requests past a shard's observed latency
//     quantile, and in-process shard fleets for demos and drills;
//
//   - filtered search: internal/filter — a per-index attribute store
//     (typed int64/string tags as compressed bitmap posting lists), a
//     predicate language (equality, IN, integer ranges, AND/OR) with a
//     parser and canonicalized identities, selectivity estimation from
//     posting cardinalities, and the adaptive pre/post-filter planner;
//     the allow-bitmap pushes down into the ivfpq scan kernels and the
//     mutable overlay, predicates ride the /search wire through router
//     and shards, and planning counters aggregate on /stats;
//
//   - observability: internal/obs — request tracing (span trees,
//     traceparent propagation router->shard, tail-based slow/error
//     retention behind GET /trace/recent), hand-rolled Prometheus text
//     exposition on GET /metrics, process health stats, kernel-level
//     bandwidth accounting (achieved ADC scan GB/s against the archmodel
//     roofline), the SLO burn-rate engine and per-query cost accounting,
//     and the search-quality plane: shadow-oracle re-execution of a
//     sampled query fraction against the exact full-width scan of the
//     same epoch snapshot, streaming recall@k with Wilson intervals
//     sliced by selectivity/nprobe/tenant, and a KL drift detector, all
//     served on GET /quality with a worst-of fleet rollup at the router;
//     nil-safe throughout, so every layer instruments unconditionally
//     and a disabled tracer costs a nil check;
//
//   - harness: internal/bench regenerates every table and figure of the
//     paper's evaluation on the simulated deployment, plus the ADC
//     kernels' bit-identity and speedup gate; the root-level benchmarks
//     in bench_test.go expose one testing.B target per paper artifact.
//     The live serving path is measured by the repo benchmark
//     (benchmark/, run with go run ./benchmark) over real HTTP.
//
// Entry points: cmd/upanns-datagen (dataset files), cmd/upanns-search
// (one-shot search), cmd/upanns-bench (experiments at configurable
// scale, with the -check regression gate), cmd/upanns-serve (one HTTP
// serving process — mutable single host or shard), and cmd/upanns-router
// (the distributed scatter-gather front). Walkthroughs live under
// examples/.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// architecture diagram, and OPERATIONS.md for the deployment runbook.
package repro
