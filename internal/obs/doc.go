// Package obs is the observability layer: request-scoped tracing,
// Prometheus-text /metrics exposition, kernel-level bandwidth accounting,
// process runtime stats, and the SLO health plane (burn-rate alerting,
// per-query cost attribution, a control-plane flight recorder). It exists
// to make the repo's central claim — ADC scans are memory-bandwidth-bound
// — measurable in live serving instead of asserted from coarse counters,
// and to make the serving tier operable: paging on budget burn, not
// point-in-time error spikes, with a postmortem that survives restarts of
// nothing.
//
// Eight pieces cooperate:
//
//   - Traces (span.go, tracer.go): a request carries a *Trace through its
//     context; every layer it crosses attaches named spans (router fanout,
//     serve queue wait, batch formation, backend dispatch, mutable
//     epoch/overlay/merge, filter planning) with monotonic timestamps. A
//     Tracer keeps finished traces in two ring buffers — a recent ring
//     that churns with traffic and a slow/error ring that tail-based
//     sampling always retains — and serves both on GET /trace/recent.
//     The slow ring doubles as the slow-query log: each retained trace
//     carries a flattened per-stage breakdown.
//
//   - Propagation (propagate.go): a traceparent-style header carries the
//     trace identity over the router->shard HTTP hop; the shard annotates
//     its response with its own span tree, which the router grafts under
//     the fanout span so one trace shows the whole distributed request.
//
//   - Metrics (prom.go, process.go): PromWriter renders counters, gauges
//     and summary-style quantile series in the Prometheus text exposition
//     format; MetricsHandler turns a collect callback into a GET /metrics
//     endpoint. Latency histograms export as summaries (quantile series +
//     _sum/_count) because internal/metrics histograms have ~1300
//     geometric buckets — far too many for native histogram series.
//
//   - Kernel accounting (kernel.go): a process-global counter block
//     records bytes of PQ codes scanned and LUT entries built, with wall
//     time, from every scan site (the simulated DPU kernels and the
//     ivfpq scanner every serving read goes through). Its snapshot reports
//     achieved scan GB/s next to the internal/archmodel roofline bound,
//     which is what ROADMAP item 1 ("measured, not asserted") needs.
//
//   - SLO burn rates (slo.go): an SLOTracker classifies every request
//     against declared objectives (availability, latency, optionally
//     integrity for degraded-but-200 answers) and reports error-budget
//     burn over a fast (5m) and a slow (1h) window; an objective pages
//     only when BOTH windows burn past threshold, so blips never page
//     but real outages page in minutes and clear on recovery. The
//     windows are bucketed rings driven by an injectable clock, which
//     keeps the arithmetic golden-testable. Snapshots serve GET /slo
//     and export as upanns_slo_* series.
//
//   - Cost accounting (cost.go): a *Cost rides the request context and
//     accumulates bytes moved (ADC code bytes, LUT bytes, cold-tier
//     bytes) plus queue/dispatch time as the query crosses layers;
//     coalesced batches split backend bytes evenly. A CostTracker keeps
//     lifetime totals and a top-K heat ring of the most expensive
//     queries by bytes — served on GET /debug/costly — with an atomic
//     floor gate so the common "too cheap for the ring" case never
//     takes the lock.
//
//   - Flight recorder + bundles (flight.go): Flight is a process-global
//     fixed ring of control-plane events (breaker transitions, shard
//     loss/rejoin, drain, tier faults), written lock-free and
//     sequence-numbered so post-incident ordering is recorded, not
//     reconstructed. WriteBundle snapshots the ring together with
//     traces, a metrics scrape, SLO and cost payloads, stats, and
//     runtime profiles into one gzipped tar served on GET /debug/bundle;
//     a section that fails to collect degrades to an error note.
//
//   - Search-quality plane (quality.go): a Quality head-samples one
//     answered query in N (one atomic on the hot path) and a single
//     background worker re-executes each sample against the exact
//     oracle — a full-width, tombstone- and filter-consistent scan of
//     the same epoch snapshot — turning answer/oracle overlap into
//     streaming recall@k estimates with Wilson 95% intervals, overall
//     and sliced by selectivity bucket, nprobe, and tenant. A KL drift
//     detector compares live query->centroid assignments against index
//     occupancy with a rolling baseline frozen during excursions, and
//     pages with hysteresis; recall shortfall and drift feed a
//     dedicated quality SLO objective with its own denominator. Shadow
//     work is invisible to serve counters, admission, caching, and
//     cost. Snapshots serve GET /quality and export as
//     upanns_quality_* series; the router rolls healthy shards into a
//     worst-of fleet verdict.
//
// Everything is nil-safe: a nil *Tracer starts nil *Traces, every
// method on a nil Trace, Span, StageLog, Cost, CostTracker or
// SLOTracker is a no-op, so instrumented code paths never branch on
// "is observability on".
package obs
