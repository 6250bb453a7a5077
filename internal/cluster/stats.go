package cluster

import (
	"context"
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// ShardStats is the router's local view of one shard.
type ShardStats struct {
	Index   int    `json:"index"`
	URL     string `json:"url"`
	ID      string `json:"shard_id,omitempty"` // discovered on /healthz
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"` // closed | open | half-open

	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Writes    uint64 `json:"writes"`
	WriteErrs uint64 `json:"write_errors"`

	// Latency covers this shard's successful search replies as observed
	// by the router (network included), in seconds; its quantiles drive
	// the hedge trigger.
	Latency metrics.Snapshot `json:"latency_seconds"`
}

// RouterStats is a point-in-time, JSON-serializable view of the router.
// Field names shared with the shard-side serve.Stats payload (e.g.
// "filtered_requests", "latency_seconds") use identical JSON tags, so
// dashboards aggregate one schema across both tiers; a regression test
// in stats_test.go pins the shared names.
type RouterStats struct {
	Shards        []ShardStats `json:"shards"`
	HealthyShards int          `json:"healthy_shards"`
	Draining      bool         `json:"draining"`

	Searches   uint64 `json:"searches"`
	Filtered   uint64 `json:"filtered_requests"`
	Answered   uint64 `json:"answered"`
	Degraded   uint64 `json:"degraded"`
	NoShards   uint64 `json:"no_shard_errors"`
	AllFailed  uint64 `json:"all_shards_failed"`
	StaleDrops uint64 `json:"stale_drops"`
	Writes     uint64 `json:"writes"`
	WriteErrs  uint64 `json:"write_errors"`

	// Process carries the router process's health (uptime, goroutines,
	// GC pauses), mirroring the shard payload's "process" section.
	Process *obs.ProcessStats `json:"process,omitempty"`
	// Trace carries the router tracer's sampling counters when tracing
	// is enabled.
	Trace *obs.TracerStats `json:"trace,omitempty"`

	// Latency covers every answered fanout, admission to merged reply,
	// in seconds.
	Latency metrics.Snapshot `json:"latency_seconds"`
}

// Stats snapshots the router's counters and histograms. It is local —
// no shard round trips; AggregatedStats adds the remote payloads.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Draining:   r.draining.Load(),
		Searches:   r.ctr.searches.Load(),
		Filtered:   r.ctr.filtered.Load(),
		Answered:   r.ctr.answered.Load(),
		Degraded:   r.ctr.degraded.Load(),
		NoShards:   r.ctr.noShards.Load(),
		AllFailed:  r.ctr.allFailed.Load(),
		StaleDrops: r.ctr.staleDrops.Load(),
		Writes:     r.ctr.writes.Load(),
		WriteErrs:  r.ctr.writeErrs.Load(),
		Latency:    r.lat.Snapshot(),
	}
	p := obs.Process()
	st.Process = &p
	if r.cfg.Tracer != nil {
		ts := r.cfg.Tracer.Stats()
		st.Trace = &ts
	}
	for _, s := range r.shards {
		id, _ := s.identity()
		ss := ShardStats{
			Index:     s.index,
			URL:       s.url,
			ID:        id,
			Healthy:   s.healthy.Load(),
			Breaker:   s.br.State(),
			Requests:  s.ctr.requests.Load(),
			Errors:    s.ctr.errors.Load(),
			Hedges:    s.ctr.hedges.Load(),
			HedgeWins: s.ctr.hedgeWins.Load(),
			Writes:    s.ctr.writes.Load(),
			WriteErrs: s.ctr.writeErrs.Load(),
			Latency:   s.lat.Snapshot(),
		}
		if ss.Healthy {
			st.HealthyShards++
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// WriteMetrics emits the router counters in Prometheus exposition form
// under the upanns_router_* family, with per-shard series labeled by
// shard index.
func (st RouterStats) WriteMetrics(w *obs.PromWriter) {
	w.Counter("upanns_router_searches_total", "Fanouts attempted.", float64(st.Searches))
	w.Counter("upanns_router_filtered_requests_total", "Fanouts carrying an attribute filter.", float64(st.Filtered))
	w.Counter("upanns_router_answered_total", "Fanouts that returned results.", float64(st.Answered))
	w.Counter("upanns_router_degraded_total", "Fanouts answered with at least one shard missing.", float64(st.Degraded))
	w.Counter("upanns_router_no_shard_errors_total", "Fanouts failed: no shard available.", float64(st.NoShards))
	w.Counter("upanns_router_all_shards_failed_total", "Fanouts in which every shard errored.", float64(st.AllFailed))
	w.Counter("upanns_router_stale_drops_total", "Candidates dropped by the ownership filter.", float64(st.StaleDrops))
	w.Counter("upanns_router_writes_total", "Writes routed.", float64(st.Writes))
	w.Counter("upanns_router_write_errors_total", "Routed writes failed.", float64(st.WriteErrs))
	w.Gauge("upanns_router_healthy_shards", "Shards the prober considers alive.", float64(st.HealthyShards))
	w.Summary("upanns_router_latency_seconds", "Fanout latency, admission to merged reply.", st.Latency)
	for _, ss := range st.Shards {
		label := strconv.Itoa(ss.Index)
		healthy := 0.0
		if ss.Healthy {
			healthy = 1
		}
		w.Gauge("upanns_router_shard_healthy", "1 while the shard is considered alive.", healthy, "shard", label)
		w.Counter("upanns_router_shard_requests_total", "Search attempts per shard.", float64(ss.Requests), "shard", label)
		w.Counter("upanns_router_shard_errors_total", "Failed searches per shard.", float64(ss.Errors), "shard", label)
		w.Counter("upanns_router_shard_hedges_total", "Hedge requests launched per shard.", float64(ss.Hedges), "shard", label)
		w.Counter("upanns_router_shard_hedge_wins_total", "Hedges whose reply beat the primary.", float64(ss.HedgeWins), "shard", label)
	}
}

// AggregatedStats is the router /stats payload: the router's own view
// plus each live shard's /stats fetched in parallel (nil for shards that
// did not answer within the timeout), plus the cluster-wide filter
// counters summed across the shards that reported them.
type AggregatedStats struct {
	Router RouterStats       `json:"router"`
	Shards []json.RawMessage `json:"shard_stats"`
	// Filter merges every reporting shard's filtered-search planning
	// counters (pre/post decisions summed, selectivity histograms added
	// bucket-wise); nil when no live shard indexes attributes.
	Filter *filter.StatsSnapshot `json:"filter,omitempty"`
	// Quality summarizes each reporting shard's shadow-oracle quality
	// snapshot (sampled count, recall estimate, CI half-width); nil when
	// no live shard samples quality.
	Quality []ShardQualityStat `json:"quality,omitempty"`
}

// ShardQualityStat is one shard's quality summary inside the router's
// aggregated /stats view: enough to see per-shard estimated recall and
// how tight the estimate is without pulling each shard's full /quality.
type ShardQualityStat struct {
	ShardID string `json:"shard_id,omitempty"`
	State   string `json:"state"`
	// Sampled counts queries head-sampled into the shadow plane.
	Sampled uint64 `json:"sampled"`
	// Recall is the overall streaming recall@k estimate.
	Recall float64 `json:"recall_estimate"`
	// CIHalfWidth is half the Wilson interval around Recall — the
	// estimate's current precision.
	CIHalfWidth float64 `json:"ci_half_width"`
}

// AggregatedStats snapshots the router and fetches every shard's /stats
// concurrently, bounding the whole collection by timeout. The
// cluster-wide sections are decoded from the payloads that arrived.
func (r *Router) AggregatedStats(ctx context.Context, timeout time.Duration) AggregatedStats {
	agg := AggregatedStats{
		Router: r.Stats(),
		Shards: make([]json.RawMessage, len(r.shards)),
	}
	for i, raw := range gather[json.RawMessage](ctx, r, timeout, "/stats") {
		if raw == nil {
			continue
		}
		agg.Shards[i] = *raw
		var sections struct {
			Filter  *filter.StatsSnapshot `json:"filter"`
			Quality *obs.QualitySnapshot  `json:"quality"`
		}
		if json.Unmarshal(*raw, &sections) != nil {
			continue
		}
		if sections.Filter != nil {
			if agg.Filter == nil {
				agg.Filter = &filter.StatsSnapshot{}
			}
			agg.Filter.Merge(sections.Filter)
		}
		if q := sections.Quality; q != nil {
			agg.Quality = append(agg.Quality, ShardQualityStat{
				ShardID:     q.ShardID,
				State:       q.State,
				Sampled:     q.Sampled,
				Recall:      q.Recall.Estimate,
				CIHalfWidth: (q.Recall.CIHigh - q.Recall.CILow) / 2,
			})
		}
	}
	return agg
}
