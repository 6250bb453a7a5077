package cluster

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The router's /slo endpoint answers the on-call question "is the fleet
// healthy" in one pull: the router's own burn-rate snapshot (fanout
// availability, latency, and the integrity budget that degraded-recall
// answers burn), each reachable shard's snapshot, and the worst alert
// state across all of them. Shard snapshots are best-effort — a shard
// that cannot answer /slo within the timeout is simply absent, and its
// absence already shows in the router objectives.

// FleetSLO is the router's GET /slo body.
type FleetSLO struct {
	// State is the fleet verdict: the worst alert state across the router
	// and every shard snapshot gathered ("ok", "warn", "page").
	State string `json:"state"`
	// Router is the router's own burn-rate snapshot.
	Router obs.SLOSnapshot `json:"router"`
	// Shards maps shard index to that shard's snapshot (absent shards
	// did not answer in time or are unhealthy).
	Shards map[string]obs.SLOSnapshot `json:"shards,omitempty"`
}

// FleetSLO gathers the fleet burn-rate rollup: the router snapshot plus
// every healthy shard's /slo, fetched concurrently under the timeout.
func (r *Router) FleetSLO(ctx context.Context, timeout time.Duration) FleetSLO {
	out := FleetSLO{
		Router: r.cfg.SLO.Snapshot(),
		Shards: make(map[string]obs.SLOSnapshot, len(r.shards)),
	}
	for i, snap := range gather[obs.SLOSnapshot](ctx, r, timeout, "/slo") {
		if snap != nil {
			out.Shards[strconv.Itoa(i)] = *snap
		}
	}
	out.State = out.Router.State
	for _, snap := range out.Shards {
		out.State = obs.WorseSLOState(out.State, snap.State)
	}
	return out
}
