package cluster

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The router's /quality endpoint answers the on-call question "is the
// recall we are serving real, fleet-wide" in one pull: each reachable
// shard's shadow-oracle quality snapshot (recall estimate with its
// Wilson interval, per-slice estimates, drift state) and the worst
// quality verdict across all of them. The router runs no sampler of its
// own — recall is measured where the scan happens — so unlike /slo
// there is no router-local section; the rollup is purely worst-of over
// the shards. Shard snapshots are best-effort: a shard that cannot
// answer /quality within the timeout is simply absent.

// FleetQuality is the router's GET /quality body.
type FleetQuality struct {
	// State is the fleet quality verdict: the worst state across every
	// shard snapshot gathered ("ok", "warn", "page"; "disabled" when no
	// shard samples).
	State string `json:"state"`
	// Shards maps shard index to that shard's quality snapshot (absent
	// shards did not answer in time or are unhealthy).
	Shards map[string]obs.QualitySnapshot `json:"shards,omitempty"`
}

// FleetQuality gathers the fleet quality rollup: every healthy shard's
// /quality, fetched concurrently under the timeout, plus the worst-of
// verdict. Shards with quality sampling disabled report "disabled" and
// do not affect the verdict.
func (r *Router) FleetQuality(ctx context.Context, timeout time.Duration) FleetQuality {
	out := FleetQuality{
		State:  "disabled",
		Shards: make(map[string]obs.QualitySnapshot, len(r.shards)),
	}
	for i, snap := range gather[obs.QualitySnapshot](ctx, r, timeout, "/quality") {
		if snap != nil {
			out.Shards[strconv.Itoa(i)] = *snap
		}
	}
	sampling := false
	for _, snap := range out.Shards {
		if snap.State == "disabled" {
			continue
		}
		if !sampling {
			sampling, out.State = true, snap.State
			continue
		}
		out.State = obs.WorseSLOState(out.State, snap.State)
	}
	return out
}
