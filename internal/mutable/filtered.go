package mutable

import (
	"fmt"
	"time"

	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/vecmath"
)

// This file is the attribute side of the updatable index: tag storage
// and the planner that turns a predicate into the match function the
// one read path (UpdatableIndex.read) prunes its scans with. Filtered
// and unfiltered queries are the same scan with and without it; only
// the k bound differs (filter.MaxFetchK instead of Engine.K).
//
// Attributes live in a filter.Store keyed by vector ID, independent of
// epochs: they arrive with upserts, survive compaction untouched
// (compaction rewrites PQ codes, never tags), and die with deletes.

// ErrNoSchema reports a filtered operation against a deployment whose
// Config.Schema is nil.
var ErrNoSchema = fmt.Errorf("%w: index deployed without an attribute schema", filter.ErrInvalid)

// AttrStore returns the index's attribute store (nil when the deployment
// has no schema). Callers may read it directly; writes should go through
// the index's upsert/delete methods so tags and vectors stay in step.
func (u *UpdatableIndex) AttrStore() *filter.Store { return u.attrs }

// AttrSchema returns the deployed attribute schema (nil when filtering
// is not enabled). It satisfies serve.AttrWriteBackend.
func (u *UpdatableIndex) AttrSchema() *filter.Schema {
	if u.attrs == nil {
		return nil
	}
	return u.attrs.Schema()
}

// LoadAttrs bulk-tags already-indexed vectors — the boot path for an
// existing corpus's attributes (parallel slices; nil entries skip).
func (u *UpdatableIndex) LoadAttrs(ids []int64, attrs []filter.Attrs) error {
	if u.attrs == nil {
		return ErrNoSchema
	}
	return u.attrs.Load(ids, attrs)
}

// UpsertWithAttrs is Upsert with per-row attribute tags (attrs may be
// nil for an untagged batch; individual entries may be nil). Tags carry
// replacement semantics, like the vectors they ride with: an upsert
// without tags clears any previous tags of that id. Tags are indexed
// before the vector is staged, so a vector never becomes searchable
// ahead of the tags a filtered query would select it by. It satisfies
// serve.AttrWriteBackend.
func (u *UpdatableIndex) UpsertWithAttrs(ids []int64, vecs *vecmath.Matrix, attrs []filter.Attrs) error {
	if attrs != nil && len(attrs) != len(ids) {
		return fmt.Errorf("mutable: %d attr sets for %d ids", len(attrs), len(ids))
	}
	if u.attrs != nil {
		for i, id := range ids {
			var a filter.Attrs
			if attrs != nil {
				a = attrs[i]
			}
			if err := u.attrs.Set(id, a); err != nil {
				return err
			}
		}
	} else {
		for _, a := range attrs {
			if len(a) > 0 {
				return ErrNoSchema
			}
		}
	}
	return u.upsert(ids, vecs)
}

// InsertWithAttrs is Insert with attribute tags (same semantics as
// UpsertWithAttrs for one vector).
func (u *UpdatableIndex) InsertWithAttrs(id int64, vec []float32, attrs filter.Attrs) error {
	if u.attrs == nil {
		if len(attrs) > 0 {
			return ErrNoSchema
		}
		return u.insert(id, vec)
	}
	if err := u.attrs.Set(id, attrs); err != nil {
		return err
	}
	return u.insert(id, vec)
}

// FilterStats snapshots the filtered-search planning counters (nil when
// the deployment has no schema).
func (u *UpdatableIndex) FilterStats() *filter.StatsSnapshot {
	if u.attrs == nil {
		return nil
	}
	return u.fstats.Snapshot()
}

// planFiltered resolves the filtered arm of Search (SearchOpts.Pred !=
// nil) into rd, letting estimated selectivity choose between the two
// execution strategies unless SearchOpts.Mode pins one:
//
//   - pre-filtering evaluates pred to an allow-bitmap over posting
//     lists, then scans only matching codes in each probed cluster of
//     the epoch base — recall-exact w.r.t. the probed clusters and cheap
//     at low selectivity;
//   - post-filtering scans normally with a selectivity-inflated fetch k
//     and applies pred to the candidates — cheap at high selectivity
//     where almost everything passes anyway.
//
// The overlay is always scanned with the predicate applied per entry (it
// is small, so inflation buys nothing there). The stage log's
// filter.plan stage carries the planner's decision; the base stage later
// reports the estimated against the achieved selectivity so estimator
// drift is visible per trace.
func (u *UpdatableIndex) planFiltered(rd *baseRead, nq int, o SearchOpts) error {
	if o.K <= 0 || o.K > filter.MaxFetchK {
		return fmt.Errorf("mutable: filtered k %d outside (0, %d]", o.K, filter.MaxFetchK)
	}
	if u.attrs == nil {
		return ErrNoSchema
	}
	if err := o.Pred.Validate(u.attrs.Schema()); err != nil {
		return err
	}

	// Selectivity is matches over the *corpus* the scan covers, not over
	// tagged vectors: on a partially-tagged corpus (e.g. a cold-booted
	// base with tags arriving via upserts) the two differ wildly, and
	// planning on the tagged fraction would pick post-filtering with a
	// fetch depth sized for the slice instead of the corpus. The epoch
	// base count is a good-enough denominator — the overlay adds at most
	// the compaction-trigger ratio on top.
	planStart := time.Now()
	total := int(u.snap.Load().baseN)
	rd.plan = filter.PlanSearch(u.attrs.EstimateTotal(o.Pred, total), o.K, o.Mode)
	u.fstats.Record(rd.plan, o.Mode != filter.ModeAuto, nq)
	o.Stages.Record("filter.plan", planStart,
		obs.Str("mode", rd.plan.Mode.String()),
		obs.Float("est_selectivity", rd.plan.Selectivity),
		obs.Int("fetch_k", int64(rd.plan.FetchK)),
		obs.Bool("forced", o.Mode != filter.ModeAuto))

	// The pre path probes the evaluated bitmap; the post path checks tags
	// per candidate (overlay entries and fetched base candidates only).
	if rd.plan.Mode == filter.ModePre {
		rd.match = u.attrs.Eval(o.Pred).Contains
	} else {
		rd.match = func(id int64) bool { return u.attrs.Matches(o.Pred, id) }
	}
	return nil
}
