package mutable

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// quality.go is the shadow-oracle side of the online quality plane: the
// exact re-execution a sampled live query is compared against. The
// oracle answers over the same (epoch, overlay) consistent cut a live
// search sees — tombstone- and version-shadowing-consistent via the
// overlay read lock, image-lifetime-safe via the epoch refcount — but
// at full probe width, so the only recall it concedes is quantization
// itself. It deliberately bypasses every serving-plane surface: no
// admission, no result cache, no cost vectors, no SLO request windows,
// and no probe accounting, rebalance counters or prefetches (shadow
// traffic must not steer the tier hot set).

// OracleResult is one exact shadow answer plus the slice/drift context
// the quality estimators key on.
type OracleResult struct {
	// Truth is the exact top-k over the same epoch snapshot and overlay
	// cut, ascending by distance.
	Truth []topk.Candidate
	// NProbe is the live path's configured probe width (the operating
	// point the sampled query was actually served at).
	NProbe int
	// Cluster is the query's nearest centroid — the drift detector's
	// live-assignment signal.
	Cluster int
	// Selectivity is the estimated filter selectivity (1 = unfiltered).
	Selectivity float64
}

// SearchOracle answers one query exactly: the live read sequence at
// full width (nprobe = nlist), with pred (may be nil) applied as an
// exact per-id tag check on both sides. It is the ground truth the
// quality plane estimates live recall against, and is deliberately kept
// off every accounting path — it never touches the probe counters or
// cost vectors.
func (u *UpdatableIndex) SearchOracle(vec []float32, k int, pred filter.Pred) (OracleResult, error) {
	res := OracleResult{NProbe: u.cfg.Engine.NProbe, Cluster: -1, Selectivity: 1}
	if len(vec) != u.dim {
		return res, fmt.Errorf("mutable: oracle query dim %d != index dim %d", len(vec), u.dim)
	}
	if k <= 0 {
		return res, fmt.Errorf("mutable: oracle k %d must be positive", k)
	}
	// Full width on both sides: every cluster's live log entries compete
	// with a base scan of every cluster, so the oracle can never miss an
	// overlay write a full-width base scan would have found. Quantized
	// distances keep oracle and live arithmetic identical: the oracle
	// measures the search's recall, not the quantizer's.
	snap := u.snap.Load()
	queries := vecmath.WrapMatrix(vec, 1, u.dim)
	sc := readPool.Get().(*readScratch)
	defer readPool.Put(sc)
	sc.probe(snap.ix, queries, u.nlist)
	res.Cluster = int(sc.probes[0])
	rd := baseRead{k: k, plan: filter.Plan{FetchK: k}}
	if pred != nil {
		if u.attrs == nil {
			return res, ErrNoSchema
		}
		if err := pred.Validate(u.attrs.Schema()); err != nil {
			return res, err
		}
		// The exact per-id tag check (not the bitmap), pushed into the
		// base scan: the oracle pays whatever it costs — it runs sampled
		// and off the hot path.
		rd.match = func(id int64) bool { return u.attrs.Matches(pred, id) }
		rd.plan.Mode = filter.ModePre
		res.Selectivity = u.attrs.EstimateTotal(pred, int(snap.baseN))
	}
	out, err := u.read(sc, queries, rd, nil, nil)
	if err != nil {
		return res, err
	}
	res.Truth = out[0]
	return res, nil
}

// ClusterOccupancy returns the current epoch's per-cluster base vector
// counts — the drift detector's reference distribution. The slice is
// immutable (computed at epoch deploy time); callers must not modify it.
func (u *UpdatableIndex) ClusterOccupancy() []float64 {
	return u.snap.Load().occ
}

// QualityOracle adapts the index into the quality plane's oracle
// callback: the opaque predicate is the filter.Pred the serving layer
// sampled, and the truth comes from SearchOracle over the same epoch
// refcounts live searches use.
func (u *UpdatableIndex) QualityOracle() obs.QualityOracle {
	return func(s obs.QualitySample) (obs.QualityTruth, error) {
		var pred filter.Pred
		if s.Pred != nil {
			p, ok := s.Pred.(filter.Pred)
			if !ok {
				return obs.QualityTruth{}, fmt.Errorf("mutable: quality sample predicate has type %T", s.Pred)
			}
			pred = p
		}
		r, err := u.SearchOracle(s.Vector, s.K, pred)
		if err != nil {
			return obs.QualityTruth{}, err
		}
		t := obs.QualityTruth{
			Truth:       make([]int64, len(r.Truth)),
			NProbe:      r.NProbe,
			Cluster:     r.Cluster,
			Selectivity: r.Selectivity,
		}
		for i, c := range r.Truth {
			t.Truth[i] = c.ID
		}
		return t, nil
	}
}
