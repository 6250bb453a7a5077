package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vecmath"
)

// violation is what a reply can get wrong. Every kind counts toward
// error_rate; two of them also feed a per-layer must-be-zero counter.
type violation int

const (
	vNone      violation = iota
	vShape               // wrong count, ids/distances mismatch, duplicate id
	vOrder               // distances not ascending, or not a number
	vUnknownID           // id outside the corpus and every issued fresh id
	vPredicate           // filtered hit whose tags fail the filter (filter.violations)
	vTombstone           // id whose delete was acknowledged before the request left (mutable.tombstone_leaks)
	numViolations
)

func (v violation) String() string {
	return [...]string{"ok", "shape", "order", "unknown-id", "predicate", "tombstone"}[v]
}

// validator checks every search reply against what the benchmark knows:
// the corpus' id range, each client's issued fresh ids, the band tags, and
// its own model of acknowledged writes. Safe for concurrent use.
type validator struct {
	k      int
	n      int64    // base ids are [0, n)
	member [][]bool // member[band][id]; nil without filters

	issued []atomic.Int64 // per client (the traced sample last): fresh ids sent so far

	mu        sync.Mutex
	deletedAt map[int64]time.Time // acknowledged deletes
	written   map[int64][]float32 // latest acknowledged vector of upserted / overwritten ids

	counts [numViolations]atomic.Int64
}

func newValidator(in *inputs) *validator {
	return &validator{
		k:         in.sc.K,
		n:         int64(in.n()),
		member:    in.member,
		issued:    make([]atomic.Int64, in.clients+1),
		deletedAt: make(map[int64]time.Time),
		written:   make(map[int64][]float32),
	}
}

// sending notes a write about to leave, so a reply racing the
// acknowledgment may already name the new id.
func (v *validator) sending(r request) {
	if r.Kind != opUpsert {
		return
	}
	c, off := (r.ID-v.n)/freshIDSpan, (r.ID-v.n)%freshIDSpan
	if v.issued[c].Load() <= off {
		v.issued[c].Store(off + 1)
	}
}

// acked folds an acknowledged write into the model.
func (v *validator) acked(r request, at time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch r.Kind {
	case opUpsert, opOverwrite:
		v.written[r.ID] = r.Vec
	case opDelete:
		v.deletedAt[r.ID] = at
		delete(v.written, r.ID)
	}
}

func (v *validator) known(id int64) bool {
	if id >= 0 && id < v.n {
		return true
	}
	if id < v.n {
		return false
	}
	c, off := (id-v.n)/freshIDSpan, (id-v.n)%freshIDSpan
	return c < int64(len(v.issued)) && off < v.issued[c].Load()
}

// check validates the reply to r, which left at sent, and counts what it
// finds. Unfiltered replies must carry exactly k hits; a filtered reply is
// shorter when the probed clusters hold fewer than k matches.
func (v *validator) check(r request, sent time.Time, ids []int64, dists []float32) violation {
	got := v.classify(r, sent, ids, dists)
	v.counts[got].Add(1)
	return got
}

func (v *validator) classify(r request, sent time.Time, ids []int64, dists []float32) violation {
	if len(ids) != len(dists) || len(ids) > v.k || (r.Band < 0 && len(ids) != v.k) {
		return vShape
	}
	for i, id := range ids {
		for _, earlier := range ids[:i] { // k is small; no map on the load generator's hot path
			if earlier == id {
				return vShape
			}
		}
		d := float64(dists[i])
		if math.IsNaN(d) || math.IsInf(d, 0) || (i > 0 && dists[i] < dists[i-1]) {
			return vOrder
		}
	}
	for _, id := range ids {
		if !v.known(id) {
			return vUnknownID
		}
		if r.Band >= 0 && (id >= v.n || !v.member[r.Band][id]) {
			return vPredicate
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, id := range ids {
		if at, dead := v.deletedAt[id]; dead && at.Before(sent) {
			return vTombstone
		}
	}
	return vNone
}

func (v *validator) count(kind violation) int64 { return v.counts[kind].Load() }

// failures is every reply that failed validation.
func (v *validator) failures() int64 {
	var n int64
	for kind := vShape; kind < numViolations; kind++ {
		n += v.counts[kind].Load()
	}
	return n
}

// liveCorpus is the model's view of what the deployment holds once every
// write is acknowledged: base rows minus deletes, overwritten rows
// replaced, fresh upserts appended in id order.
func (v *validator) liveCorpus(base *vecmath.Matrix) (*vecmath.Matrix, []int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var fresh []int64
	for id := range v.written {
		if id >= v.n {
			fresh = append(fresh, id)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })

	ids := make([]int64, 0, base.Rows+len(fresh))
	for id := int64(0); id < v.n; id++ {
		if _, dead := v.deletedAt[id]; !dead {
			ids = append(ids, id)
		}
	}
	ids = append(ids, fresh...)
	live := vecmath.NewMatrix(len(ids), base.Dim)
	for row, id := range ids {
		if vec, ok := v.written[id]; ok {
			live.SetRow(row, vec)
		} else {
			live.SetRow(row, base.Row(int(id)))
		}
	}
	return live, ids
}
