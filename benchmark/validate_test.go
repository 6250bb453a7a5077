package main

import (
	"testing"
	"time"
)

// TestValidatorTripsOnCorruptedReplies feeds the validator one good reply
// and one corruption of each kind.
func TestValidatorTripsOnCorruptedReplies(t *testing.T) {
	in := &inputs{workload: wlFilteredFleet, sc: scale{PerShard: 50, K: 3}, clients: 1}
	in.member = [][]bool{make([]bool, in.n())}
	for _, id := range []int64{1, 2, 3, 4} {
		in.member[0][id] = true
	}
	v := newValidator(in)
	sent := time.Now()
	plain := request{Kind: opSearch, Band: -1}
	banded := request{Kind: opSearch, Band: 0}
	fresh := int64(in.n()) // client 0's first new id

	v.sending(request{Kind: opUpsert, ID: fresh})
	v.acked(request{Kind: opDelete, ID: 7}, sent.Add(-time.Second))
	v.acked(request{Kind: opDelete, ID: 8}, sent.Add(time.Second)) // acknowledged after the search left

	cases := []struct {
		name  string
		req   request
		ids   []int64
		dists []float32
		want  violation
	}{
		{"good", plain, []int64{5, 6, fresh}, []float32{0.1, 0.2, 0.2}, vNone},
		{"good filtered, short", banded, []int64{2, 4}, []float32{0.1, 0.3}, vNone},
		{"delete still in flight when the search left", plain, []int64{5, 6, 8}, []float32{0.1, 0.2, 0.3}, vNone},
		{"too few hits", plain, []int64{5, 6}, []float32{0.1, 0.2}, vShape},
		{"too many hits", plain, []int64{5, 6, 9, 10}, []float32{0.1, 0.2, 0.3, 0.4}, vShape},
		{"ids and distances differ in length", plain, []int64{5, 6, 9}, []float32{0.1, 0.2}, vShape},
		{"duplicate id", plain, []int64{5, 5, 9}, []float32{0.1, 0.2, 0.3}, vShape},
		{"descending distances", plain, []int64{5, 6, 9}, []float32{0.3, 0.2, 0.1}, vOrder},
		{"id outside the corpus", plain, []int64{5, 6, fresh + 3*freshIDSpan}, []float32{0.1, 0.2, 0.3}, vUnknownID},
		{"fresh id nobody sent", plain, []int64{5, 6, fresh + 1}, []float32{0.1, 0.2, 0.3}, vUnknownID},
		{"negative id", plain, []int64{5, 6, -1}, []float32{0.1, 0.2, 0.3}, vUnknownID},
		{"hit outside the band", banded, []int64{2, 9}, []float32{0.1, 0.2}, vPredicate},
		{"deleted id resurfaces", plain, []int64{5, 6, 7}, []float32{0.1, 0.2, 0.3}, vTombstone},
	}
	bad := 0
	for _, c := range cases {
		if got := v.check(c.req, sent, c.ids, c.dists); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if c.want != vNone {
			bad++
		}
	}
	if got := v.failures(); got != int64(bad) {
		t.Errorf("failures() = %d, want %d", got, bad)
	}
	if v.count(vPredicate) != 1 || v.count(vTombstone) != 1 {
		t.Errorf("per-layer counters: predicate %d, tombstone %d, want 1 and 1", v.count(vPredicate), v.count(vTombstone))
	}
}
