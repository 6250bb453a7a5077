package cluster

import (
	"testing"
	"time"

	"repro/internal/topk"
	"repro/internal/xrand"
)

func TestOwnerStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		counts := make([]int, n)
		for id := int64(-500); id < 500; id++ {
			o := Owner(id, n)
			if o < 0 || o >= n {
				t.Fatalf("Owner(%d, %d) = %d out of range", id, n, o)
			}
			if o2 := Owner(id, n); o2 != o {
				t.Fatalf("Owner(%d, %d) unstable: %d then %d", id, n, o, o2)
			}
			counts[o]++
		}
		// Uniformity sanity: no shard owns more than twice its fair share.
		for s, c := range counts {
			if n > 1 && c > 2*1000/n {
				t.Fatalf("Owner skew at n=%d: shard %d owns %d of 1000", n, s, c)
			}
		}
	}
}

func TestMergeDuplicateIDsAcrossShards(t *testing.T) {
	// The same id reported by two shards must occupy one result slot, at
	// its best (smallest) distance.
	hits := []ShardHits{
		{Shard: 0, Cands: []topk.Candidate{{ID: 7, Dist: 0.9}, {ID: 1, Dist: 0.2}}},
		{Shard: 1, Cands: []topk.Candidate{{ID: 7, Dist: 0.5}, {ID: 2, Dist: 0.3}}},
	}
	got := Merge(3, hits, nil)
	want := []topk.Candidate{{ID: 1, Dist: 0.2}, {ID: 2, Dist: 0.3}, {ID: 7, Dist: 0.5}}
	assertCands(t, got, want)
}

func TestMergeEmptyShardResponses(t *testing.T) {
	hits := []ShardHits{
		{Shard: 0, Cands: nil},
		{Shard: 1, Cands: []topk.Candidate{{ID: 4, Dist: 0.4}}},
		{Shard: 2, Cands: []topk.Candidate{}},
	}
	got := Merge(2, hits, nil)
	assertCands(t, got, []topk.Candidate{{ID: 4, Dist: 0.4}})

	if res := Merge(2, nil, nil); len(res) != 0 {
		t.Fatalf("Merge over no shards returned %v, want empty", res)
	}
	if res := Merge(2, []ShardHits{{Shard: 0}}, nil); len(res) != 0 {
		t.Fatalf("Merge over all-empty shards returned %v, want empty", res)
	}
}

func TestMergeKLargerThanTotalHits(t *testing.T) {
	hits := []ShardHits{
		{Shard: 0, Cands: []topk.Candidate{{ID: 1, Dist: 0.1}}},
		{Shard: 1, Cands: []topk.Candidate{{ID: 2, Dist: 0.2}}},
	}
	got := Merge(10, hits, nil)
	assertCands(t, got, []topk.Candidate{{ID: 1, Dist: 0.1}, {ID: 2, Dist: 0.2}})
}

func TestMergeTombstonedIDFromStaleShard(t *testing.T) {
	// Shard 0 owns id X and has deleted it (so it no longer reports it);
	// stale shard 1 still holds a copy. While the owner responds, the
	// stale report must be dropped — even though its distance would win.
	n := 2
	var x int64
	for x = 0; Owner(x, n) != 0; x++ {
	}
	var y int64
	for y = 0; Owner(y, n) != 1; y++ {
	}

	responded := []bool{true, true}
	owns := func(id int64, sh int) bool {
		o := Owner(id, n)
		return o == sh || !responded[o]
	}
	hits := []ShardHits{
		{Shard: 0, Cands: []topk.Candidate{}}, // owner: X is tombstoned
		{Shard: 1, Cands: []topk.Candidate{{ID: x, Dist: 0.01}, {ID: y, Dist: 0.5}}},
	}
	got := Merge(5, hits, owns)
	assertCands(t, got, []topk.Candidate{{ID: y, Dist: 0.5}})

	// With the owner down (not in the gather), the stale copy is better
	// than nothing: best-effort availability wins over authority.
	responded[0] = false
	got = Merge(5, []ShardHits{hits[1]}, owns)
	assertCands(t, got, []topk.Candidate{{ID: x, Dist: 0.01}, {ID: y, Dist: 0.5}})
}

func TestMergeDeterministicTieBreak(t *testing.T) {
	hits := []ShardHits{
		{Shard: 0, Cands: []topk.Candidate{{ID: 9, Dist: 0.5}, {ID: 3, Dist: 0.5}}},
		{Shard: 1, Cands: []topk.Candidate{{ID: 5, Dist: 0.5}}},
	}
	got := Merge(3, hits, nil)
	assertCands(t, got, []topk.Candidate{{ID: 3, Dist: 0.5}, {ID: 5, Dist: 0.5}, {ID: 9, Dist: 0.5}})
}

func assertCands(t *testing.T, got, want []topk.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: got %v, want %v", i, got, want)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	now := time.Now()
	for i := 0; i < 2; i++ {
		if !b.Allow(now) {
			t.Fatal("breaker should admit below threshold")
		}
		b.Failure(now)
	}
	if b.State() != breakerClosed {
		t.Fatalf("state = %s before threshold, want closed", b.State())
	}
	b.Allow(now)
	b.Failure(now)
	if b.State() != breakerOpen {
		t.Fatalf("state = %s after threshold failures, want open", b.State())
	}
	if b.Allow(now.Add(10 * time.Millisecond)) {
		t.Fatal("open breaker admitted before cooldown")
	}
	probeAt := now.Add(60 * time.Millisecond)
	if !b.Allow(probeAt) {
		t.Fatal("breaker should admit the half-open probe after cooldown")
	}
	if b.Allow(probeAt) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Failure(probeAt)
	if b.State() != breakerOpen {
		t.Fatalf("state = %s after failed probe, want open", b.State())
	}
	reprobeAt := probeAt.Add(60 * time.Millisecond)
	if !b.Allow(reprobeAt) {
		t.Fatal("breaker should admit another probe after a second cooldown")
	}
	b.Success()
	if b.State() != breakerClosed {
		t.Fatalf("state = %s after successful probe, want closed", b.State())
	}
	if !b.Allow(reprobeAt) {
		t.Fatal("closed breaker should admit traffic")
	}
}

func TestMergeTiedBoundaryDeterministic(t *testing.T) {
	// Many candidates tie on distance at the k boundary: the smallest IDs
	// must win, identically on every call. (A heap fed from a map keeps
	// whichever tied candidate map iteration pushed first, which made
	// merged recall vary call to call.)
	hits := []ShardHits{
		{Shard: 0, Cands: []topk.Candidate{{ID: 90, Dist: 0.5}, {ID: 40, Dist: 0.5}, {ID: 10, Dist: 0.1}}},
		{Shard: 1, Cands: []topk.Candidate{{ID: 70, Dist: 0.5}, {ID: 20, Dist: 0.5}}},
		{Shard: 2, Cands: []topk.Candidate{{ID: 50, Dist: 0.5}, {ID: 30, Dist: 0.5}}},
	}
	want := []topk.Candidate{{ID: 10, Dist: 0.1}, {ID: 20, Dist: 0.5}, {ID: 30, Dist: 0.5}, {ID: 40, Dist: 0.5}}
	for i := 0; i < 50; i++ {
		assertCands(t, Merge(4, hits, nil), want)
	}
}

// TestMergeEqualsOneHeap is the router's merge invariant at unit level.
// Distinct candidates take their distances from a few values, so ties
// straddle every k boundary; they are dealt over n shards, each shard
// answers its own top-k, and Merge over those answers must equal one
// bounded heap over the union, candidate for candidate. Both the shards
// and the union heap are fed in a shuffled order, so under a tie rule
// that kept the first tied candidate pushed the two would part.
func TestMergeEqualsOneHeap(t *testing.T) {
	r := xrand.New(8)
	for trial := 0; trial < 300; trial++ {
		n, k, levels := 1+r.Intn(5), 1+r.Intn(20), 1+r.Intn(6)
		cands := make([]topk.Candidate, 1+r.Intn(150))
		for i := range cands {
			cands[i] = topk.Candidate{ID: int64(i), Dist: float32(r.Intn(levels)) / 4}
		}
		for i := len(cands) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			cands[i], cands[j] = cands[j], cands[i]
		}
		union := topk.NewHeap(k)
		shards := make([]*topk.Heap, n)
		for i := range shards {
			shards[i] = topk.NewHeap(k)
		}
		for _, c := range cands {
			shards[r.Intn(n)].Push(c.ID, c.Dist)
			union.Push(c.ID, c.Dist)
		}
		hits := make([]ShardHits, n)
		for i, h := range shards {
			hits[i] = ShardHits{Shard: i, Cands: h.Sorted()}
		}
		got, want := Merge(k, hits, nil), union.Sorted()
		if len(got) != len(want) {
			t.Fatalf("trial %d (n %d, k %d): merged %d candidates, one heap %d", trial, n, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n %d, k %d): rank %d merged %+v, one heap %+v", trial, n, k, i, got[i], want[i])
			}
		}
	}
}
