package cluster

import "repro/internal/topk"

// Owner returns the shard (0..n-1) that owns id under stable ID hashing:
// the shard every write of id is routed to, and the shard whose answer
// about id is authoritative during merges. The hash is a splitmix64-style
// finalizer, so ownership is uniform in n and depends only on (id, n) —
// restarts, rejoins, and shard outages never move an id between shards.
func Owner(id int64, n int) int {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// ShardHits is one shard's contribution to a scatter-gather query.
type ShardHits struct {
	// Shard is the reporting shard's index in the router's shard list.
	Shard int
	// Cands is the shard's local top-k, ascending distance. Empty is
	// valid (the shard holds nothing near the query).
	Cands []topk.Candidate
}

// Merge folds per-shard top-k lists into one global top-k in ascending
// topk.Less order (distance, then id) — the paper's coordinator merge,
// hardened for live shards:
//
//   - duplicate IDs across shards collapse to the single best (smallest)
//     distance, so a vector present on two shards cannot occupy two
//     result slots;
//   - empty shard responses contribute nothing;
//   - when fewer than k candidates exist in total, all of them are
//     returned (len(result) < k);
//   - when owns is non-nil, a candidate is dropped unless owns(id, shard)
//     reports the reporting shard as authoritative for it. Routers pass a
//     predicate that trusts the owning shard while it is alive, which is
//     what keeps a tombstoned ID from resurfacing off a stale shard that
//     missed the delete.
//
// The selection is fully deterministic: when several candidates tie on
// distance at the k boundary, the smallest IDs win. The bounded heap is
// fed in map iteration order, which cannot matter under topk.Less's total
// order; since each shard answers its own top-k under the same order, the
// result is the top-k of the union of the shards' candidates.
//
// Distances are compared in the float domain.
func Merge(k int, hits []ShardHits, owns func(id int64, shard int) bool) []topk.Candidate {
	if k <= 0 {
		return nil
	}
	// Dedupe first: the best surviving distance per id, regardless of how
	// many shards reported it.
	best := make(map[int64]float32)
	for _, sh := range hits {
		for _, c := range sh.Cands {
			if owns != nil && !owns(c.ID, sh.Shard) {
				continue
			}
			if d, ok := best[c.ID]; !ok || c.Dist < d {
				best[c.ID] = c.Dist
			}
		}
	}
	if len(best) == 0 {
		return nil
	}
	h := topk.NewHeap(min(k, len(best)))
	for id, d := range best {
		h.Push(id, d)
	}
	return h.Sorted()
}
