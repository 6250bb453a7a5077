package filter

import (
	"fmt"
	"sync/atomic"
)

// Mode selects the filtered-search execution strategy.
type Mode uint8

const (
	// ModeAuto lets the planner choose from estimated selectivity.
	ModeAuto Mode = iota
	// ModePre forces pre-filtering: evaluate the predicate to an
	// allow-bitmap, then scan only matching codes in each probed cluster.
	ModePre
	// ModePost forces post-filtering: scan normally with an inflated
	// fetch k, then drop candidates that fail the predicate.
	ModePost
)

// String names the mode as it appears in stats and bench output.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "adaptive"
	case ModePre:
		return "pre"
	case ModePost:
		return "post"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// PreThreshold is the selectivity below which the planner pre-filters:
// when at most this fraction of the corpus qualifies, intersecting
// posting bitmaps and scanning only matching codes beats scanning
// everything and discarding most of it. Above it, most scanned codes
// would pass anyway, so post-filtering with a modestly inflated fetch k
// is cheaper than per-code bitmap probes.
const PreThreshold = 0.10

// PostInflation multiplies the selectivity-corrected fetch k of the
// post-filter path (fetch ~ k/selectivity), buying recall headroom
// against locally-uneven selectivity within the probed clusters.
const PostInflation = 1.5

// MaxFetchK caps the post-filter fetch depth so a mis-estimated
// selectivity cannot turn one query into an unbounded scan of the heap.
const MaxFetchK = 2048

// Plan is one filtered query's resolved execution strategy.
type Plan struct {
	// Mode is ModePre or ModePost (never ModeAuto after planning).
	Mode Mode
	// Selectivity is the estimate the decision was made on.
	Selectivity float64
	// FetchK is the scan depth: k for pre-filtering, the inflated k for
	// post-filtering.
	FetchK int
}

// PlanSearch resolves the execution strategy for a k-NN query whose
// predicate has the given estimated selectivity. forced pins the mode
// (ModeAuto lets selectivity decide).
func PlanSearch(est float64, k int, forced Mode) Plan {
	p := Plan{Selectivity: est, Mode: forced, FetchK: k}
	if p.Mode == ModeAuto {
		if est <= PreThreshold {
			p.Mode = ModePre
		} else {
			p.Mode = ModePost
		}
	}
	if p.Mode == ModePost {
		var fetch float64
		if est > 0 {
			fetch = float64(k) / est * PostInflation
		} else {
			fetch = MaxFetchK
		}
		p.FetchK = int(fetch)
		if p.FetchK < k {
			p.FetchK = k
		}
		if p.FetchK > MaxFetchK {
			p.FetchK = MaxFetchK
		}
	}
	return p
}

// SelectivityBuckets are the upper bounds of the Stats selectivity
// histogram: (0, 0.1%], (0.1%, 1%], (1%, 10%], (10%, 50%], (50%, 100%].
var SelectivityBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1.0}

// Stats counts filtered-search planning decisions; one lives on every
// filtered deployment and its snapshot is published on /stats (and
// merged across shards by the cluster router).
type Stats struct {
	filtered atomic.Uint64
	pre      atomic.Uint64
	post     atomic.Uint64
	forced   atomic.Uint64
	hist     [len5]atomic.Uint64
}

// len5 pins the histogram length to the bucket count at compile time.
const len5 = 5

// Record accounts one planned query batch of nq queries.
func (s *Stats) Record(p Plan, forced bool, nq int) {
	n := uint64(nq)
	s.filtered.Add(n)
	if p.Mode == ModePre {
		s.pre.Add(n)
	} else {
		s.post.Add(n)
	}
	if forced {
		s.forced.Add(n)
	}
	b := 0
	for b < len(SelectivityBuckets)-1 && p.Selectivity > SelectivityBuckets[b] {
		b++
	}
	s.hist[b].Add(n)
}

// Snapshot returns the point-in-time JSON view.
func (s *Stats) Snapshot() *StatsSnapshot {
	out := &StatsSnapshot{
		Filtered:          s.filtered.Load(),
		PreDecisions:      s.pre.Load(),
		PostDecisions:     s.post.Load(),
		ForcedMode:        s.forced.Load(),
		SelectivityBounds: SelectivityBuckets,
		SelectivityHist:   make([]uint64, len5),
	}
	for i := range s.hist {
		out.SelectivityHist[i] = s.hist[i].Load()
	}
	return out
}

// StatsSnapshot is the JSON-serializable view of Stats. The cluster
// router sums snapshots across shards into its merged /stats.
type StatsSnapshot struct {
	// Filtered counts filtered queries planned.
	Filtered uint64 `json:"filtered_queries"`
	// PreDecisions / PostDecisions partition Filtered by chosen strategy.
	PreDecisions  uint64 `json:"prefilter_decisions"`
	PostDecisions uint64 `json:"postfilter_decisions"`
	// ForcedMode counts queries whose caller pinned the strategy instead
	// of letting selectivity decide.
	ForcedMode uint64 `json:"forced_mode"`
	// SelectivityBounds are the histogram buckets' inclusive upper
	// bounds; SelectivityHist counts queries whose estimated selectivity
	// fell in each bucket.
	SelectivityBounds []float64 `json:"selectivity_bucket_bounds"`
	SelectivityHist   []uint64  `json:"selectivity_histogram"`
}

// Merge accumulates o into s (histograms add bucket-wise).
func (s *StatsSnapshot) Merge(o *StatsSnapshot) {
	if o == nil {
		return
	}
	s.Filtered += o.Filtered
	s.PreDecisions += o.PreDecisions
	s.PostDecisions += o.PostDecisions
	s.ForcedMode += o.ForcedMode
	if len(s.SelectivityHist) == 0 {
		s.SelectivityBounds = o.SelectivityBounds
		s.SelectivityHist = append([]uint64(nil), o.SelectivityHist...)
		return
	}
	for i := range o.SelectivityHist {
		if i < len(s.SelectivityHist) {
			s.SelectivityHist[i] += o.SelectivityHist[i]
		}
	}
}
