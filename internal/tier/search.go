package tier

import (
	"fmt"
	"sync"

	"repro/internal/ivfpq"
	"repro/internal/pq"
	"repro/internal/topk"
)

// Index pairs an IVFPQ index's compute state — coarse quantizer, PQ
// codebooks, quantization scale — with a tier store serving the cluster
// payloads. The base index's own posting lists are never consulted (a
// tiered deployment strips them to reclaim the RAM); every id and code
// comes through the store.
type Index struct {
	base  *ivfpq.Index
	store *Store
}

// NewIndex validates that store serves payloads shaped like base and
// binds them.
func NewIndex(base *ivfpq.Index, store *Store) (*Index, error) {
	if got, want := store.NumClusters(), base.Coarse.NList(); got != want {
		return nil, fmt.Errorf("tier: store has %d clusters, index expects %d", got, want)
	}
	if got, want := store.src.M(), base.PQ.M; got != want {
		return nil, fmt.Errorf("tier: store serves %d-byte codes, index expects %d", got, want)
	}
	return &Index{base: base, store: store}, nil
}

// Store returns the cluster store.
func (t *Index) Store() *Store { return t.store }

// SearchStats extends the in-RAM counters with tier residency: how many
// probed clusters were served from memory, how many streamed cold, and
// how many were abandoned after I/O failures under SkipFaulty.
type SearchStats struct {
	ivfpq.SearchStats
	HotClusters     int
	ColdClusters    int
	SkippedClusters int
	// ColdBytes is the bytes this search streamed from the cold tier
	// (id blocks + PQ codes) — the per-query cost accounting's
	// attribution of device traffic to the query that caused it.
	ColdBytes int
}

var scratchPool = sync.Pool{New: func() any { return ivfpq.NewScratch() }}

// Search runs the IVFPQ online pipeline against tiered cluster
// payloads and returns the K nearest candidates plus work and residency
// counters: the ivfpq scanner, fed by ScanCluster instead of posting
// lists, so results are bit-for-bit identical to the in-RAM path in both
// arithmetic modes and under filter pushdown.
//
// A cold read failing mid-cluster either fails the search (default) or,
// under Config.SkipFaulty, abandons that cluster — counted in
// SearchStats.SkippedClusters — and continues. o.Scratch is ignored;
// the returned slice is freshly allocated. It panics if o.K <= 0
// (matching topk.NewHeap).
func (t *Index) Search(query []float32, o ivfpq.SearchOpts) ([]topk.Candidate, SearchStats, error) {
	var st SearchStats
	s := scratchPool.Get().(*ivfpq.Scratch)
	defer scratchPool.Put(s)
	s.Begin(t.base, query, o)
	probes := s.Probe(o.NProbe)
	t.store.Hint(probes)
	var err error
	for _, cl := range probes {
		s.Cluster(cl)
		if err = t.ScanCluster(s, cl, &st); err != nil {
			break
		}
	}
	cands, scanned := s.Finish()
	st.SearchStats = scanned
	if err != nil {
		return nil, st, err
	}
	return append([]topk.Candidate(nil), cands...), st, nil
}

// ScanCluster feeds cluster cl's payload to the scanner s (whose current
// cluster must be cl) — a resident cluster in place, a cold one a
// pq.ScanBlock at a time — counting residency and cold traffic into st.
// A failed cold read abandons the cluster under Config.SkipFaulty and is
// the returned error otherwise.
func (t *Index) ScanCluster(s *ivfpq.Scratch, cl int32, st *SearchStats) error {
	if t.store.Len(cl) == 0 {
		return nil
	}
	streamed := 0
	resident, err := t.store.ScanCluster(cl, pq.ScanBlock, func(ids []int64, codes []uint8) error {
		streamed += len(ids)*8 + len(codes)
		s.Scan(ids, codes)
		return nil
	})
	if resident {
		st.HotClusters++
		return nil
	}
	st.ColdClusters++
	st.ColdBytes += streamed
	if err == nil {
		return nil
	}
	if !t.store.cfg.SkipFaulty {
		return fmt.Errorf("tier: cluster %d: %w", cl, err)
	}
	st.SkippedClusters++
	t.store.recordSkipped(cl, err)
	return nil
}
