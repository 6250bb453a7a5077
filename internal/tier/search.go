package tier

import (
	"fmt"

	"repro/internal/ivfpq"
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

// Search is ivfpq.Index.Search with the store as the payload of the probe
// loop, so results are bit-for-bit those of the in-RAM path, and o.Scratch
// is honoured alike. A failed cold read fails the search, or under
// Config.SkipFaulty skips the cluster (SearchStats.SkippedClusters).
func (t *Index) Search(query []float32, o ivfpq.SearchOpts) ([]topk.Candidate, ivfpq.SearchStats, error) {
	s := o.Scratch
	if s == nil {
		s = ivfpq.NewScratch()
	}
	s.Begin(t.base, query, o)
	probes := s.Probe(o.NProbe)
	t.store.Hint(probes)
	err := s.Run(probes, t.store)
	cands, st := s.Finish()
	if err != nil {
		return nil, st, err
	}
	return cands, st, nil
}
