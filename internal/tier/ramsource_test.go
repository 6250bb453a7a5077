package tier

import (
	"fmt"

	"repro/internal/ivfpq"
)

// RAMSource serves an index's in-RAM posting lists — the resident tier.
// The lists must not be mutated while the source serves them (the same
// immutability epoch snapshots already guarantee).
type RAMSource struct {
	lists  []ivfpq.List
	m      int
	ntotal int64
}

// NewRAMSource wraps ix's posting lists.
func NewRAMSource(ix *ivfpq.Index) *RAMSource {
	return &RAMSource{lists: ix.Lists, m: ix.PQ.M, ntotal: ix.NTotal}
}

// NumClusters returns the cluster count.
func (s *RAMSource) NumClusters() int { return len(s.lists) }

// M returns the PQ code width in bytes.
func (s *RAMSource) M() int { return s.m }

// Len returns cluster c's vector count.
func (s *RAMSource) Len(c int32) int { return s.lists[c].Len() }

// NTotal returns the total vector count.
func (s *RAMSource) NTotal() int64 { return s.ntotal }

// ReadInto copies the requested range out of the resident lists.
func (s *RAMSource) ReadInto(ids []int64, codes []uint8, c int32, base int) error {
	n := len(ids)
	l := &s.lists[c]
	if base < 0 || base+n > l.Len() {
		return fmt.Errorf("tier: cluster %d range [%d, %d) outside its %d entries", c, base, base+n, l.Len())
	}
	if len(codes) != n*s.m {
		return fmt.Errorf("tier: cluster %d: %d code bytes for %d ids (M %d)", c, len(codes), n, s.m)
	}
	copy(ids, l.IDs[base:base+n])
	copy(codes, l.Codes[base*s.m:(base+n)*s.m])
	return nil
}

// Resident returns the cluster's slices directly — always ok.
func (s *RAMSource) Resident(c int32) ([]int64, []uint8, bool) {
	l := &s.lists[c]
	return l.IDs, l.Codes, true
}
