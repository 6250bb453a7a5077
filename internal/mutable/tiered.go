package mutable

import (
	"fmt"
	"os"

	"repro/internal/ivfpq"
	"repro/internal/tier"
)

// Tiered deployments serve each epoch's base out of core: compaction
// writes the folded base as a cluster image file, strips the in-RAM
// posting lists, and searches the base through an internal/tier store
// (hot-set pinning, async prefetch, cold streaming). The read path and
// the fold are the in-RAM ones: both read a cluster's payload through the
// snapshot's ivfpq.Payload, the index in RAM or the tier store out of
// core, and neither asks which.
//
// Epoch lifetime is reference-counted: a snapshot is born holding the
// publisher's reference, every reader pins it under the overlay read
// lock before scanning lock-free, and the image file plus tier store are
// reclaimed when the last reference drops — so a compaction can publish
// and retire an epoch while searches still stream from its image.

// TierConfig enables out-of-core serving when set on Config.Tier.
type TierConfig struct {
	// Dir is where epoch image files are written (os.TempDir() when
	// empty). Each epoch gets its own file, removed when the epoch's last
	// reader finishes.
	Dir string
	// Store tunes each epoch's tier store (hot budget, prefetch,
	// rebalance period, fault policy).
	Store tier.Config
}

// pin takes a reference on a tiered snapshot; no-op for in-RAM
// snapshots. Callers must pin under the overlay read lock: publication
// also holds the overlay lock, so a snapshot loaded and pinned there can
// never have been retired in between.
func (s *snapshot) pin() {
	if s.store != nil {
		s.refs.Add(1)
	}
}

// unpin drops a reference; the last one out closes the tier store and
// deletes the epoch's image file.
func (s *snapshot) unpin() {
	if s.store == nil {
		return
	}
	if s.refs.Add(-1) != 0 {
		return
	}
	s.store.Close()
	s.img.Close()
	os.Remove(s.imgPath)
}

// deployTiered turns a folded index into a tiered epoch snapshot: the
// cluster payloads go to an image file, the in-RAM lists are stripped
// (the quantizers stay — they are the compute state every epoch shares),
// and a tier store is seeded with the observed access frequencies so
// its first hot set matches the workload.
func deployTiered(ix *ivfpq.Index, freqs []float64, epoch uint64, tc *TierConfig) (*snapshot, error) {
	dir := tc.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, fmt.Sprintf("upanns-epoch-%d-*.img", epoch))
	if err != nil {
		return nil, fmt.Errorf("mutable: creating epoch %d image: %w", epoch, err)
	}
	fail := func(err error) (*snapshot, error) {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	n, err := ix.WriteImage(f)
	if err != nil {
		return fail(fmt.Errorf("mutable: writing epoch %d image: %w", epoch, err))
	}
	img, err := ivfpq.OpenImage(f, n)
	if err != nil {
		return fail(fmt.Errorf("mutable: reopening epoch %d image: %w", epoch, err))
	}
	baseN := ix.NTotal
	occ := clusterOccupancy(ix)
	// The image is the base payload now; dropping the lists is what makes
	// the deployment out-of-core. Shared quantizers are untouched.
	ix.Lists = make([]ivfpq.List, ix.NList())
	st := tier.NewStore(tier.NewImageSource(img), tc.Store)
	st.SeedFrequencies(freqs)
	st.Rebalance()
	snap := &snapshot{
		epoch:   epoch,
		ix:      ix,
		base:    st,
		store:   st,
		freqs:   freqs,
		baseN:   baseN,
		occ:     occ,
		img:     f,
		imgPath: f.Name(),
	}
	snap.refs.Store(1)
	return snap, nil
}

// TierStats snapshots the current epoch's tier store counters (nil for
// in-RAM deployments).
func (u *UpdatableIndex) TierStats() *tier.Stats {
	snap := u.snap.Load()
	if snap.store == nil {
		return nil
	}
	st := snap.store.Stats()
	return &st
}
