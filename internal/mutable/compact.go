package mutable

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/tier"
)

// This file implements epoch compaction: folding the write overlay into a
// fresh immutable index and publishing it as the next epoch (a tiered
// epoch is first written to its own image file behind a fresh tier
// store). The expensive work (fold + deploy) runs without any lock; only the capture at the start and the
// publication at the end take the overlay lock, so readers and writers
// proceed against the old epoch for the whole rebuild.

// foldCapture freezes the fold inputs: the epoch to fold, per-cluster log
// lengths at capture time, and copies of the version/tombstone maps. Log
// slice contents are append-only, so retaining slice headers bounded by
// the captured lengths is race-free even while writers keep appending.
type foldCapture struct {
	snap    *snapshot
	seq     uint64
	logLens []int
	logs    []clusterLog
	tombs   map[int64]uint64
	latest  map[int64]entryRef
	freqs   []float64
	trigger string
}

// capture decides whether compaction should run and, if so, freezes its
// inputs. force bypasses the thresholds.
func (u *UpdatableIndex) capture(force bool) *foldCapture {
	u.mu.RLock()
	defer u.mu.RUnlock()
	snap := u.snap.Load()

	trigger := ""
	baseN := float64(snap.baseN)
	if baseN < 1 {
		baseN = 1
	}
	switch {
	case force:
		trigger = "forced"
	case float64(u.logCount)/baseN >= u.cfg.MaxLogRatio:
		trigger = "log-ratio"
	case float64(len(u.tombs))/baseN >= u.cfg.MaxTombRatio:
		trigger = "tombstone-ratio"
	}
	if trigger == "" {
		return nil
	}

	c := &foldCapture{
		snap:    snap,
		seq:     u.seq,
		logLens: make([]int, u.nlist),
		logs:    make([]clusterLog, u.nlist),
		tombs:   make(map[int64]uint64, len(u.tombs)),
		latest:  make(map[int64]entryRef, len(u.latest)),
		freqs:   u.observedFreqs(snap),
		trigger: trigger,
	}
	for i := range u.logs {
		n := len(u.logs[i].ids)
		c.logLens[i] = n
		c.logs[i] = clusterLog{
			ids:   u.logs[i].ids[:n:n],
			seqs:  u.logs[i].seqs[:n:n],
			codes: u.logs[i].codes[: n*snap.ix.PQ.M : n*snap.ix.PQ.M],
		}
	}
	for id, s := range u.tombs {
		c.tombs[id] = s
	}
	for id, r := range u.latest {
		c.latest[id] = r
	}
	// The fold reads the captured epoch's base without locks; in tiered
	// mode the pin keeps its image file alive even though searches may
	// meanwhile run against newer epochs. Compact unpins when done.
	c.snap.pin()
	return c
}

// observedFreqs converts the probe counters into access frequencies
// normalized to mean 1 with a small floor (mirroring
// workload.ClusterFrequencies) — the seed of the next tiered epoch's hot
// set. With too few probes to be meaningful (under 8 per cluster) the
// epoch keeps its own frequencies. Caller holds at least mu.RLock.
func (u *UpdatableIndex) observedFreqs(snap *snapshot) []float64 {
	total := uint64(0)
	counts := make([]float64, u.nlist)
	for i := range u.acc {
		v := u.acc[i].Load()
		counts[i] = float64(v)
		total += v
	}
	if total < uint64(8*u.nlist) {
		return snap.freqs
	}
	mean := float64(total) / float64(u.nlist)
	for i := range counts {
		counts[i] /= mean
		if counts[i] < 0.01 {
			counts[i] = 0.01
		}
	}
	return counts
}

// Compact folds the overlay into the next epoch if a pressure threshold
// is crossed (or force is set) and publishes it. It returns whether an
// epoch was published. Only one compaction runs at a time; concurrent
// calls serialize.
func (u *UpdatableIndex) Compact(force bool) (bool, error) {
	u.compactMu.Lock()
	defer u.compactMu.Unlock()

	fc := u.capture(force)
	if fc == nil {
		return false, nil
	}
	defer fc.snap.unpin()
	u.compacting.Store(true)
	defer u.compacting.Store(false)
	start := time.Now()

	// ---- Fold (no locks): base entries that survived, then the live log
	// versions, cluster by cluster. A tiered base streams from the pinned
	// epoch's image in bounded chunks; an in-RAM base reads its lists
	// directly. ----
	m := fc.snap.ix.PQ.M
	newIx := fc.snap.ix.CloneStructure()
	folded := uint64(0)
	for c := 0; c < u.nlist; c++ {
		survivors := func(ids []int64, codes []uint8) error {
			for i, id := range ids {
				if _, dead := fc.tombs[id]; dead {
					continue
				}
				if _, shadowed := fc.latest[id]; shadowed {
					continue
				}
				newIx.AppendEncoded(int32(c), id, codes[i*m:(i+1)*m])
			}
			return nil
		}
		if fc.snap.tix == nil {
			survivors(fc.snap.ix.Lists[c].IDs, fc.snap.ix.Lists[c].Codes)
		} else if _, err := fc.snap.tix.Store().ScanCluster(int32(c), tier.FoldChunk, survivors); err != nil {
			u.compactErrs.Add(1)
			obs.Flight.Record("compaction_error",
				obs.Int("epoch", int64(fc.snap.epoch)), obs.Str("stage", "fold"), obs.Str("err", err.Error()))
			return false, fmt.Errorf("mutable: folding tiered cluster %d of epoch %d: %w", c, fc.snap.epoch, err)
		}
		lg := &fc.logs[c]
		for i := 0; i < fc.logLens[c]; i++ {
			id, s := lg.ids[i], lg.seqs[i]
			if ref, ok := fc.latest[id]; !ok || ref.seq != s {
				continue
			}
			if ts, ok := fc.tombs[id]; ok && ts > s {
				continue
			}
			newIx.AppendEncoded(int32(c), id, lg.codes[i*m:(i+1)*m])
			folded++
		}
	}

	// ---- Deploy the next epoch: an in-RAM epoch is just its folded
	// index; a tiered one gets a fresh image file and tier store (no
	// locks; the old epoch keeps serving). ----
	var next *snapshot
	if u.cfg.Tier != nil {
		var err error
		if next, err = deployTiered(newIx, fc.freqs, fc.snap.epoch+1, u.cfg.Tier); err != nil {
			u.compactErrs.Add(1)
			obs.Flight.Record("compaction_error",
				obs.Int("epoch", int64(fc.snap.epoch+1)), obs.Str("stage", "deploy"), obs.Str("err", err.Error()))
			return false, err
		}
	} else {
		next = &snapshot{
			epoch: fc.snap.epoch + 1,
			ix:    newIx,
			freqs: fc.freqs,
			baseN: newIx.NTotal,
			occ:   clusterOccupancy(newIx),
		}
	}

	// ---- Publish: swap the snapshot and retire the folded overlay in
	// one critical section, so readers always see a consistent
	// (epoch, overlay) pair. ----
	u.mu.Lock()
	u.snap.Store(next)
	remaining := 0
	for c := range u.logs {
		lg := &u.logs[c]
		n := fc.logLens[c]
		keep := len(lg.ids) - n
		if keep == 0 {
			*lg = clusterLog{}
			continue
		}
		// Copy the unfolded suffix into fresh arrays so the folded prefix
		// becomes collectable.
		*lg = clusterLog{
			ids:   append([]int64(nil), lg.ids[n:]...),
			seqs:  append([]uint64(nil), lg.seqs[n:]...),
			codes: append([]uint8(nil), lg.codes[n*m:]...),
		}
		remaining += keep
	}
	u.logCount = remaining
	latest := make(map[int64]entryRef, remaining)
	for c := range u.logs {
		lg := &u.logs[c]
		for i, id := range lg.ids {
			if ref, ok := latest[id]; !ok || lg.seqs[i] > ref.seq {
				latest[id] = entryRef{cluster: int32(c), seq: lg.seqs[i]}
			}
		}
	}
	u.latest = latest
	for id, s := range u.tombs {
		if s <= fc.seq {
			delete(u.tombs, id) // applied physically in this fold
		}
	}
	u.shadow = pendingShadow(u.latest, u.tombs)
	for i := range u.acc {
		u.acc[i].Store(0)
	}
	u.lastTrigger = fc.trigger
	u.mu.Unlock()

	// The replaced epoch is retired after publication: readers that pinned
	// it under the overlay lock keep its image alive until they finish;
	// once the last unpins, the tier store closes and the file is deleted.
	fc.snap.retire()

	ns := time.Since(start).Nanoseconds()
	u.lastCompactNs.Store(ns)
	if ns > u.maxCompactNs.Load() {
		u.maxCompactNs.Store(ns)
	}
	u.totalCompactNs.Add(ns)
	u.foldedEntries.Add(folded)
	u.compactions.Add(1)
	obs.Flight.Record("epoch_swap",
		obs.Int("epoch", int64(next.epoch)),
		obs.Str("trigger", fc.trigger),
		obs.Int("folded", int64(folded)),
		obs.Int("base_n", next.baseN),
		obs.Float("seconds", float64(ns)/1e9))
	// The publication event proper: what the quality plane's timeline
	// correlates recall dips (and their recovery) against — epoch_swap
	// above carries the fold economics, this one the published state.
	obs.Flight.Record("compaction_published",
		obs.Int("epoch", int64(next.epoch)),
		obs.Int("base_n", next.baseN),
		obs.Int("remaining_log", int64(remaining)),
		obs.Str("trigger", fc.trigger))
	return true, nil
}

// pendingShadow builds an epoch's initial shadow map from the overlay left
// pending over it: every id with a log version or a tombstone. Reads of
// the epoch are cut after all of these writes, so which of an id's
// sequence numbers it records is immaterial.
func pendingShadow(latest map[int64]entryRef, tombs map[int64]uint64) map[int64]uint64 {
	shadow := make(map[int64]uint64, len(latest)+len(tombs))
	for id, ref := range latest {
		shadow[id] = ref.seq
	}
	for id, s := range tombs {
		shadow[id] = s
	}
	return shadow
}

// compactor is the background loop: every CheckInterval it lets Compact
// decide whether any pressure threshold is crossed.
func (u *UpdatableIndex) compactor() {
	defer u.wg.Done()
	t := time.NewTicker(u.cfg.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-u.stopc:
			return
		case <-t.C:
			// Threshold decisions and errors are recorded in the stats
			// counters; the loop itself never stops on a failed epoch —
			// the previous epoch keeps serving.
			u.Compact(false) //nolint:errcheck
		}
	}
}
