// Package mutable makes the UpANNS deployment updatable under live
// traffic: an UpdatableIndex accepts online Insert and Delete while
// readers keep searching, without rebuild downtime.
//
// The paper evaluates a static, offline-built index; real corpora churn.
// This package layers an LSM-style write overlay over the shared IVFPQ
// index and republishes the base in epochs:
//
//   - Writes land in a small mutable overlay: inserts are PQ-encoded with
//     the trained quantizers into per-cluster append logs; deletes are
//     sequence-numbered tombstones. Every write carries a monotonically
//     increasing sequence number, so "latest version wins" is decided by
//     comparing sequence numbers, never by mutating published data.
//
//   - Every read — plain, tiered, filtered, shadow-oracle — runs one
//     sequence: coarse probe, one consistent (epoch, overlay) cut under
//     the overlay read lock, one lock-free scan on the ivfpq scanner,
//     merge. Per probed cluster the scanner folds the captured epoch's
//     base payload (posting list, or tier store out of core) and the
//     cluster's live log entries off one fixed-scale quantized LUT;
//     tombstones filter dead ids, and newer log versions shadow their
//     base copies, so inserts and deletes are visible immediately, not at
//     the next compaction.
//
//   - A background compactor watches the pending-log and tombstone
//     ratios and, when either crosses its threshold, folds the overlay
//     into a fresh index (ivfpq.CloneStructure + surviving entries) and
//     publishes it as the next epoch.
//
// Epoch publication is RCU-style: the snapshot lives in an
// atomic.Pointer, publication takes the overlay write lock, and writers
// never block readers for the duration of a rebuild — the old epoch
// keeps serving while the next one is built offline. See DESIGN.md
// ("Layer 3.5 — mutability") for the full consistency argument.
//
// Deployed with a Config.Schema, the index additionally answers
// attribute-filtered searches (SearchOpts.Pred): vectors carry typed tags
// in a filter.Store beside the index, and a selectivity-adaptive planner
// either pushes the predicate's allow-bitmap into the base scan or
// post-filters an inflated candidate set — the same read with a
// predicate that only prunes it. Tags arrive with upserts, survive
// compaction untouched, and die with deletes.
package mutable
