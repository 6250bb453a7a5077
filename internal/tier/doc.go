// Package tier is the out-of-core cluster store: it serves IVFPQ
// corpora several times larger than RAM by mapping the paper's
// MRAM/WRAM split onto the host storage hierarchy. Cluster payloads
// (ids + PQ codes) live behind the ClusterSource interface — in-RAM
// slabs (RAMSource) or a pread-addressed image file written by
// ivfpq.WriteImage (ImageSource) — and a Store layers three residency
// mechanisms on top:
//
//   - a WRAM-analogue hot set: the most-frequently-probed clusters,
//     chosen by placement.HotSet under a byte budget from the access
//     frequencies the drift detector observes, are pinned resident and
//     rebalanced as the workload shifts;
//   - an async prefetcher: the clusters a query's coarse quantization
//     names are warmed in the background so the ADC scan finds them
//     resident by the time it reaches them. A search never waits for a
//     prefetch that no worker has started: it claims the entry, streams
//     the cluster cold itself, and the worker skips it. Only a read
//     already in flight is waited for. So issued − hits counts the
//     prefetches searches overtook (plus failed reads), and the hot-hit
//     rate counts an overtaken prefetch as a miss;
//   - a cold path that streams ids and codes in ScanBlock-sized chunks,
//     so a scan over a cluster far larger than cache never inflates the
//     heap.
//
// The package owns where a payload comes from, not how it is scored:
// Index.ScanCluster feeds resident slabs or cold chunks to the ivfpq
// scanner that ivfpq.Index.Search feeds posting lists to, so tiered
// results are bit-identical to the in-RAM path in both arithmetic modes
// and under filter pushdown (the golden suite pins this). I/O failures
// surface as errors, or — under Config.SkipFaulty —
// as per-cluster skips counted in SearchStats and on /metrics: a faulty
// device can degrade a result, never silently corrupt one. FaultReaderAt
// is the fault-injection shim the tests drive short reads, EIO, and slow
// reads through.
package tier
