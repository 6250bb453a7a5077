package tier

import (
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
)

// Config tunes a Store.
type Config struct {
	// ShardID names the shard this store serves, for fault attribution:
	// it labels tier fault log lines, the upanns_tier_shard_faults_total
	// series, and flight-recorder events. Empty on single-host
	// deployments.
	ShardID string
	// HotBytes is the byte budget for the pinned hot set, the
	// WRAM-analogue tier. Zero pins nothing.
	HotBytes int64
	// PrefetchWorkers is how many background goroutines warm
	// coarse-quantization-named clusters. Zero disables prefetch.
	PrefetchWorkers int
	// PrefetchDepth bounds the prefetch queue; requests beyond it are
	// dropped (the search streams cold instead). Defaults to 64.
	PrefetchDepth int
	// RebalanceEvery, when positive, re-derives the hot set from decayed
	// access frequencies on this period. Zero leaves rebalancing to
	// explicit Rebalance calls.
	RebalanceEvery time.Duration
	// SkipFaulty makes searches abandon a cluster whose cold read fails
	// — counted in SearchStats.SkippedClusters and on /metrics — instead
	// of failing the whole search. Results degrade visibly, never
	// silently.
	SkipFaulty bool
}

// slab is one cluster's payload pinned in memory.
type slab struct {
	ids   []int64
	codes []uint8
}

func (sl *slab) bytes() int64 { return int64(len(sl.ids))*8 + int64(len(sl.codes)) }

// warmEntry tracks one queued prefetch. claimed is taken exactly once,
// by whichever of a prefetch worker and a search gets there first. A
// worker that wins reads the cluster and closes ready after
// slab/err/readyAt are set; a search that wins streams the cluster cold
// itself and the worker skips the entry. So ready is only ever waited on
// for a read already in flight.
type warmEntry struct {
	claimed atomic.Bool
	ready   chan struct{}
	slab    *slab
	err     error
	readyAt time.Time
}

type prefetchReq struct {
	c int32
	e *warmEntry
}

// Store layers residency management over a ClusterSource: a pinned hot
// set chosen by access frequency under Config.HotBytes, an async
// prefetcher warming the clusters a query probes, and a cold streaming
// path for everything else. All methods are safe for concurrent use;
// Close must not race with searches (epoch snapshots already serialize
// that).
type Store struct {
	src ClusterSource
	cfg Config
	m   int

	hot  []atomic.Pointer[slab]
	freq []atomic.Uint64

	warmMu sync.Mutex
	warm   map[int32]*warmEntry
	closed bool
	reqc   chan prefetchReq

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	hotCount atomic.Int64
	hotBytes atomic.Int64

	hotHits     atomic.Uint64
	hotMisses   atomic.Uint64
	coldReads   atomic.Uint64
	coldBytes   atomic.Uint64
	coldNanos   atomic.Int64
	prefIssued  atomic.Uint64
	prefHits    atomic.Uint64
	prefLeadNs  atomic.Int64
	prefDropped atomic.Uint64
	promotions  atomic.Uint64
	evictions   atomic.Uint64
	skipped     atomic.Uint64
}

// NewStore builds a store over src and starts its prefetch workers and
// rebalance loop per cfg.
func NewStore(src ClusterSource, cfg Config) *Store {
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 64
	}
	s := &Store{
		src:   src,
		cfg:   cfg,
		m:     src.M(),
		hot:   make([]atomic.Pointer[slab], src.NumClusters()),
		freq:  make([]atomic.Uint64, src.NumClusters()),
		warm:  make(map[int32]*warmEntry),
		reqc:  make(chan prefetchReq, cfg.PrefetchDepth),
		stopc: make(chan struct{}),
	}
	for i := 0; i < cfg.PrefetchWorkers; i++ {
		s.wg.Add(1)
		go s.prefetchWorker()
	}
	if cfg.RebalanceEvery > 0 {
		s.wg.Add(1)
		go s.rebalanceLoop()
	}
	return s
}

// NumClusters returns the cluster count.
func (s *Store) NumClusters() int { return len(s.hot) }

// Len returns cluster c's vector count.
func (s *Store) Len(c int32) int { return s.src.Len(c) }

// SeedFrequencies primes the access counters from externally observed
// probe frequencies (the drift detector's histogram), so the first
// rebalance pins a sensible hot set before any tiered search runs.
func (s *Store) SeedFrequencies(freqs []float64) {
	n := len(freqs)
	if n > len(s.freq) {
		n = len(s.freq)
	}
	for i := 0; i < n; i++ {
		if freqs[i] > 0 {
			s.freq[i].Store(uint64(freqs[i] * 1024))
		}
	}
}

// Hint tells the store which clusters a live query is about to scan, in
// scan order: each counts toward future rebalances, and all but the first
// — which is scanned immediately — are handed to Prefetch. Reads that
// must not steer residency (the shadow oracle) skip it.
func (s *Store) Hint(probes []int32) {
	for _, c := range probes {
		s.freq[c].Add(1)
	}
	if len(probes) > 1 {
		s.Prefetch(probes[1:])
	}
}

// Prefetch hands the not-yet-resident clusters in probes to the
// background warmers. Duplicate and already-resident clusters are
// skipped; when the queue is full the request is dropped and the search
// will stream that cluster cold, as it will any prefetch it reaches
// before a worker has started it. Never blocks.
func (s *Store) Prefetch(probes []int32) {
	if s.cfg.PrefetchWorkers == 0 {
		return
	}
	for _, c := range probes {
		if s.hot[c].Load() != nil {
			continue
		}
		s.warmMu.Lock()
		if s.closed {
			s.warmMu.Unlock()
			return
		}
		if _, dup := s.warm[c]; dup {
			s.warmMu.Unlock()
			continue
		}
		e := &warmEntry{ready: make(chan struct{})}
		select {
		case s.reqc <- prefetchReq{c: c, e: e}:
			s.warm[c] = e
			s.warmMu.Unlock()
			s.prefIssued.Add(1)
			obs.Tier.RecordPrefetchIssued()
		default:
			s.warmMu.Unlock()
			s.prefDropped.Add(1)
		}
	}
}

func (s *Store) prefetchWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopc:
			return
		case req := <-s.reqc:
			if !req.e.claimed.CompareAndSwap(false, true) {
				continue // a search overtook it and read the cluster itself
			}
			sl, err := s.readCluster(req.c)
			req.e.slab, req.e.err = sl, err
			req.e.readyAt = time.Now()
			close(req.e.ready)
		}
	}
}

// claimWarm removes cluster c's prefetch entry and, when a worker has
// already started its read, waits for that read and returns the entry.
// ok is false when there is nothing to wait for: no prefetch was queued,
// or none had started — that one is claimed here so its worker skips
// it, and the caller streams the cluster cold instead of waiting on a
// hand-off.
func (s *Store) claimWarm(c int32) (*warmEntry, bool) {
	s.warmMu.Lock()
	e := s.warm[c]
	if e != nil {
		delete(s.warm, c)
	}
	s.warmMu.Unlock()
	if e == nil || e.claimed.CompareAndSwap(false, true) {
		return nil, false
	}
	<-e.ready
	return e, true
}

// acquire returns cluster c's payload if it can be served from memory:
// the pinned hot set, or a prefetch that is finished or in flight. ok == false means the caller must stream the
// cluster cold — including when it overtook a prefetch no worker had
// started, which counts as a miss.
func (s *Store) acquire(c int32) (ids []int64, codes []uint8, ok bool) {
	if sl := s.hot[c].Load(); sl != nil {
		s.hotHits.Add(1)
		obs.Tier.RecordAccess(true)
		return sl.ids, sl.codes, true
	}
	if e, claimed := s.claimWarm(c); claimed && e.err == nil {
		lead := time.Since(e.readyAt)
		if lead < 0 {
			lead = 0
		}
		s.prefHits.Add(1)
		s.prefLeadNs.Add(int64(lead))
		obs.Tier.RecordPrefetchHit(lead)
		s.hotHits.Add(1)
		obs.Tier.RecordAccess(true)
		return e.slab.ids, e.slab.codes, true
	}
	// A failed prefetch falls through here too: the cold path retries the
	// read and surfaces the error through normal search handling.
	s.hotMisses.Add(1)
	obs.Tier.RecordAccess(false)
	return nil, nil, false
}

// readRange streams cluster c's rows [base, base+len(ids)) from the
// source, accounting the transfer as a cold read.
func (s *Store) readRange(ids []int64, codes []uint8, c int32, base int) error {
	t0 := time.Now()
	if err := s.src.ReadInto(ids, codes, c, base); err != nil {
		return err
	}
	d := time.Since(t0)
	n := len(ids)*8 + len(codes)
	s.coldReads.Add(1)
	s.coldBytes.Add(uint64(n))
	s.coldNanos.Add(int64(d))
	obs.Tier.RecordColdRead(n, d)
	return nil
}

// readCluster materializes cluster c as a fresh slab.
func (s *Store) readCluster(c int32) (*slab, error) {
	n := s.src.Len(c)
	sl := &slab{ids: make([]int64, n), codes: make([]uint8, n*s.m)}
	if n == 0 {
		return sl, nil
	}
	if err := s.readRange(sl.ids, sl.codes, c, 0); err != nil {
		return nil, err
	}
	return sl, nil
}

// faultLogEvery rate-limits tier fault log lines: a dying device fails
// every read, and one line per failure would bury the log that explains
// the incident.
const faultLogEvery = time.Second

// recordSkipped accounts cluster c abandoned after I/O failure err,
// attributing it to this store's shard in the process counters, the
// flight recorder, and a rate-limited log line.
func (s *Store) recordSkipped(c int32, err error) {
	s.skipped.Add(1)
	obs.Tier.RecordSkippedCluster(s.cfg.ShardID)
	attrs := []obs.Attr{obs.Int("cluster", int64(c))}
	if s.cfg.ShardID != "" {
		attrs = append(attrs, obs.Str("shard", s.cfg.ShardID))
	}
	if err != nil {
		attrs = append(attrs, obs.Str("err", err.Error()))
	}
	if obs.Flight.RecordEvery(faultLogEvery, "tier_fault", attrs...) {
		log.Printf("tier: shard %q skipped cluster %d after I/O failure: %v (total skipped: %d)",
			s.cfg.ShardID, c, err, s.skipped.Load())
	}
}

// Rebalance re-derives the hot set: rank non-resident clusters by
// decayed access frequency, pin greedily under the byte budget, evict
// what fell out, then halve the counters so the set tracks the current
// workload rather than all history. Clusters whose promotion read fails
// are simply left unpinned.
func (s *Store) Rebalance() {
	nc := len(s.hot)
	sizes := make([]int64, nc)
	freqs := make([]float64, nc)
	for i := 0; i < nc; i++ {
		c := int32(i)
		sizes[i] = int64(s.src.Len(c)) * int64(8+s.m)
		freqs[i] = float64(s.freq[i].Load())
	}
	want := placement.HotSet(sizes, freqs, s.cfg.HotBytes)
	wanted := make([]bool, nc)
	for _, c := range want {
		wanted[c] = true
	}

	promoted, evicted := 0, 0
	for i := 0; i < nc; i++ {
		cur := s.hot[i].Load()
		switch {
		case cur != nil && !wanted[i]:
			s.hot[i].Store(nil)
			s.hotCount.Add(-1)
			s.hotBytes.Add(-cur.bytes())
			evicted++
		case cur == nil && wanted[i]:
			sl, err := s.readCluster(int32(i))
			if err != nil {
				continue
			}
			s.hot[i].Store(sl)
			s.hotCount.Add(1)
			s.hotBytes.Add(sl.bytes())
			promoted++
		}
	}
	for i := 0; i < nc; i++ {
		s.freq[i].Store(s.freq[i].Load() / 2)
	}
	if promoted > 0 {
		s.promotions.Add(uint64(promoted))
	}
	if evicted > 0 {
		s.evictions.Add(uint64(evicted))
	}
	obs.Tier.RecordHotSetChange(promoted, evicted)
	if promoted > 0 || evicted > 0 {
		obs.Flight.Record("tier_rebalance",
			obs.Str("shard", s.cfg.ShardID),
			obs.Str("promoted", strconv.Itoa(promoted)),
			obs.Str("evicted", strconv.Itoa(evicted)),
			obs.Int("hot_bytes", s.hotBytes.Load()))
	}
}

func (s *Store) rebalanceLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RebalanceEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			s.Rebalance()
		}
	}
}

// FoldChunk is how many rows compaction asks ScanCluster to stream per
// cold read. Sized well above pq.ScanBlock so fold-time sequential reads
// amortize syscall overhead.
const FoldChunk = 4096

// chunk is the buffer pair a cold cluster streams through.
type chunk struct {
	ids   []int64
	codes []uint8
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// ScanCluster feeds cluster c's payload to fn: in one call when the
// cluster is resident — hot set or prefetched — and
// otherwise streamed from the source through a pooled buffer in cold
// reads of up to rows rows. It is the one streaming loop: searches feed the ADC
// scanner through it a pq.ScanBlock at a time, and compaction folds a
// tiered base through it without ever materializing a full cluster.
func (s *Store) ScanCluster(c int32, rows int, fn func(ids []int64, codes []uint8) error) (resident bool, err error) {
	n := s.src.Len(c)
	if n == 0 {
		return true, nil
	}
	if ids, codes, ok := s.acquire(c); ok {
		return true, fn(ids, codes)
	}
	buf := chunkPool.Get().(*chunk)
	defer chunkPool.Put(buf)
	if len(buf.ids) < rows || len(buf.codes) < rows*s.m {
		buf.ids, buf.codes = make([]int64, rows), make([]uint8, rows*s.m)
	}
	for base := 0; base < n; base += rows {
		cn := min(rows, n-base)
		ids, codes := buf.ids[:cn], buf.codes[:cn*s.m]
		if err := s.readRange(ids, codes, c, base); err != nil {
			return false, err
		}
		if err := fn(ids, codes); err != nil {
			return false, err
		}
	}
	return false, nil
}

// Stats is a point-in-time view of one store's residency state and
// counters (the process-global aggregate lives in obs.Tier).
type Stats struct {
	HotClusters    int     `json:"hot_clusters"`
	HotBytes       int64   `json:"hot_bytes"`
	HotBudgetBytes int64   `json:"hot_budget_bytes"`
	HotHits        uint64  `json:"hot_hits"`
	HotMisses      uint64  `json:"hot_misses"`
	HitRate        float64 `json:"hot_hit_rate"`

	ColdReads   uint64  `json:"cold_reads"`
	ColdBytes   uint64  `json:"cold_read_bytes"`
	ColdSeconds float64 `json:"cold_read_seconds"`

	PrefetchIssued      uint64  `json:"prefetches_issued"`
	PrefetchHits        uint64  `json:"prefetch_hits"`
	PrefetchLeadSeconds float64 `json:"prefetch_lead_seconds"`
	PrefetchDropped     uint64  `json:"prefetches_dropped"`

	Promotions      uint64 `json:"promotions"`
	Evictions       uint64 `json:"evictions"`
	SkippedClusters uint64 `json:"skipped_clusters"`
}

// Stats returns the store's current counters.
func (s *Store) Stats() Stats {
	st := Stats{
		HotClusters:         int(s.hotCount.Load()),
		HotBytes:            s.hotBytes.Load(),
		HotBudgetBytes:      s.cfg.HotBytes,
		HotHits:             s.hotHits.Load(),
		HotMisses:           s.hotMisses.Load(),
		ColdReads:           s.coldReads.Load(),
		ColdBytes:           s.coldBytes.Load(),
		ColdSeconds:         float64(s.coldNanos.Load()) / 1e9,
		PrefetchIssued:      s.prefIssued.Load(),
		PrefetchHits:        s.prefHits.Load(),
		PrefetchLeadSeconds: float64(s.prefLeadNs.Load()) / 1e9,
		PrefetchDropped:     s.prefDropped.Load(),
		Promotions:          s.promotions.Load(),
		Evictions:           s.evictions.Load(),
		SkippedClusters:     s.skipped.Load(),
	}
	if total := st.HotHits + st.HotMisses; total > 0 {
		st.HitRate = float64(st.HotHits) / float64(total)
	}
	return st
}

// Close stops the workers, letting any in-flight read finish; later
// Prefetch calls are no-ops. Prefetches still queued stay unstarted, so
// a later claim overtakes them rather than waits. Idempotent; must not
// race with in-flight searches.
func (s *Store) Close() {
	s.stopOnce.Do(func() {
		s.warmMu.Lock()
		s.closed = true
		s.warmMu.Unlock()
		close(s.stopc)
		s.wg.Wait()
	})
}
