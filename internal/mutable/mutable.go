package mutable

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/tier"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Config tunes the updatable index.
type Config struct {
	// Engine carries the serving operating point: serving reads only
	// Engine.NProbe (clusters probed per query) and Engine.K (the base
	// fetch depth, which bounds the k an unfiltered Search may request).
	// The remaining fields, and Spec below, are not read by this package;
	// they are carried for the repo benchmark, which replays the paper's
	// simulated-DPU engine over the same index with them.
	Engine core.Config
	// Spec is the PIM system shape of that paper-model replay.
	Spec pim.Spec

	// MaxLogRatio triggers compaction when pending log entries exceed
	// this fraction of the epoch's base size (default 0.15).
	MaxLogRatio float64
	// MaxTombRatio triggers compaction when tombstones exceed this
	// fraction of the epoch's base size (default 0.08).
	MaxTombRatio float64
	// CheckInterval is the background compactor's poll period (default
	// 25ms). Zero or negative disables the background compactor; callers
	// then drive Compact explicitly.
	CheckInterval time.Duration

	// Schema, when non-nil, enables attribute filtering: vectors may
	// carry typed tags (set on upsert, dropped on delete) and searches
	// may be constrained by predicates over them (SearchOpts.Pred).
	// Attributes are held in memory alongside the index and are not part
	// of WriteTo/Read persistence.
	Schema *filter.Schema

	// Tier, when non-nil, serves each epoch's base out of core: the
	// folded base is written as a cluster image file and searched through
	// an internal/tier store (hot-set pinning, prefetch, cold streaming)
	// instead of in-RAM posting lists. The write overlay stays in RAM.
	// Tiered deployments do not support WriteTo persistence.
	Tier *TierConfig
}

// DefaultConfig returns the streaming-update defaults described on each
// field, over the engine's default operating point.
func DefaultConfig() Config {
	return Config{
		Engine:        core.DefaultConfig(),
		Spec:          pim.DefaultSpec(),
		MaxLogRatio:   0.15,
		MaxTombRatio:  0.08,
		CheckInterval: 25 * time.Millisecond,
	}
}

// ServingConfig is the streaming-deployment policy shared by
// cmd/upanns-serve and the updates benchmark, so the server and the
// benchmark always measure the same deployment:
//
//   - Engine.K carries 2x slack over the serving k: tombstones filter
//     candidates after the base scan's top-K selection, and the slack
//     keeps deletes from starving result sets between compactions;
//   - seed, CAE off and the single DIMM of dpus DPUs shape only the
//     benchmark's paper-model replay (see Config.Engine).
func ServingConfig(nprobe, k, dpus int, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Engine.NProbe = nprobe
	cfg.Engine.K = 2 * k
	cfg.Engine.Seed = seed
	cfg.Engine.UseCAE = false
	cfg.Spec.NumDIMMs = 1
	cfg.Spec.DPUsPerDIMM = dpus
	return cfg
}

func (c Config) withDefaults() Config {
	if c.MaxLogRatio <= 0 {
		c.MaxLogRatio = 0.15
	}
	if c.MaxTombRatio <= 0 {
		c.MaxTombRatio = 0.08
	}
	return c
}

// snapshot is one published epoch: an immutable index whose base is
// searched by the native ADC kernels, from its in-RAM posting lists or —
// in tiered mode (tix non-nil) — through a tier store over an epoch image
// file. Readers load it through an atomic pointer and never observe
// mutation.
type snapshot struct {
	epoch uint64
	ix    *ivfpq.Index
	freqs []float64 // access frequencies seeding a tiered epoch's hot set
	baseN int64
	occ   []float64 // per-cluster base vector counts (quality drift reference)

	// Tiered-mode state (see tiered.go): the tier executor, the epoch's
	// image file, and the reference count governing their lifetime. The
	// count starts at 1 (the publisher); readers pin/unpin around
	// lock-free base scans and the last reference reclaims file + store.
	tix     *tier.Index
	refs    atomic.Int64
	img     *os.File
	imgPath string
}

// clusterLog is one cluster's append log: ids, write sequence numbers and
// flattened M-byte PQ codes, parallel slices. Entries are append-only and
// never mutated in place, so slice headers captured under the read lock
// stay valid while writers keep appending.
type clusterLog struct {
	ids   []int64
	seqs  []uint64
	codes []uint8
}

// entryRef locates the latest log version of an id.
type entryRef struct {
	cluster int32
	seq     uint64
}

// UpdatableIndex is a streaming-updatable UpANNS deployment: online
// Insert/Delete into a write overlay, reads against the current epoch
// snapshot merged with the overlay, and epoch compaction that folds the
// overlay into a fresh immutable base. Safe for concurrent use.
type UpdatableIndex struct {
	cfg   Config
	dim   int
	nlist int

	snap atomic.Pointer[snapshot]

	// mu guards the write overlay (seq, logs, latest, tombs, shadow,
	// logCount) and orders overlay reads against epoch publication:
	// publication holds the write lock, so a reader that loads its snapshot
	// while holding the read lock sees an overlay consistent with that
	// epoch.
	mu     sync.RWMutex
	seq    uint64
	logs   []clusterLog
	latest map[int64]entryRef // id -> newest log version
	tombs  map[int64]uint64   // id -> delete sequence number
	// shadow maps an id to the sequence number of its first write (insert
	// or delete) since the current epoch's fold: the epoch's base version
	// of the id is dead to every read cut at or after it. Entries are only
	// added, and publication installs a fresh map instead of pruning, so a
	// read cut on a replaced epoch keeps looking at that epoch's map.
	shadow   map[int64]uint64
	logCount int

	// acc counts cluster probes since the last epoch: the frequency seed
	// compaction hands the next tiered epoch's store.
	acc []atomic.Uint64

	// attrs is the attribute store (nil without Config.Schema). It is
	// keyed by vector ID and independent of epochs: tags survive
	// compaction untouched and die with deletes. fstats counts filtered
	// planning decisions.
	attrs  *filter.Store
	fstats filter.Stats

	compactMu   sync.Mutex // one compaction at a time
	lastTrigger string     // guarded by mu

	stopc      chan struct{}
	stopOnce   sync.Once
	retireOnce sync.Once
	wg         sync.WaitGroup

	inserts, deletes         atomic.Uint64
	compactions, compactErrs atomic.Uint64
	foldedEntries            atomic.Uint64
	lastCompactNs            atomic.Int64
	maxCompactNs             atomic.Int64
	totalCompactNs           atomic.Int64
	compacting               atomic.Bool
}

// New deploys ix as epoch 0 and returns the updatable index over it.
// freqs seeds a tiered deployment's hot set (nil = uniform) and is
// otherwise only persisted. The background compactor starts unless
// cfg.CheckInterval <= 0. The caller must not mutate ix afterwards; the
// index becomes the immutable base of epoch 0.
func New(ix *ivfpq.Index, freqs []float64, cfg Config) (*UpdatableIndex, error) {
	u, err := newIndex(ix, freqs, cfg)
	if err != nil {
		return nil, err
	}
	u.startCompactor()
	return u, nil
}

// newIndex builds the index without starting the background compactor, so
// Read can restore persisted state before any concurrency begins.
func newIndex(ix *ivfpq.Index, freqs []float64, cfg Config) (*UpdatableIndex, error) {
	cfg = cfg.withDefaults()
	if freqs == nil {
		freqs = make([]float64, ix.NList())
		for i := range freqs {
			freqs[i] = 1
		}
	}
	u := &UpdatableIndex{
		cfg:    cfg,
		dim:    ix.Dim,
		nlist:  ix.NList(),
		logs:   make([]clusterLog, ix.NList()),
		latest: make(map[int64]entryRef),
		tombs:  make(map[int64]uint64),
		shadow: make(map[int64]uint64),
		acc:    make([]atomic.Uint64, ix.NList()),
		stopc:  make(chan struct{}),
	}
	if cfg.Schema != nil {
		u.attrs = filter.NewStore(cfg.Schema)
	}
	if cfg.Tier != nil {
		snap, err := deployTiered(ix, freqs, 0, cfg.Tier)
		if err != nil {
			return nil, err
		}
		u.snap.Store(snap)
		return u, nil
	}
	u.snap.Store(&snapshot{ix: ix, freqs: freqs, baseN: ix.NTotal, occ: clusterOccupancy(ix)})
	return u, nil
}

// clusterOccupancy counts base vectors per cluster; tiered deployments
// must call it before the posting lists are stripped.
func clusterOccupancy(ix *ivfpq.Index) []float64 {
	occ := make([]float64, ix.NList())
	for c := range ix.Lists {
		occ[c] = float64(ix.Lists[c].Len())
	}
	return occ
}

// startCompactor launches the background compactor if configured.
func (u *UpdatableIndex) startCompactor() {
	if u.cfg.CheckInterval > 0 {
		u.wg.Add(1)
		go u.compactor()
	}
}

// Close stops the background compactor and waits for an in-flight
// compaction to finish; a tiered deployment then retires the final epoch
// (its image file is deleted once the last in-flight search unpins it).
// Idempotent.
func (u *UpdatableIndex) Close() {
	u.stopOnce.Do(func() { close(u.stopc) })
	u.wg.Wait()
	if u.cfg.Tier != nil {
		u.retireOnce.Do(func() {
			// compactMu excludes an explicit Compact racing the shutdown —
			// publication inside it would leak the epoch we retire here.
			u.compactMu.Lock()
			u.snap.Load().retire()
			u.compactMu.Unlock()
		})
	}
}

// Dim returns the index dimensionality (serve.Backend).
func (u *UpdatableIndex) Dim() int { return u.dim }

// Epoch returns the current epoch number.
func (u *UpdatableIndex) Epoch() uint64 { return u.snap.Load().epoch }

// Insert stages one vector in the write overlay under id. It is an
// upsert: a later Insert of the same id shadows every earlier version
// (overlay or base) by sequence number. The vector is PQ-encoded here
// with the trained quantizers; quantizers are shared by every epoch and
// never retrained online. With a schema deployed, Insert clears any
// previous tags of id (replacement semantics — use InsertWithAttrs to
// tag the new version).
func (u *UpdatableIndex) Insert(id int64, vec []float32) error {
	if u.attrs != nil {
		u.attrs.Remove(id)
	}
	return u.insert(id, vec)
}

// insert stages the vector without touching attribute state.
func (u *UpdatableIndex) insert(id int64, vec []float32) error {
	if len(vec) != u.dim {
		return fmt.Errorf("mutable: insert has %d dims, index has %d", len(vec), u.dim)
	}
	ix := u.snap.Load().ix
	m := ix.PQ.M
	code := make([]uint8, m)
	cl := ix.EncodeVector(code, vec)

	u.mu.Lock()
	u.stage(cl, id, code)
	u.mu.Unlock()
	u.inserts.Add(1)
	return nil
}

// touch allots the next write sequence number to a write of id, noting
// it in shadow if it is the id's first since the fold; caller holds mu.
func (u *UpdatableIndex) touch(id int64) uint64 {
	u.seq++
	if _, ok := u.shadow[id]; !ok {
		u.shadow[id] = u.seq
	}
	return u.seq
}

// stage appends one encoded entry; caller holds mu.
func (u *UpdatableIndex) stage(cl int32, id int64, code []uint8) {
	seq := u.touch(id)
	lg := &u.logs[cl]
	lg.ids = append(lg.ids, id)
	lg.seqs = append(lg.seqs, seq)
	lg.codes = append(lg.codes, code...)
	u.latest[id] = entryRef{cluster: cl, seq: seq}
	u.logCount++
}

// Upsert stages every row of vecs under the corresponding id, in row
// order (later rows win ties on duplicate ids). It satisfies
// serve.WriteBackend. With a schema deployed, Upsert clears previous
// tags of every id (replacement semantics — use UpsertWithAttrs to tag
// the new versions).
func (u *UpdatableIndex) Upsert(ids []int64, vecs *vecmath.Matrix) error {
	if u.attrs != nil {
		for _, id := range ids {
			u.attrs.Remove(id)
		}
	}
	return u.upsert(ids, vecs)
}

// upsert stages the batch without touching attribute state.
func (u *UpdatableIndex) upsert(ids []int64, vecs *vecmath.Matrix) error {
	if vecs.Dim != u.dim {
		return fmt.Errorf("mutable: upsert has %d dims, index has %d", vecs.Dim, u.dim)
	}
	if len(ids) != vecs.Rows {
		return fmt.Errorf("mutable: %d ids for %d rows", len(ids), vecs.Rows)
	}
	ix := u.snap.Load().ix
	m := ix.PQ.M
	codes := make([]uint8, len(ids)*m)
	clusters := make([]int32, len(ids))
	resid := make([]float32, u.dim)
	for i := range ids {
		clusters[i] = ix.EncodeVectorInto(codes[i*m:(i+1)*m], resid, vecs.Row(i))
	}
	u.mu.Lock()
	for i, id := range ids {
		u.stage(clusters[i], id, codes[i*m:(i+1)*m])
	}
	u.mu.Unlock()
	u.inserts.Add(uint64(len(ids)))
	return nil
}

// Delete tombstones id: the id disappears from every subsequent Search
// and is physically removed at the next compaction. Deleting an unknown
// id is a no-op that still costs a tombstone until compaction. The id's
// attribute tags die with it (after the tombstone lands, so a racing
// filtered search can match a stale tag but never resurface the vector).
func (u *UpdatableIndex) Delete(id int64) {
	u.mu.Lock()
	u.tombs[id] = u.touch(id)
	u.mu.Unlock()
	if u.attrs != nil {
		u.attrs.Remove(id)
	}
	u.deletes.Add(1)
}

// Remove tombstones every id, in order. It satisfies serve.WriteBackend.
// Attribute tags die with the ids.
func (u *UpdatableIndex) Remove(ids []int64) error {
	u.mu.Lock()
	for _, id := range ids {
		u.tombs[id] = u.touch(id)
	}
	u.mu.Unlock()
	if u.attrs != nil {
		for _, id := range ids {
			u.attrs.Remove(id)
		}
	}
	u.deletes.Add(uint64(len(ids)))
	return nil
}

// SearchOpts shapes one Search batch. The zero value of every field but
// K is the plain unfiltered search.
type SearchOpts struct {
	// K is the number of neighbors returned per query. Unfiltered
	// searches bound it by the configured Engine.K; filtered searches
	// (Pred != nil) bound it by filter.MaxFetchK.
	K int
	// Pred, when non-nil, constrains results to vectors whose attributes
	// satisfy it (requires a deployment Schema; ErrNoSchema otherwise).
	Pred filter.Pred
	// Mode pins the filtered execution strategy (pre / post); the zero
	// value filter.ModeAuto lets estimated selectivity choose. Ignored
	// when Pred is nil.
	Mode filter.Mode
	// Stages, when non-nil, records each pipeline stage (filter planning,
	// coarse probe, epoch-lock wait, overlay scan, base scan, merge) with
	// wall time and attributes, for the serving layer to replay as spans
	// under a traced request's dispatch.
	Stages *obs.StageLog
	// Cost, when non-nil, accumulates the batch's resource vector —
	// codes scanned, LUT bytes built, overlay entries scored, cold-tier
	// bytes streamed — as measured by the scans themselves. The serving
	// layer divides it across the batch's distinct queries.
	Cost *obs.Cost
}

// baseRead is what every query shape — plain, pre-/post-filtered, oracle —
// reduces to before the one read sequence runs. A predicate only prunes
// the scan: match is nil for unfiltered reads, and otherwise is applied
// to every overlay entry and either pushed into the base scan as its
// allow predicate (plan.Mode == filter.ModePre) or checked against the
// plan.FetchK candidates the base returns (filter.ModePost).
type baseRead struct {
	k     int
	match func(int64) bool
	plan  filter.Plan
	// live marks the serving read, whose probes steer a tiered epoch's
	// residency (rebalance counters, prefetch); the shadow oracle's do not.
	live bool
}

// Search answers one batch against the current epoch merged with the
// write overlay. Every query shape runs the same sequence: coarse probe,
// one consistent (epoch, overlay) cut, one scan of base and overlay on
// the native ADC kernels, merge. It satisfies serve.Backend.
func (u *UpdatableIndex) Search(queries *vecmath.Matrix, o SearchOpts) ([][]topk.Candidate, error) {
	if queries.Dim != u.dim {
		return nil, fmt.Errorf("mutable: query dim %d != index dim %d", queries.Dim, u.dim)
	}
	rd := baseRead{k: o.K, live: true, plan: filter.Plan{FetchK: o.K}}
	if o.Pred == nil {
		if o.K <= 0 || o.K > u.cfg.Engine.K {
			return nil, fmt.Errorf("mutable: k %d outside (0, %d]", o.K, u.cfg.Engine.K)
		}
	} else if err := u.planFiltered(&rd, queries.Rows, o); err != nil {
		return nil, err
	}

	// Cluster filtering, once per query: the coarse quantizer is shared by
	// every epoch, so probes are epoch-independent. The probe counters
	// seed the next tiered epoch's hot set.
	sc := readPool.Get().(*readScratch)
	defer readPool.Put(sc)
	probeStart := time.Now()
	sc.probe(u.snap.Load().ix, queries, u.cfg.Engine.NProbe)
	for _, c := range sc.probes {
		u.acc[c].Add(1)
	}
	o.Stages.Record("mutable.probe", probeStart,
		obs.Int("queries", int64(queries.Rows)), obs.Int("nprobe", int64(u.cfg.Engine.NProbe)))
	return u.read(sc, queries, rd, o.Stages, o.Cost)
}

// read is the one read sequence behind Search and SearchOracle, over the
// probes already in sc.
//
// Consistency: one read-lock critical section loads and pins the epoch,
// takes the write-sequence watermark and gathers the live overlay
// entries (scored after it, off their append-only logs). Epoch
// publication swaps the snapshot and truncates the folded overlay under
// the write lock, so the captured (epoch, overlay) pair is consistent;
// the captured epoch is immutable, so it is then scanned lock-free (see
// scan) while compactions publish and retire epochs freely
// (the pin keeps a tiered epoch's image alive until the merge is done).
// The merge drops the base hits the cut's shadow map had killed by the
// watermark — a handful of lookups per query, however many writes are
// pending — so writes and publications that land during the scan
// change nothing the read returns.
//
// Fetch depth: the base is asked for max(plan.FetchK, Engine.K)
// candidates. Tombstones and version shadowing drop base hits after the
// scan's own top-k selection, and the slack Engine.K carries over the
// serving k (see ServingConfig) keeps a delete from shrinking result
// sets between compactions — on every query shape.
func (u *UpdatableIndex) read(sc *readScratch, queries *vecmath.Matrix, rd baseRead, sl *obs.StageLog, cost *obs.Cost) ([][]topk.Candidate, error) {
	// The read lock orders this search against epoch publication; a
	// compaction publishing right now holds the write lock, so this wait
	// IS the compaction pause a reader experiences.
	lockStart := time.Now()
	u.mu.RLock()
	sl.Record("mutable.epoch_wait", lockStart, obs.Bool("compacting", u.compacting.Load()))
	snap := u.snap.Load()
	snap.pin()
	defer snap.unpin()
	view := overlayView{seq: u.seq, shadow: u.shadow}
	ovStart, pending := time.Now(), u.logCount
	u.gatherOverlay(sc, queries.Rows, rd.match)
	u.mu.RUnlock()
	sl.Record("mutable.overlay", ovStart, obs.Int("pending", int64(pending)))

	baseStart := time.Now()
	base, live, st, err := u.scan(sc, snap, queries, rd)
	clear(sc.runs) // drop the log arrays before pooling
	if err != nil {
		return nil, err
	}
	view.cands = live
	pre := rd.plan.Mode == filter.ModePre
	kept, fetched := 0, 0
	if rd.plan.Mode == filter.ModePost {
		for qi, cands := range base {
			fetched += len(cands)
			n := 0
			for _, c := range cands {
				if rd.match(c.ID) {
					cands[n] = c
					n++
				}
			}
			base[qi] = cands[:n]
			kept += n
		}
	}
	cost.AddScan(int64(st.CodesScanned), int64(st.CodeBytes), int64(st.LUTEntries))
	cost.AddOverlay(int64(len(sc.at)))
	cost.AddColdBytes(int64(st.ColdBytes))
	if sl != nil {
		attrs := []obs.Attr{obs.Int("epoch", int64(snap.epoch)), obs.Int("codes_scanned", int64(st.CodesScanned))}
		if snap.tix != nil {
			attrs = append(attrs, obs.Int("hot_clusters", int64(st.HotClusters)),
				obs.Int("cold_clusters", int64(st.ColdClusters)), obs.Int("skipped_clusters", int64(st.SkippedClusters)))
		}
		if rd.match != nil {
			// The selectivity the base scan actually saw next to the
			// estimate the plan was made on: the fraction of visited base
			// codes that passed the pushed-down predicate, or of fetched
			// candidates that passed the tag check.
			actual := rd.plan.Selectivity
			scanned := st.CodesScanned - len(sc.at)
			if visited := scanned + st.CodesFiltered; pre && visited > 0 {
				actual = float64(scanned) / float64(visited)
			} else if !pre && fetched > 0 {
				actual = float64(kept) / float64(fetched)
			}
			attrs = append(attrs, obs.Str("mode", rd.plan.Mode.String()),
				obs.Float("est_selectivity", rd.plan.Selectivity), obs.Float("actual_selectivity", actual))
		}
		sl.Record("mutable.base", baseStart, attrs...)
	}

	// view.shadow may be the live map, which writers extend under the
	// write lock.
	mergeStart := time.Now()
	u.mu.RLock()
	out := mergeResults(&view, base, rd.k)
	u.mu.RUnlock()
	sl.Record("mutable.merge", mergeStart)
	return out, nil
}

// scan scores one read's cut on the ivfpq scanner, query by query and
// probed cluster by probed cluster: the epoch's base payload — posting
// list, or tier store out of core — folds into the scanner's heap, and
// the cluster's gathered live log entries fold into the overlay heap off
// the same LUT, so base and overlay distances share one fixed-scale
// quantized arithmetic and a cluster costs one LUT whatever is pending in
// it. Only a live read hints the tier store about its probes. It needs
// no lock; tiered callers must hold a pin.
func (u *UpdatableIndex) scan(sc *readScratch, snap *snapshot, queries *vecmath.Matrix, rd baseRead) (base, live [][]topk.Candidate, st tier.SearchStats, err error) {
	bo := ivfpq.SearchOpts{K: max(rd.plan.FetchK, u.cfg.Engine.K), Quantized: true}
	if rd.plan.Mode == filter.ModePre {
		bo.Allow = rd.match
	}
	base = make([][]topk.Candidate, queries.Rows)
	live = make([][]topk.Candidate, queries.Rows)
	s, runs := sc.scan, sc.runs
	for qi := range base {
		probes := sc.probesOf(qi)
		s.Begin(snap.ix, queries.Row(qi), bo)
		sc.live.Reset(rd.k)
		if rd.live && snap.tix != nil {
			snap.tix.Store().Hint(probes)
		}
		for _, cl := range probes {
			s.Cluster(cl)
			if snap.tix == nil {
				s.Scan(snap.ix.Lists[cl].IDs, snap.ix.Lists[cl].Codes)
			} else if err = snap.tix.ScanCluster(s, cl, &st); err != nil {
				return nil, nil, st, err
			}
			if len(runs) > 0 && runs[0].query == qi && runs[0].cluster == cl {
				r := &runs[0]
				s.ScanAt(&sc.live, r.ids, r.codes, sc.at[r.lo:r.hi])
				runs = runs[1:]
			}
		}
		cands, scanned := s.Finish()
		st.SearchStats.Add(scanned)
		base[qi] = append([]topk.Candidate(nil), cands...)
		live[qi] = sc.live.AppendSorted(nil)
	}
	return base, live, st, nil
}

// overlayView is the consistent cut of the overlay one read captures: the
// per-query live log candidates, the write-sequence watermark they were
// taken at, and the epoch's shadow map, whose entries up to the watermark
// name the base ids dead at the cut.
type overlayView struct {
	seq    uint64
	shadow map[int64]uint64
	cands  [][]topk.Candidate
}

// overlayRun is one probed cluster's live log entries for one query: the
// cluster's log arrays as captured under the read lock (append-only, so
// they stay valid after it is released) and the run's range in the
// scratch's gather positions.
type overlayRun struct {
	query   int
	cluster int32
	ids     []int64
	codes   []uint8
	lo, hi  int
}

// readScratch is the pooled working memory of one read: the batch's
// probe lists (np per query, flat), the overlay runs gathered for them
// with their positions, and the scanner with the overlay-side heap.
type readScratch struct {
	np     int
	probes []int32
	pdists []float32
	runs   []overlayRun
	at     []int32
	scan   *ivfpq.Scratch
	live   ivfpq.Fold
}

var readPool = sync.Pool{New: func() any { return &readScratch{scan: ivfpq.NewScratch()} }}

// probe runs cluster filtering for every query of the batch; each
// query's slot has capacity exactly np, so ProbeInto fills it in place.
func (sc *readScratch) probe(ix *ivfpq.Index, queries *vecmath.Matrix, nprobe int) {
	sc.np = max(0, min(nprobe, ix.NList()))
	if n := queries.Rows * sc.np; cap(sc.probes) < n {
		sc.probes = make([]int32, n)
	}
	sc.probes = sc.probes[:queries.Rows*sc.np]
	for qi := 0; qi < queries.Rows; qi++ {
		lo, hi := qi*sc.np, (qi+1)*sc.np
		_, sc.pdists = ix.Coarse.ProbeInto(sc.probes[lo:lo:hi], sc.pdists, queries.Row(qi), sc.np)
	}
}

// probesOf returns query qi's probed clusters, closest first.
func (sc *readScratch) probesOf(qi int) []int32 { return sc.probes[qi*sc.np : (qi+1)*sc.np] }

// gatherOverlay collects, for each of the nq probed queries, the probed
// clusters' live log entries into sc, in scan order — version shadowing,
// tombstones, and the optional match predicate (a filter pushed into the
// scan: entries failing it never reach distance work) all applied here,
// with no arithmetic, so the read lock is held for map lookups only.
// Caller holds mu.RLock.
func (u *UpdatableIndex) gatherOverlay(sc *readScratch, nq int, match func(int64) bool) {
	sc.runs, sc.at = sc.runs[:0], sc.at[:0]
	for qi := 0; qi < nq; qi++ {
		for _, cl := range sc.probesOf(qi) {
			lg := &u.logs[cl]
			lo := len(sc.at)
			for i, id := range lg.ids {
				s := lg.seqs[i]
				if ref, ok := u.latest[id]; !ok || ref.seq != s {
					continue // superseded by a later insert of the same id
				}
				if ts, ok := u.tombs[id]; ok && ts > s {
					continue // deleted after this version was written
				}
				if match != nil && !match(id) {
					continue
				}
				sc.at = append(sc.at, int32(i))
			}
			if len(sc.at) > lo {
				sc.runs = append(sc.runs, overlayRun{qi, cl, lg.ids, lg.codes, lo, len(sc.at)})
			}
		}
	}
}

// mergeResults folds base candidates (minus those deleted or superseded
// by an overlay version as of the view's cut) together with the overlay
// candidates. Caller holds mu.RLock.
func mergeResults(view *overlayView, base [][]topk.Candidate, k int) [][]topk.Candidate {
	out := make([][]topk.Candidate, len(base))
	for qi := range base {
		heap := topk.NewHeap(k)
		for _, c := range base[qi] {
			if s, ok := view.shadow[c.ID]; ok && s <= view.seq {
				continue
			}
			heap.Push(c.ID, c.Dist)
		}
		for _, c := range view.cands[qi] {
			heap.Push(c.ID, c.Dist)
		}
		out[qi] = heap.Sorted()
	}
	return out
}

// Stats is a point-in-time, JSON-serializable view of the updatable
// index: the current epoch, overlay pressure, and the compaction-pause
// profile.
type Stats struct {
	Epoch       uint64 `json:"epoch"`
	BaseVectors int64  `json:"base_vectors"`
	PendingLog  int    `json:"pending_log_entries"`
	Tombstones  int    `json:"tombstones"`

	Inserts uint64 `json:"inserts"`
	Deletes uint64 `json:"deletes"`

	Compactions     uint64  `json:"compactions"`
	CompactErrors   uint64  `json:"compaction_errors"`
	Compacting      bool    `json:"compacting"`
	LastTrigger     string  `json:"last_compaction_trigger,omitempty"`
	LastCompactSecs float64 `json:"last_compaction_seconds"`
	MaxCompactSecs  float64 `json:"max_compaction_seconds"`
	SumCompactSecs  float64 `json:"total_compaction_seconds"`
	FoldedEntries   uint64  `json:"folded_entries"`
}

// Stats snapshots the index's counters.
func (u *UpdatableIndex) Stats() Stats {
	snap := u.snap.Load()
	u.mu.RLock()
	pending, tombs, trigger := u.logCount, len(u.tombs), u.lastTrigger
	u.mu.RUnlock()
	return Stats{
		Epoch:           snap.epoch,
		BaseVectors:     snap.baseN,
		PendingLog:      pending,
		Tombstones:      tombs,
		Inserts:         u.inserts.Load(),
		Deletes:         u.deletes.Load(),
		Compactions:     u.compactions.Load(),
		CompactErrors:   u.compactErrs.Load(),
		Compacting:      u.compacting.Load(),
		LastTrigger:     trigger,
		LastCompactSecs: float64(u.lastCompactNs.Load()) / 1e9,
		MaxCompactSecs:  float64(u.maxCompactNs.Load()) / 1e9,
		SumCompactSecs:  float64(u.totalCompactNs.Load()) / 1e9,
		FoldedEntries:   u.foldedEntries.Load(),
	}
}
