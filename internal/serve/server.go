package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// request is one in-flight query.
type request struct {
	vec      []float32
	key      string // (vector, k, filter) identity (cache key / coalescing key)
	k        int
	pred     filter.Pred // nil = unfiltered
	filterID string      // canonical predicate string ("" = unfiltered)
	deadline time.Time
	submit   time.Time
	tr       *obs.Trace // request trace (nil = untraced); workers add spans to it
	reply    chan reply // buffered(1): workers never block on abandoned waiters
}

type reply struct {
	cands []topk.Candidate
	err   error
}

// Server fronts one or more search backends with micro-batching,
// admission control and result caching. Create with NewServer, shut down
// with Close.
type Server struct {
	cfg Config
	dim int
	mb  *microBatcher[*request]
	wg  sync.WaitGroup // batcher + workers

	mu     sync.RWMutex // guards closed against in-flight enqueues
	closed bool

	keyer *vecKeyer // quantized query identity for caching and coalescing
	cache *lruCache
	ctr   counters
	lat   *metrics.Histogram
}

// NewServer starts a server over the given backends: one worker goroutine
// per backend, so parallelism equals the number of backend replicas.
// All backends must share a dimensionality.
func NewServer(cfg Config, backends ...Backend) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("serve: NewServer needs at least one backend")
	}
	dim := backends[0].Dim()
	for _, b := range backends[1:] {
		if b.Dim() != dim {
			return nil, fmt.Errorf("serve: backend dims differ (%d vs %d)", dim, b.Dim())
		}
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		dim:   dim,
		mb:    newMicroBatcher[*request](cfg.MaxBatch, cfg.MaxLinger, cfg.QueueDepth, len(backends)),
		keyer: &vecKeyer{quantum: cfg.CacheQuantum},
		cache: newLRUCache(cfg.CacheSize),
		lat:   metrics.NewLatencyHistogram(),
	}
	s.wg.Add(1 + len(backends))
	go func() {
		defer s.wg.Done()
		s.mb.run()
	}()
	for _, b := range backends {
		go s.worker(b, dim)
	}
	return s, nil
}

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// InvalidateCache drops every cached result. Call it after the backend's
// contents change (the write batcher's OnApplied hook does this when the
// serving layer fronts an updatable index), so cached answers can never
// outlive the data they were computed from.
func (s *Server) InvalidateCache() {
	if s.cache != nil {
		s.cache.flush()
		s.ctr.cacheFlushes.Add(1)
	}
}

// SearchOptions shapes one request beyond its vector.
type SearchOptions struct {
	// K overrides the served result size (0 = Config.K). It must not
	// exceed Config.MaxK.
	K int
	// Filter constrains results to vectors whose attributes satisfy the
	// predicate (nil = unfiltered). A backend that cannot answer filtered
	// batches fails the request with ErrFilterUnsupported.
	Filter filter.Pred
	// Tenant is an optional tenant tag. It does not shape execution; it
	// rides into the quality plane so recall estimates can be sliced per
	// tenant.
	Tenant string
}

// Search answers one query with the k nearest neighbors (k = Config.K).
// The vector must match the backend dimensionality. Search blocks until
// a result is available or the request's deadline — the earlier of ctx's
// deadline and DefaultTimeout — expires. Under overload it fails fast
// with ErrOverloaded. Callers must not modify the returned candidates.
func (s *Server) Search(ctx context.Context, vec []float32) ([]topk.Candidate, error) {
	return s.SearchOpts(ctx, vec, SearchOptions{})
}

// SearchOpts is Search with a per-request k and/or an attribute filter.
// The (vector, k, canonical-filter) triple is the request's full
// identity: caching and intra-batch coalescing key on all three, so a
// filtered and an unfiltered query on the same vector can never share a
// result.
func (s *Server) SearchOpts(ctx context.Context, vec []float32, opts SearchOptions) ([]topk.Candidate, error) {
	if len(vec) != s.dim {
		return nil, fmt.Errorf("serve: query has %d dims, backend has %d", len(vec), s.dim)
	}
	k := opts.K
	if k == 0 {
		k = s.cfg.K
	}
	if k < 0 || k > s.cfg.MaxK {
		return nil, fmt.Errorf("%w: k %d outside [1, %d]", ErrBadRequest, k, s.cfg.MaxK)
	}
	filterID := ""
	if opts.Filter != nil {
		filterID = opts.Filter.Canonical()
		s.ctr.filtered.Add(1)
	}
	now := time.Now()
	tr := obs.FromContext(ctx)
	r := &request{
		key:      s.keyer.key(vec, k, filterID),
		k:        k,
		pred:     opts.Filter,
		filterID: filterID,
		submit:   now,
		tr:       tr,
		reply:    make(chan reply, 1),
	}
	s.ctr.requests.Add(1)

	if s.cache != nil {
		if cands, ok := s.cache.get(r.key); ok {
			s.ctr.cacheHits.Add(1)
			s.lat.Observe(time.Since(now).Seconds())
			tr.AddSpan(nil, "serve.cache", now, time.Since(now), obs.Bool("hit", true))
			s.cfg.Costs.Observe(obs.CostEntry{
				TraceID:        tr.ID(),
				Start:          now,
				LatencySeconds: time.Since(now).Seconds(),
				Cost:           obs.Cost{CacheHit: true},
			})
			// Cache hits are sampled too: a stale cached answer is exactly
			// the kind of silent recall loss the shadow oracle exists to see.
			s.sampleQuality(vec, k, opts, filterID, cands)
			return cands, nil
		}
	}
	// Copy the vector only once the request is headed for the queue: a
	// worker can still be reading it after this caller timed out and
	// reclaimed its buffer, and the cache stores results under the key
	// computed from the original contents.
	r.vec = append([]float32(nil), vec...)

	r.deadline = now.Add(s.cfg.DefaultTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(r.deadline) {
		r.deadline = d
	}

	// Admission: the RLock pairs with Close's Lock so no request can slip
	// into the queue after the drain pass has started.
	admitStart := time.Now()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.mb.queue <- r:
		s.ctr.accepted.Add(1)
		depth := len(s.mb.queue)
		s.mu.RUnlock()
		tr.AddSpan(nil, "serve.admit", admitStart, time.Since(admitStart),
			obs.Int("queue_depth", int64(depth)))
	default:
		s.mu.RUnlock()
		s.ctr.shed.Add(1)
		// One flight entry per second of shedding: the storm's onset is
		// what explains an incident, not its every request.
		obs.Flight.RecordEvery(time.Second, "shed",
			obs.Int("queue_depth", int64(s.cfg.QueueDepth)),
			obs.Int("shed_total", int64(s.ctr.shed.Load())))
		tr.AddSpan(nil, "serve.admit", admitStart, time.Since(admitStart),
			obs.Str("outcome", "shed"))
		return nil, ErrOverloaded
	}

	timer := time.NewTimer(time.Until(r.deadline))
	defer timer.Stop()
	select {
	case rep := <-r.reply:
		if rep.err != nil {
			if rep.err == ErrDeadline {
				s.ctr.expired.Add(1)
			}
			return nil, rep.err
		}
		// Completion is accounted here, at delivery: a backend answer whose
		// waiter already gave up counts as expired, not completed, so the
		// outcome counters partition the requests.
		s.ctr.completed.Add(1)
		s.lat.Observe(time.Since(now).Seconds())
		s.sampleQuality(r.vec, k, opts, filterID, rep.cands)
		return rep.cands, nil
	case <-ctx.Done():
		s.ctr.expired.Add(1)
		return nil, context.Cause(ctx)
	case <-timer.C:
		s.ctr.expired.Add(1)
		return nil, ErrDeadline
	}
}

// sampleQuality offers one successfully answered query to the quality
// plane's head sampler. Unselected queries cost a single atomic add;
// selected ones pay one vector/id-set copy inside Submit and are
// shadow-executed asynchronously, never back through this server.
func (s *Server) sampleQuality(vec []float32, k int, opts SearchOptions, filterID string, cands []topk.Candidate) {
	q := s.cfg.Quality
	if q == nil || !q.ShouldSample() {
		return
	}
	ids := make([]int64, len(cands))
	for i, c := range cands {
		ids[i] = c.ID
	}
	var pred any
	if opts.Filter != nil {
		pred = opts.Filter
	}
	q.Submit(obs.QualitySample{
		Vector: vec, K: k, FilterID: filterID, Pred: pred,
		Tenant: opts.Tenant, Live: ids,
	})
}

// Close stops admission, flushes every queued request through the
// backends, and waits for the batcher and workers to exit. It is
// idempotent; Search calls racing with Close either complete normally or
// return ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Admission is fenced above (no Search can enqueue anymore), so the
	// batcher's drain pass sees a queue that can only shrink.
	close(s.mb.stopc)
	s.wg.Wait()
}

// dispatchScratch is one worker's reusable batch-formation state: the
// grouping and coalescing maps and slices that runBatch/dispatchGroup
// would otherwise allocate per batch. Maps are cleared, slices re-sliced
// to zero length; steady-state dispatch therefore allocates nothing for
// bookkeeping.
type dispatchScratch struct {
	queries   *vecmath.Matrix
	groupOf   map[dispatchShape]int
	groups    [][]*request
	rowOf     map[string]int
	assign    []int
	delivered []bool
}

// dispatchShape is the (k, filter) identity of one backend call.
type dispatchShape struct {
	k        int
	filterID string
}

func newDispatchScratch(maxBatch, dim int) *dispatchScratch {
	return &dispatchScratch{
		queries: vecmath.NewMatrix(maxBatch, dim),
		groupOf: make(map[dispatchShape]int, 4),
		rowOf:   make(map[string]int, maxBatch),
	}
}

// worker owns one backend and executes dispatched batches until the work
// channel closes. Batch formation itself lives in microBatcher (shared
// with the write path).
func (s *Server) worker(b Backend, dim int) {
	defer s.wg.Done()
	ds := newDispatchScratch(s.cfg.MaxBatch, dim)
	for bt := range s.mb.work {
		s.runBatch(b, bt, ds)
	}
}

// runBatch drops stale requests, splits the batch into dispatch groups
// of one (k, filter) shape — a backend call carries a single k and a
// single predicate — and runs each group as one coalesced dispatch.
// Homogeneous traffic (the common case: every request at the default k,
// unfiltered) stays a single backend call exactly as before; mixed
// traffic costs one call per distinct shape within the micro-batch.
func (s *Server) runBatch(b Backend, bt batch[*request], ds *dispatchScratch) {
	now := time.Now()
	live := bt.items[:0]
	for _, r := range bt.items {
		if now.After(r.deadline) {
			// The waiter accounts the expiry (it owns the outcome); the
			// reply only unblocks a waiter that has not yet timed out.
			r.reply <- reply{err: ErrDeadline}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	// Per-request view of batch formation: the queue span is the wait
	// from admission until this batch opened, the batch span is the
	// linger spent collecting batch-mates.
	for _, r := range live {
		if r.tr == nil {
			continue
		}
		if wait := bt.opened.Sub(r.submit); wait > 0 {
			r.tr.AddSpan(nil, "serve.queue", r.submit, wait)
		}
		r.tr.AddSpan(nil, "serve.batch", bt.opened, bt.formed.Sub(bt.opened),
			obs.Int("size", int64(len(bt.items))))
	}

	clear(ds.groupOf)
	groups := ds.groups[:0]
	for _, r := range live {
		sh := dispatchShape{r.k, r.filterID}
		gi, ok := ds.groupOf[sh]
		if !ok {
			gi = len(groups)
			ds.groupOf[sh] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], r)
	}
	for _, g := range groups {
		s.dispatchGroup(b, g, ds, bt.opened)
	}
	for i := range groups {
		groups[i] = nil // release request pointers held by the scratch
	}
	ds.groups = groups[:0]
}

// dispatchGroup coalesces duplicate queries within one (k, filter)
// group, dispatches one backend batch of distinct rows, and fans results
// back out. opened is when the batch opened; the gap from each request's
// submit to it is that request's queue cost.
func (s *Server) dispatchGroup(b Backend, group []*request, ds *dispatchScratch, opened time.Time) {
	// Coalesce: under Zipf-skewed traffic the same hot query often appears
	// several times in one micro-batch; one backend row answers them all.
	// Batch-size-1 dispatch can never do this — it is part of why batched
	// serving wins beyond the DPU-side amortization.
	clear(ds.rowOf)
	rowOf := ds.rowOf
	if cap(ds.assign) < len(group) {
		ds.assign = make([]int, len(group))
	}
	assign := ds.assign[:len(group)]
	distinct := group[:0:0]
	for i, r := range group {
		if row, ok := rowOf[r.key]; ok {
			assign[i] = row
			continue
		}
		rowOf[r.key] = len(distinct)
		assign[i] = len(distinct)
		distinct = append(distinct, r)
	}
	s.ctr.coalesced.Add(uint64(len(group) - len(distinct)))

	k, pred := group[0].k, group[0].pred
	scratch := ds.queries
	m := vecmath.WrapMatrix(scratch.Data[:len(distinct)*scratch.Dim], len(distinct), scratch.Dim)
	for i, r := range distinct {
		copy(m.Row(i), r.vec)
	}
	// One stage log per dispatch, allocated only when someone is tracing:
	// the backend records each pipeline stage once, and the log is then
	// replayed under every traced request's dispatch span below.
	var sl *obs.StageLog
	for _, r := range group {
		if r.tr != nil {
			sl = &obs.StageLog{}
			break
		}
	}
	// One cost vector per dispatch, shared like the stage log: the index
	// layers accumulate bytes into it, and after the dispatch it is
	// divided across the distinct queries. Allocated only when someone
	// will read it (the heat ring or a traced request), so the bare path
	// stays allocation-free.
	var cost *obs.Cost
	if s.cfg.Costs != nil || sl != nil {
		cost = &obs.Cost{}
	}
	// Record the cache generation before dispatching: results computed
	// before an invalidating write must not repopulate the cache after it.
	var cacheGen uint64
	if s.cache != nil {
		cacheGen = s.cache.generation()
	}
	dispStart := time.Now()
	res, err := b.Search(m, mutable.SearchOpts{K: k, Pred: pred, Mode: filter.ModeAuto, Stages: sl, Cost: cost})
	// Spans must land before replies unblock waiters: the handler
	// finalizes the trace as soon as its reply arrives.
	dispDur := time.Since(dispStart)
	recs := sl.Records()
	for _, r := range group {
		if r.tr == nil {
			continue
		}
		d := r.tr.AddSpan(nil, "serve.dispatch", dispStart, dispDur,
			obs.Int("group", int64(len(group))),
			obs.Int("distinct", int64(len(distinct))),
			obs.Int("k", int64(k)),
			obs.Bool("filtered", pred != nil))
		if err != nil {
			d.SetError()
		}
		r.tr.AddStages(d, recs)
	}
	if err != nil {
		s.ctr.backendErrs.Add(uint64(len(group)))
		for _, r := range group {
			r.reply <- reply{err: err}
		}
		return
	}
	s.ctr.batches.Add(1)
	s.ctr.batchedQ.Add(uint64(len(distinct)))
	if cost != nil {
		share := cost.Share(len(distinct))
		done := time.Now()
		for i, r := range group {
			c := share
			if wait := opened.Sub(r.submit); wait > 0 {
				c.QueueSeconds = wait.Seconds()
			}
			c.DispatchSeconds = dispDur.Seconds()
			c.Coalesced = distinct[assign[i]] != r
			r.tr.SetCost(c)
			s.cfg.Costs.Observe(obs.CostEntry{
				TraceID:        r.tr.ID(),
				Start:          r.submit,
				LatencySeconds: done.Sub(r.submit).Seconds(),
				Cost:           c,
			})
		}
	}
	if s.cache != nil {
		for i, r := range distinct {
			s.cache.putAt(r.key, res[i], cacheGen)
		}
	}
	if cap(ds.delivered) < len(distinct) {
		ds.delivered = make([]bool, len(distinct))
	}
	delivered := ds.delivered[:len(distinct)]
	for i := range delivered {
		delivered[i] = false
	}
	for i, r := range group {
		cands := res[assign[i]]
		if delivered[assign[i]] {
			// Coalesced duplicates get their own copy so no two callers
			// share a mutable result slice.
			cp := make([]topk.Candidate, len(cands))
			copy(cp, cands)
			cands = cp
		}
		delivered[assign[i]] = true
		r.reply <- reply{cands: cands}
	}
}
