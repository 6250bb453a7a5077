package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/vecmath"
)

// The write path shares the read side's micro-batcher: single upsert and
// delete requests are admitted through a bounded queue, pulled into
// batches of up to MaxBatch that also wait up to MaxLinger for
// batch-mates, and applied to the backend in arrival order. Unlike reads,
// writes linger: the updatable index takes one overlay lock per applied
// batch, the cache is invalidated once per batch, and per-write encode
// work amortizes across a batch — while admission control keeps write
// bursts from growing an unbounded backlog.

// WriteBackend is the write-side counterpart of Backend: a destination
// for batched upserts and deletes. internal/mutable.UpdatableIndex
// implements it. Implementations must apply rows in order (later rows of
// one batch win ties on duplicate ids) and be safe for calls from a
// single worker goroutine.
type WriteBackend interface {
	// Dim returns the backend's vector dimensionality.
	Dim() int
	// Upsert inserts-or-replaces every row of vecs under the parallel id.
	Upsert(ids []int64, vecs *vecmath.Matrix) error
	// Remove deletes every id (unknown ids are no-ops).
	Remove(ids []int64) error
}

// AttrWriteBackend is a WriteBackend whose upserts may carry attribute
// tags. internal/mutable.UpdatableIndex implements it when deployed with
// a schema (AttrSchema non-nil).
type AttrWriteBackend interface {
	WriteBackend
	// AttrSchema returns the attribute schema, or nil when filtering is
	// not enabled. The batcher validates tags against it at admission, so
	// one bad write is rejected alone instead of failing its whole batch.
	AttrSchema() *filter.Schema
	// UpsertWithAttrs is Upsert with per-row tags (entries may be nil;
	// tags have replacement semantics alongside the vectors).
	UpsertWithAttrs(ids []int64, vecs *vecmath.Matrix, attrs []filter.Attrs) error
}

// WriteConfig tunes the write batcher.
type WriteConfig struct {
	// MaxBatch caps writes per backend application (default 64).
	MaxBatch int
	// MaxLinger bounds how long an open write batch waits for more
	// requests (default 1ms). 0 applies greedily without waiting.
	MaxLinger time.Duration
	// QueueDepth bounds the write admission queue (default 4096).
	QueueDepth int
	// DefaultTimeout is the per-write deadline applied when the caller's
	// context carries none (default 5s).
	DefaultTimeout time.Duration
	// OnApplied, when set, runs after every successfully applied op run
	// (a batch splits into one run per maximal same-op stretch), before
	// that run's writers are acknowledged. Wire it to
	// Server.InvalidateCache when the read path caches results over the
	// same backend, so stale answers cannot outlive a write.
	OnApplied func()
}

// DefaultWriteConfig returns the defaults described on each field.
func DefaultWriteConfig() WriteConfig {
	return WriteConfig{
		MaxBatch:       64,
		MaxLinger:      time.Millisecond,
		QueueDepth:     4096,
		DefaultTimeout: 5 * time.Second,
	}
}

func (c WriteConfig) withDefaults() WriteConfig {
	d := DefaultWriteConfig()
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxLinger < 0 {
		c.MaxLinger = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = d.DefaultTimeout
	}
	return c
}

type writeOp uint8

const (
	opUpsert writeOp = iota
	opDelete
)

// writeReq is one in-flight write.
type writeReq struct {
	op       writeOp
	id       int64
	vec      []float32
	attrs    filter.Attrs // upsert tags (validated at admission)
	deadline time.Time
	submit   time.Time
	reply    chan error // buffered(1): the worker never blocks on an abandoned waiter
}

// WriteBatcher fronts a WriteBackend with micro-batching and admission
// control. Create with NewWriteBatcher, shut down with Close (which
// drains every queued write before returning).
type WriteBatcher struct {
	cfg WriteConfig
	dim int
	b   WriteBackend
	ab  AttrWriteBackend // non-nil when b supports tagged upserts
	mb  *microBatcher[*writeReq]
	wg  sync.WaitGroup

	mu     sync.RWMutex // guards closed against in-flight enqueues
	closed bool

	ctr writeCounters
	lat *metrics.Histogram
}

// writeCounters is the batcher's atomic counter block; see WriteStats.
type writeCounters struct {
	requests, accepted, applied  atomic.Uint64
	upserts, deletes             atomic.Uint64
	shed, expired, backendErrs   atomic.Uint64
	batches, batchedW, subBlocks atomic.Uint64
}

// NewWriteBatcher starts a write batcher over b with one applier worker:
// writes serialize on the backend's overlay lock anyway, so extra workers
// would only reorder acknowledged writes.
func NewWriteBatcher(cfg WriteConfig, b WriteBackend) *WriteBatcher {
	cfg = cfg.withDefaults()
	w := &WriteBatcher{
		cfg: cfg,
		dim: b.Dim(),
		b:   b,
		mb:  newMicroBatcher[*writeReq](cfg.MaxBatch, cfg.MaxLinger, cfg.QueueDepth),
		lat: metrics.NewLatencyHistogram(),
	}
	if ab, ok := b.(AttrWriteBackend); ok && ab.AttrSchema() != nil {
		w.ab = ab
	}
	w.wg.Add(1)
	go w.worker()
	return w
}

// Upsert inserts-or-replaces vec under id, blocking until the write is
// applied or the deadline — the earlier of ctx's deadline and
// DefaultTimeout — expires. Under overload it fails fast with
// ErrOverloaded. A deadline error does not guarantee the write was
// dropped: it may still be applied after the caller gave up.
func (w *WriteBatcher) Upsert(ctx context.Context, id int64, vec []float32) error {
	return w.UpsertWithAttrs(ctx, id, vec, nil)
}

// UpsertWithAttrs is Upsert with attribute tags for the new version
// (tags replace the id's previous tags; nil clears them). It fails fast
// with ErrBadRequest-class errors when the backend has no schema or the
// tags fail schema validation — at admission, so one bad write can never
// poison the batch it would have ridden in.
func (w *WriteBatcher) UpsertWithAttrs(ctx context.Context, id int64, vec []float32, attrs filter.Attrs) error {
	if len(vec) != w.dim {
		return fmt.Errorf("serve: upsert has %d dims, backend has %d", len(vec), w.dim)
	}
	if len(attrs) > 0 {
		if w.ab == nil {
			return fmt.Errorf("%w: backend does not index attributes", ErrFilterUnsupported)
		}
		if err := attrs.Validate(w.ab.AttrSchema()); err != nil {
			return err
		}
		attrs = attrs.Clone()
	}
	// Copy the vector: a write can be applied after the caller's deadline
	// expired and it reclaimed its buffer, and an aliased slice would
	// race that reuse and stage a torn vector durably in the index.
	return w.submit(ctx, &writeReq{op: opUpsert, id: id, vec: append([]float32(nil), vec...), attrs: attrs})
}

// Delete removes id, with the same blocking and overload behavior as
// Upsert.
func (w *WriteBatcher) Delete(ctx context.Context, id int64) error {
	return w.submit(ctx, &writeReq{op: opDelete, id: id})
}

func (w *WriteBatcher) submit(ctx context.Context, r *writeReq) error {
	now := time.Now()
	r.submit = now
	r.reply = make(chan error, 1)
	r.deadline = now.Add(w.cfg.DefaultTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(r.deadline) {
		r.deadline = d
	}
	w.ctr.requests.Add(1)

	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		return ErrClosed
	}
	select {
	case w.mb.queue <- r:
		w.ctr.accepted.Add(1)
		w.mu.RUnlock()
	default:
		w.mu.RUnlock()
		w.ctr.shed.Add(1)
		return ErrOverloaded
	}

	timer := time.NewTimer(time.Until(r.deadline))
	defer timer.Stop()
	select {
	case err := <-r.reply:
		if err != nil {
			if err == ErrDeadline {
				w.ctr.expired.Add(1)
			}
			return err
		}
		w.ctr.applied.Add(1)
		w.lat.Observe(time.Since(now).Seconds())
		return nil
	case <-ctx.Done():
		w.ctr.expired.Add(1)
		return context.Cause(ctx)
	case <-timer.C:
		w.ctr.expired.Add(1)
		return ErrDeadline
	}
}

// Close stops admission, flushes every queued write through the backend,
// and waits for the worker to exit. Idempotent.
func (w *WriteBatcher) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	// Admission is fenced above, so closing the queue is safe; the worker
	// drains it until it is empty.
	close(w.mb.queue)
	w.wg.Wait()
}

// worker applies the batches it pulls from the queue until the queue is
// closed and empty.
func (w *WriteBatcher) worker() {
	defer w.wg.Done()
	scratch := vecmath.NewMatrix(w.cfg.MaxBatch, w.dim)
	ids := make([]int64, 0, w.cfg.MaxBatch)
	buf := make([]*writeReq, 0, w.cfg.MaxBatch)
	for {
		bt, ok := w.mb.next(buf)
		if !ok {
			return
		}
		w.runBatch(bt.items, scratch, ids)
		clear(bt.items) // release write pointers held by the buffer
	}
}

// runBatch drops stale writes, splits the batch into maximal runs of one
// op kind (preserving arrival order, so delete-then-upsert of the same
// key keeps its meaning), and applies each run as one backend call.
func (w *WriteBatcher) runBatch(batch []*writeReq, scratch *vecmath.Matrix, ids []int64) {
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if now.After(r.deadline) {
			r.reply <- ErrDeadline
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	w.ctr.batches.Add(1)
	w.ctr.batchedW.Add(uint64(len(live)))

	for i := 0; i < len(live); {
		j := i
		for j < len(live) && live[j].op == live[i].op {
			j++
		}
		run := live[i:j]
		ids = ids[:0]
		for _, r := range run {
			ids = append(ids, r.id)
		}
		var err error
		if run[0].op == opUpsert {
			m := vecmath.WrapMatrix(scratch.Data[:len(run)*scratch.Dim], len(run), scratch.Dim)
			for ri, r := range run {
				copy(m.Row(ri), r.vec)
			}
			if w.ab != nil {
				// Tag-capable backends always take the attrs path: a nil
				// per-row entry clears that id's tags, mirroring vector
				// replacement semantics.
				attrs := make([]filter.Attrs, len(run))
				for ri, r := range run {
					attrs[ri] = r.attrs
				}
				err = w.ab.UpsertWithAttrs(ids, m, attrs)
			} else {
				err = w.b.Upsert(ids, m)
			}
			if err == nil {
				w.ctr.upserts.Add(uint64(len(run)))
			}
		} else {
			err = w.b.Remove(ids)
			if err == nil {
				w.ctr.deletes.Add(uint64(len(run)))
			}
		}
		if err != nil {
			w.ctr.backendErrs.Add(uint64(len(run)))
		} else if w.cfg.OnApplied != nil {
			w.cfg.OnApplied()
		}
		for _, r := range run {
			r.reply <- err
		}
		w.ctr.subBlocks.Add(1)
		i = j
	}
}

// WriteStats is a point-in-time, JSON-serializable view of the write
// batcher.
type WriteStats struct {
	Requests    uint64 `json:"requests"`
	Accepted    uint64 `json:"accepted"`
	Applied     uint64 `json:"applied"`
	Upserts     uint64 `json:"upserts"`
	Deletes     uint64 `json:"deletes"`
	Shed        uint64 `json:"shed"`
	Expired     uint64 `json:"expired"`
	BackendErrs uint64 `json:"backend_errors"`

	Batches       uint64  `json:"batches"`
	BatchedW      uint64  `json:"batched_writes"`
	SubBlocks     uint64  `json:"op_runs"`
	MeanBatchSize float64 `json:"mean_batch_size"`

	QueueDepth int `json:"queue_depth"`

	// Latency covers every applied write, admission to acknowledgment,
	// in seconds.
	Latency metrics.Snapshot `json:"latency_seconds"`
}

// WriteMetrics emits the write-path counters in Prometheus exposition
// form under the upanns_write_* family.
func (st WriteStats) WriteMetrics(w *obs.PromWriter) {
	w.Counter("upanns_write_requests_total", "Writes submitted.", float64(st.Requests))
	w.Counter("upanns_write_applied_total", "Writes applied and acknowledged.", float64(st.Applied))
	w.Counter("upanns_write_upserts_total", "Upserts applied.", float64(st.Upserts))
	w.Counter("upanns_write_deletes_total", "Deletes applied.", float64(st.Deletes))
	w.Counter("upanns_write_shed_total", "Writes rejected by admission control.", float64(st.Shed))
	w.Counter("upanns_write_expired_total", "Writes that missed their deadline.", float64(st.Expired))
	w.Counter("upanns_write_backend_errors_total", "Writes failed by the backend.", float64(st.BackendErrs))
	w.Counter("upanns_write_batches_total", "Write batches applied.", float64(st.Batches))
	w.Gauge("upanns_write_queue_depth", "Writes waiting in the admission queue.", float64(st.QueueDepth))
	w.Summary("upanns_write_latency_seconds", "Write latency, admission to acknowledgment.", st.Latency)
}

// Stats snapshots the batcher's counters and latency histogram.
func (w *WriteBatcher) Stats() WriteStats {
	st := WriteStats{
		Requests:    w.ctr.requests.Load(),
		Accepted:    w.ctr.accepted.Load(),
		Applied:     w.ctr.applied.Load(),
		Upserts:     w.ctr.upserts.Load(),
		Deletes:     w.ctr.deletes.Load(),
		Shed:        w.ctr.shed.Load(),
		Expired:     w.ctr.expired.Load(),
		BackendErrs: w.ctr.backendErrs.Load(),
		Batches:     w.ctr.batches.Load(),
		BatchedW:    w.ctr.batchedW.Load(),
		SubBlocks:   w.ctr.subBlocks.Load(),
		QueueDepth:  len(w.mb.queue),
		Latency:     w.lat.Snapshot(),
	}
	if st.Batches > 0 {
		st.MeanBatchSize = float64(st.BatchedW) / float64(st.Batches)
	}
	return st
}
