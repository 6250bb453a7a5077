package serve

import "time"

// batch is one formed micro-batch plus its formation timestamps: opened
// is when a worker took its first item, formed is when it was sealed for
// dispatch. The gap between them is the time spent collecting
// batch-mates, which request tracing reports as the serve.batch span.
type batch[T any] struct {
	items  []T
	opened time.Time
	formed time.Time
}

// microBatcher is the batch-formation machinery shared by the read path
// (Server) and the write path (WriteBatcher): a bounded admission queue
// that each worker pulls its own batches from. An idle worker blocks on
// the queue; a busy one lets requests pile up, and its next pull takes
// them together, up to maxBatch. With linger > 0 (the write path) a
// batch also waits up to linger for more items. Shutdown closes the
// queue once admission is fenced; workers drain it until it is empty.
type microBatcher[T any] struct {
	maxBatch int
	linger   time.Duration
	queue    chan T
}

func newMicroBatcher[T any](maxBatch int, linger time.Duration, queueDepth int) *microBatcher[T] {
	return &microBatcher[T]{
		maxBatch: maxBatch,
		linger:   linger,
		queue:    make(chan T, queueDepth),
	}
}

// next blocks until an item is queued and returns the batch it opens,
// built in buf's backing array. It reports false once the queue is closed
// and empty.
func (b *microBatcher[T]) next(buf []T) (batch[T], bool) {
	first, ok := <-b.queue
	if !ok {
		return batch[T]{}, false
	}
	opened := time.Now()
	items := b.fill(append(buf[:0], first))
	return batch[T]{items: items, opened: opened, formed: time.Now()}, true
}

// fill grows a batch until full, linger expiry, or the queue closes.
func (b *microBatcher[T]) fill(items []T) []T {
	if b.linger == 0 || b.maxBatch <= 1 {
		// Greedy: take whatever is already queued, never wait.
		for len(items) < b.maxBatch {
			select {
			case r, ok := <-b.queue:
				if !ok {
					return items
				}
				items = append(items, r)
			default:
				return items
			}
		}
		return items
	}
	timer := time.NewTimer(b.linger)
	defer timer.Stop()
	for len(items) < b.maxBatch {
		select {
		case r, ok := <-b.queue:
			if !ok {
				return items
			}
			items = append(items, r)
		case <-timer.C:
			return items
		}
	}
	return items
}
