package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topk"
	"repro/internal/vecmath"
)

// echoBackend answers each query with a candidate whose ID encodes the
// query's first coordinate, so tests can verify request/response routing
// through batching. An optional delay simulates backend service time.
func echoBackend(dim int, delay time.Duration, calls *atomic.Uint64) *FuncBackend {
	return &FuncBackend{
		D: dim,
		Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
			if calls != nil {
				calls.Add(1)
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			out := make([][]topk.Candidate, q.Rows)
			for i := range out {
				out[i] = []topk.Candidate{{ID: int64(q.Row(i)[0]), Dist: 0}}
			}
			return out, nil
		},
	}
}

func vec(dim int, first float32) []float32 {
	v := make([]float32, dim)
	v[0] = first
	return v
}

func TestServeBasicRouting(t *testing.T) {
	const dim = 4
	s, err := NewServer(Config{K: 1, MaxBatch: 8}, echoBackend(dim, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	const n = 100
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cands, err := s.Search(context.Background(), vec(dim, float32(i)))
			if err != nil {
				errs[i] = err
				return
			}
			if len(cands) != 1 || cands[0].ID != int64(i) {
				errs[i] = fmt.Errorf("query %d answered with %v", i, cands)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Completed != n {
		t.Errorf("completed %d, want %d", st.Completed, n)
	}
	if st.Latency.Count != n {
		t.Errorf("latency observations %d, want %d", st.Latency.Count, n)
	}
	if st.MeanBatchSize <= 1 {
		t.Logf("note: mean batch size %.2f (workers never coalesced; load too serial)", st.MeanBatchSize)
	}
}

func TestServeMicroBatchingCoalesces(t *testing.T) {
	const dim = 4
	// A slow backend forces concurrent requests to pile up and coalesce.
	s, err := NewServer(Config{K: 1, MaxBatch: 16, DefaultTimeout: 5 * time.Second},
		echoBackend(dim, 2*time.Millisecond, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Search(context.Background(), vec(dim, float32(i))); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.MeanBatchSize < 2 {
		t.Errorf("mean batch size %.2f; micro-batching never coalesced under concurrent load", st.MeanBatchSize)
	}
	if st.Batches >= n {
		t.Errorf("%d batches for %d requests: no amortization", st.Batches, n)
	}
}

// TestServeLoneRequestDispatchedAlone covers the idle-worker edge: a lone
// request is dispatched at once as a batch of one, never held back to
// wait for batch-mates.
func TestServeLoneRequestDispatchedAlone(t *testing.T) {
	const dim = 4
	s, err := NewServer(Config{K: 1, MaxBatch: 64}, echoBackend(dim, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	start := time.Now()
	if _, err := s.Search(context.Background(), vec(dim, 1)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Errorf("lone request took %v; idle worker did not dispatch it", elapsed)
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchedQ != 1 {
		t.Errorf("batches=%d batchedQ=%d, want 1/1", st.Batches, st.BatchedQ)
	}
}

// TestServeEmptyFlush covers the all-stale edge: a batch whose every
// member's deadline has passed by dispatch time must be dropped without a
// backend call.
func TestServeEmptyFlush(t *testing.T) {
	const dim = 4
	var calls atomic.Uint64
	release := make(chan struct{})
	blocking := &FuncBackend{
		D: dim,
		Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
			calls.Add(1)
			<-release
			out := make([][]topk.Candidate, q.Rows)
			for i := range out {
				out[i] = []topk.Candidate{{ID: 0}}
			}
			return out, nil
		},
	}
	s, err := NewServer(Config{K: 1, MaxBatch: 4, DefaultTimeout: 20 * time.Millisecond}, blocking)
	if err != nil {
		t.Fatal(err)
	}

	// First request occupies the worker (blocked on release).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Search(context.Background(), vec(dim, 0))
	}()
	// Wait for the worker to be inside the backend call.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// These queue up behind the blocked worker; their 20ms deadlines will
	// have passed by the time the worker frees up.
	const stale = 5
	for i := 0; i < stale; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Search(context.Background(), vec(dim, float32(i+1)))
			if !errors.Is(err, ErrDeadline) {
				t.Errorf("stale request %d: err = %v, want ErrDeadline", i, err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // all stale deadlines pass
	close(release)
	wg.Wait()
	s.Close()

	if got := calls.Load(); got != 1 {
		t.Errorf("backend called %d times; stale batch should have been dropped without dispatch", got)
	}
	st := s.Stats()
	if st.Expired < stale {
		t.Errorf("expired %d, want >= %d", st.Expired, stale)
	}
}

// TestServeShedding covers queue-full admission control.
func TestServeShedding(t *testing.T) {
	const dim = 4
	release := make(chan struct{})
	blocking := &FuncBackend{
		D: dim,
		Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
			<-release
			out := make([][]topk.Candidate, q.Rows)
			for i := range out {
				out[i] = []topk.Candidate{{ID: 7}}
			}
			return out, nil
		},
	}
	s, err := NewServer(Config{K: 1, MaxBatch: 1, QueueDepth: 2, DefaultTimeout: 5 * time.Second}, blocking)
	if err != nil {
		t.Fatal(err)
	}

	// With MaxBatch=1, a blocked worker, and QueueDepth=2, the server
	// holds at most queue(2) + worker(1) requests; the rest must shed.
	const n = 20
	var wg sync.WaitGroup
	var ok, shed atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Search(context.Background(), vec(dim, float32(i)))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("request %d: unexpected err %v", i, err)
			}
		}(i)
	}
	// Let every request meet admission while the worker is blocked, then
	// release the backend. Releasing at the first shed would let a
	// goroutine that had not yet reached admission into the drained queue.
	for st := s.Stats(); st.Accepted+st.Shed < n; st = s.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	s.Close()

	st := s.Stats()
	if shed.Load() == 0 {
		t.Fatal("no requests shed despite full queue")
	}
	if ok.Load()+shed.Load() != n {
		t.Errorf("ok %d + shed %d != %d", ok.Load(), shed.Load(), n)
	}
	if st.Shed != shed.Load() {
		t.Errorf("stats shed %d != observed %d", st.Shed, shed.Load())
	}
	if ok.Load() > 2+1 {
		t.Errorf("%d requests admitted; admission bound (queue+pipeline) exceeded", ok.Load())
	}
}

// TestServeAdmissionBound pins the admission bound to what /stats
// reports: with every worker blocked in its backend and MaxBatch=1, the
// server admits exactly QueueDepth + workers requests before it sheds,
// and the queue it sheds on is the queue_depth Stats shows.
func TestServeAdmissionBound(t *testing.T) {
	const dim, workers, depth = 4, 2, 2
	var calls atomic.Uint64
	release := make(chan struct{})
	backends := make([]Backend, workers)
	for i := range backends {
		backends[i] = &FuncBackend{D: dim, Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
			calls.Add(1)
			<-release
			return make([][]topk.Candidate, q.Rows), nil
		}}
	}
	s, err := NewServer(Config{K: 1, MaxBatch: 1, QueueDepth: depth, DefaultTimeout: 5 * time.Second}, backends...)
	if err != nil {
		t.Fatal(err)
	}

	// Submit one request at a time, each only once the previous one is
	// accounted (admitted or shed) and, while a worker is still idle,
	// running in a backend.
	var wg sync.WaitGroup
	var st Stats
	for i := 0; st.Shed == 0; i++ {
		if i > depth+workers+8 {
			t.Fatalf("no shed after %d admitted requests", st.Accepted)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Search(context.Background(), vec(dim, float32(i)))
		}()
		waitStats(t, s, func(st Stats) bool { return st.Accepted+st.Shed == uint64(i+1) })
		for i < workers && calls.Load() < uint64(i+1) {
			time.Sleep(100 * time.Microsecond)
		}
		st = s.Stats()
	}
	if st.Accepted != depth+workers {
		t.Errorf("admitted %d requests before the first shed, want QueueDepth(%d) + workers(%d)",
			st.Accepted, depth, workers)
	}
	if st.QueueDepth != depth {
		t.Errorf("queue_depth %d at the first shed, want %d", st.QueueDepth, depth)
	}
	close(release)
	wg.Wait()
	s.Close()
}

// TestServeDeadline covers per-request timeouts against a slow backend.
func TestServeDeadline(t *testing.T) {
	const dim = 4
	s, err := NewServer(Config{K: 1, MaxBatch: 4, DefaultTimeout: 10 * time.Millisecond},
		echoBackend(dim, 100*time.Millisecond, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Search(context.Background(), vec(dim, 1)); !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}

	// Context cancellation surfaces the context's cause.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, vec(dim, 2))
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestServeConcurrentSubmitShutdown races many submitters against Close
// (run under -race in CI).
func TestServeConcurrentSubmitShutdown(t *testing.T) {
	const dim = 4
	for round := 0; round < 5; round++ {
		s, err := NewServer(Config{K: 1, MaxBatch: 8, DefaultTimeout: time.Second},
			echoBackend(dim, 50*time.Microsecond, nil))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 50; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := s.Search(context.Background(), vec(dim, float32(i)))
				if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDeadline) {
					t.Errorf("unexpected error during shutdown race: %v", err)
				}
			}(i)
		}
		s.Close()
		wg.Wait()
		// After Close, admission must be rejected outright.
		if _, err := s.Search(context.Background(), vec(dim, 0)); !errors.Is(err, ErrClosed) {
			t.Errorf("post-close err = %v, want ErrClosed", err)
		}
		// Close must be idempotent.
		s.Close()
	}
}

func TestServeCache(t *testing.T) {
	const dim = 4
	var calls atomic.Uint64
	s, err := NewServer(Config{K: 1, MaxBatch: 1, CacheSize: 2, CacheQuantum: 1e-3}, echoBackend(dim, 0, &calls))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	a, b, c := vec(dim, 1), vec(dim, 2), vec(dim, 3)
	if _, err := s.Search(ctx, a); err != nil {
		t.Fatal(err)
	}
	first := calls.Load()
	// Exact repeat: served from cache, no new backend call.
	got, err := s.Search(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != first {
		t.Errorf("backend called again for a cached query")
	}
	if got[0].ID != 1 {
		t.Errorf("cached answer %v", got)
	}
	// Sub-quantum jitter maps to the same cache cell.
	jitter := vec(dim, 1)
	jitter[1] = 2e-4
	if _, err := s.Search(ctx, jitter); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != first {
		t.Error("sub-quantum jitter missed the cache")
	}

	// Capacity 2: touching b then c evicts a (LRU).
	if _, err := s.Search(ctx, b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(ctx, c); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	if _, err := s.Search(ctx, a); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Error("evicted entry still served from cache")
	}

	st := s.Stats()
	if st.CacheHits < 2 {
		t.Errorf("cache hits %d, want >= 2", st.CacheHits)
	}
	if st.CacheLen != 2 {
		t.Errorf("cache entries %d, want 2", st.CacheLen)
	}
	if st.HitRate() <= 0 {
		t.Error("hit rate not positive")
	}
}

// TestServeCoalescing verifies duplicate queries in one micro-batch are
// dispatched as a single backend row and fanned back out.
func TestServeCoalescing(t *testing.T) {
	const dim = 4
	var mu sync.Mutex
	var rowsSeen []int
	var calls atomic.Uint64
	slow := &FuncBackend{
		D: dim,
		Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
			mu.Lock()
			rowsSeen = append(rowsSeen, q.Rows)
			mu.Unlock()
			calls.Add(1)
			time.Sleep(60 * time.Millisecond)
			out := make([][]topk.Candidate, q.Rows)
			for i := range out {
				out[i] = []topk.Candidate{{ID: int64(q.Row(i)[0])}}
			}
			return out, nil
		},
	}
	s, err := NewServer(Config{K: 1, MaxBatch: 8, DefaultTimeout: 5 * time.Second}, slow)
	if err != nil {
		t.Fatal(err)
	}

	// First request occupies the worker; the next six queue up and must
	// coalesce 3x vecA + 3x vecB into a 2-row dispatch.
	var wg sync.WaitGroup
	launch := func(first float32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cands, err := s.Search(context.Background(), vec(dim, first))
			if err != nil {
				t.Errorf("query %v: %v", first, err)
				return
			}
			if cands[0].ID != int64(first) {
				t.Errorf("query %v answered with id %d", first, cands[0].ID)
			}
		}()
	}
	launch(99)
	for calls.Load() == 0 { // wait until the worker is inside the backend
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		launch(1)
		launch(2)
	}
	wg.Wait()
	s.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(rowsSeen) != 2 || rowsSeen[0] != 1 || rowsSeen[1] != 2 {
		t.Errorf("backend saw row counts %v, want [1 2] (duplicates coalesced)", rowsSeen)
	}
	st := s.Stats()
	if st.Coalesced != 4 {
		t.Errorf("coalesced %d, want 4", st.Coalesced)
	}
	if st.Completed != 7 {
		t.Errorf("completed %d, want 7", st.Completed)
	}
}

func TestServeBackendError(t *testing.T) {
	const dim = 4
	boom := errors.New("backend boom")
	s, err := NewServer(Config{K: 1, MaxBatch: 4}, &FuncBackend{
		D:  dim,
		Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) { return nil, boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Search(context.Background(), vec(dim, 1)); !errors.Is(err, boom) {
		t.Errorf("err = %v, want backend error", err)
	}
	if st := s.Stats(); st.BackendErrs != 1 {
		t.Errorf("backend errors %d, want 1", st.BackendErrs)
	}
}

func TestServeMultipleBackends(t *testing.T) {
	const dim = 4
	var calls1, calls2 atomic.Uint64
	s, err := NewServer(Config{K: 1, MaxBatch: 4, DefaultTimeout: 5 * time.Second},
		echoBackend(dim, time.Millisecond, &calls1), echoBackend(dim, time.Millisecond, &calls2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Search(context.Background(), vec(dim, float32(i))); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	if calls1.Load() == 0 || calls2.Load() == 0 {
		t.Errorf("worker utilization: backend1 %d calls, backend2 %d calls; both should serve",
			calls1.Load(), calls2.Load())
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("NewServer with no backends must fail")
	}
	if _, err := NewServer(Config{}, &FuncBackend{D: 4}, &FuncBackend{D: 8}); err == nil {
		t.Error("NewServer with mismatched dims must fail")
	}
	s, err := NewServer(Config{}, &FuncBackend{D: 4, Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
		return make([][]topk.Candidate, q.Rows), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := s.Config()
	d := DefaultConfig()
	if cfg.K != d.K || cfg.MaxBatch != d.MaxBatch || cfg.QueueDepth != d.QueueDepth {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	// Wrong-dimension queries must be rejected up front, not silently
	// searched against stale scratch contents.
	if _, err := s.Search(context.Background(), vec(2, 1)); err == nil {
		t.Error("wrong-dim query must fail")
	}
}
