package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topk"
	"repro/internal/vecmath"
)

// recordingWriteBackend records applied runs for assertions.
type recordingWriteBackend struct {
	mu      sync.Mutex
	dim     int
	ops     []string // "u:<id>" / "d:<id>" in application order
	runs    int
	fail    error
	applyIn time.Duration
}

func (b *recordingWriteBackend) Dim() int { return b.dim }

func (b *recordingWriteBackend) Upsert(ids []int64, vecs *vecmath.Matrix) error {
	time.Sleep(b.applyIn)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	if vecs.Rows != len(ids) {
		panic("row/id mismatch")
	}
	for _, id := range ids {
		b.ops = append(b.ops, "u:"+itoa(id))
	}
	b.runs++
	return nil
}

func (b *recordingWriteBackend) Remove(ids []int64) error {
	time.Sleep(b.applyIn)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	for _, id := range ids {
		b.ops = append(b.ops, "d:"+itoa(id))
	}
	b.runs++
	return nil
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestWriteBatcherAppliesInOrder(t *testing.T) {
	b := &recordingWriteBackend{dim: 4}
	w := NewWriteBatcher(WriteConfig{MaxBatch: 8, MaxLinger: time.Millisecond}, b)
	defer w.Close()

	vec := make([]float32, 4)
	ctx := context.Background()
	// Interleaved ops on one key: order must survive batching.
	if err := w.Upsert(ctx, 7, vec); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if err := w.Upsert(ctx, 7, vec); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	got := append([]string(nil), b.ops...)
	b.mu.Unlock()
	want := []string{"u:7", "d:7", "u:7"}
	if len(got) != len(want) {
		t.Fatalf("ops %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ops %v, want %v", got, want)
		}
	}
	st := w.Stats()
	if st.Applied != 3 || st.Upserts != 2 || st.Deletes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteBatcherCoalescesConcurrentWrites(t *testing.T) {
	b := &recordingWriteBackend{dim: 4, applyIn: 200 * time.Microsecond}
	w := NewWriteBatcher(WriteConfig{MaxBatch: 32, MaxLinger: 2 * time.Millisecond}, b)
	defer w.Close()

	const n = 64
	var wg sync.WaitGroup
	vec := make([]float32, 4)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.Upsert(context.Background(), int64(i), vec); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := w.Stats()
	if st.Applied != n {
		t.Fatalf("applied %d, want %d", st.Applied, n)
	}
	if st.MeanBatchSize <= 1.5 {
		t.Errorf("write batching never coalesced: mean batch %.2f", st.MeanBatchSize)
	}
	if st.Latency.Count != n {
		t.Errorf("latency observed %d writes, want %d", st.Latency.Count, n)
	}
}

func TestWriteBatcherShedsWhenFull(t *testing.T) {
	block := make(chan struct{})
	b := &blockingWriteBackend{dim: 4, release: block}
	w := NewWriteBatcher(WriteConfig{MaxBatch: 1, QueueDepth: 2, DefaultTimeout: 5 * time.Second}, b)

	vec := make([]float32, 4)
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			results <- w.Upsert(context.Background(), int64(i), vec)
		}(i)
	}
	// With a 2-deep queue, batch=1, and the worker blocked, at least
	// one submission must shed.
	deadline := time.After(5 * time.Second)
	shed := 0
	for w.Stats().Shed == 0 {
		select {
		case <-deadline:
			t.Fatal("no shedding with a full queue")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(block)
	for i := 0; i < 8; i++ {
		if err := <-results; errors.Is(err, ErrOverloaded) {
			shed++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no caller observed ErrOverloaded")
	}
	w.Close()
	if st := w.Stats(); st.Applied+st.Shed != 8 {
		t.Fatalf("outcomes do not partition: %+v", st)
	}
}

type blockingWriteBackend struct {
	dim     int
	release chan struct{}
}

func (b *blockingWriteBackend) Dim() int { return b.dim }
func (b *blockingWriteBackend) Upsert(ids []int64, vecs *vecmath.Matrix) error {
	<-b.release
	return nil
}
func (b *blockingWriteBackend) Remove(ids []int64) error {
	<-b.release
	return nil
}

func TestWriteBatcherCloseDrains(t *testing.T) {
	b := &recordingWriteBackend{dim: 4}
	w := NewWriteBatcher(WriteConfig{MaxBatch: 4, MaxLinger: 50 * time.Millisecond}, b)

	vec := make([]float32, 4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := w.Upsert(context.Background(), int64(i), vec)
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Error(err)
			}
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	w.Close()
	wg.Wait()

	st := w.Stats()
	if st.Applied != st.Accepted {
		t.Fatalf("Close dropped accepted writes: %+v", st)
	}
	if err := w.Upsert(context.Background(), 99, vec); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close write: %v, want ErrClosed", err)
	}
}

func TestWriteBatcherValidation(t *testing.T) {
	b := &recordingWriteBackend{dim: 4}
	w := NewWriteBatcher(WriteConfig{}, b)
	defer w.Close()
	if err := w.Upsert(context.Background(), 1, make([]float32, 5)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if w.cfg.MaxBatch != DefaultWriteConfig().MaxBatch {
		t.Fatal("defaults not applied")
	}
}

// TestWriteInvalidatesCache wires OnApplied to Server.InvalidateCache
// (the cmd/upanns-serve wiring) and checks a cached result cannot outlive
// a write.
func TestWriteInvalidatesCache(t *testing.T) {
	var version atomic.Uint64
	backend := &FuncBackend{D: 4, Fn: func(queries *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
		out := make([][]topk.Candidate, queries.Rows)
		for i := range out {
			out[i] = []topk.Candidate{{ID: int64(version.Load()), Dist: 1}}
		}
		return out, nil
	}}
	srv, err := NewServer(Config{K: 1, MaxBatch: 1, CacheSize: 64}, backend)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wb := NewWriteBatcher(WriteConfig{MaxBatch: 4, OnApplied: srv.InvalidateCache},
		&recordingWriteBackend{dim: 4})
	defer wb.Close()

	ctx := context.Background()
	vec := []float32{1, 2, 3, 4}
	res, err := srv.Search(ctx, vec)
	if err != nil || res[0].ID != 0 {
		t.Fatalf("first search: %v %v", res, err)
	}
	version.Store(7)
	// Still cached: the backend change alone must not show through.
	if res, _ = srv.Search(ctx, vec); res[0].ID != 0 {
		t.Fatalf("expected cached result, got id %d", res[0].ID)
	}
	if err := wb.Upsert(ctx, 42, vec); err != nil {
		t.Fatal(err)
	}
	if res, _ = srv.Search(ctx, vec); res[0].ID != 7 {
		t.Fatalf("cache not invalidated by write: got id %d, want 7", res[0].ID)
	}
	if st := srv.Stats(); st.CacheFlushes == 0 {
		t.Fatal("cache flush not counted")
	}
}

// TestCacheGenerationFencesStaleResults pins the repopulation fence: a
// result computed before an invalidating flush must not be stored after
// it, while same-generation stores succeed.
func TestCacheGenerationFencesStaleResults(t *testing.T) {
	c := newLRUCache(4)
	gen := c.generation()
	c.putAt("fresh", []topk.Candidate{{ID: 1}}, gen)
	if _, ok := c.get("fresh"); !ok {
		t.Fatal("same-generation store rejected")
	}
	c.flush()
	c.putAt("stale", []topk.Candidate{{ID: 2}}, gen)
	if _, ok := c.get("stale"); ok {
		t.Fatal("pre-flush result repopulated the cache after invalidation")
	}
	if _, ok := c.get("fresh"); ok {
		t.Fatal("flush did not drop entries")
	}
	c.putAt("new", []topk.Candidate{{ID: 3}}, c.generation())
	if _, ok := c.get("new"); !ok {
		t.Fatal("post-flush store with current generation rejected")
	}
}

func TestWriteBatcherBackendError(t *testing.T) {
	failErr := errors.New("backend down")
	b := &recordingWriteBackend{dim: 4, fail: failErr}
	w := NewWriteBatcher(WriteConfig{MaxBatch: 4}, b)
	defer w.Close()
	if err := w.Upsert(context.Background(), 1, make([]float32, 4)); !errors.Is(err, failErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	if st := w.Stats(); st.BackendErrs != 1 {
		t.Fatalf("stats %+v", st)
	}
}
