package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// filterEchoBackend is a filter-capable Backend whose unfiltered answers
// carry ID 1 and whose filtered answers carry ID 1000+len(canonical), so
// tests can tell exactly which path (and which predicate) produced a
// result.
type filterEchoBackend struct {
	dim      int
	plain    int           // unfiltered calls
	filtered int           // filtered calls
	gate     chan struct{} // when non-nil, every call waits until it is closed
}

func (b *filterEchoBackend) Dim() int { return b.dim }

func (b *filterEchoBackend) Search(q *vecmath.Matrix, opts mutable.SearchOpts) ([][]topk.Candidate, error) {
	if b.gate != nil {
		<-b.gate
	}
	base := int64(1)
	if opts.Pred != nil {
		b.filtered++
		base = 1000 + int64(len(opts.Pred.Canonical()))
	} else {
		b.plain++
	}
	out := make([][]topk.Candidate, q.Rows)
	for i := range out {
		for j := 0; j < opts.K; j++ {
			out[i] = append(out[i], topk.Candidate{ID: base + int64(j), Dist: float32(j)})
		}
	}
	return out, nil
}

func mustParse(t *testing.T, expr string) filter.Pred {
	t.Helper()
	p, err := filter.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFilteredAndUnfilteredNeverShareCache is the regression test for
// the cache/coalescing identity: the same vector queried unfiltered,
// filtered, and at a different k must produce distinct cached results —
// a collision would silently serve unfiltered answers to filtered
// callers (or vice versa) forever after.
func TestFilteredAndUnfilteredNeverShareCache(t *testing.T) {
	b := &filterEchoBackend{dim: 4}
	s, err := NewServer(Config{K: 2, MaxK: 3, CacheSize: 64, MaxBatch: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vec := []float32{1, 2, 3, 4}
	pred := mustParse(t, `tenant = 42`)

	plain, err := s.Search(context.Background(), vec)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := s.SearchOpts(context.Background(), vec, SearchOptions{Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	bigK, err := s.SearchOpts(context.Background(), vec, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].ID != 1 {
		t.Fatalf("unfiltered answer %d, want 1", plain[0].ID)
	}
	if filtered[0].ID < 1000 {
		t.Fatalf("filtered query answered from the unfiltered path/cache: id %d", filtered[0].ID)
	}
	if len(bigK) != 3 {
		t.Fatalf("k=3 override returned %d candidates (cache collision with k=2?)", len(bigK))
	}

	// Repeat all three: every variant must now hit the cache (6 requests,
	// 3 backend calls total) and still return its own answer.
	again, err := s.SearchOpts(context.Background(), vec, SearchOptions{Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].ID != filtered[0].ID {
		t.Fatalf("filtered repeat answered %d, first answer was %d", again[0].ID, filtered[0].ID)
	}
	plainAgain, err := s.Search(context.Background(), vec)
	if err != nil {
		t.Fatal(err)
	}
	if plainAgain[0].ID != 1 {
		t.Fatalf("unfiltered repeat poisoned by filtered cache entry: id %d", plainAgain[0].ID)
	}
	if got := b.plain + b.filtered; got != 3 {
		t.Fatalf("%d backend calls, want 3 (one per distinct identity)", got)
	}
	st := s.Stats()
	if st.CacheHits != 2 {
		t.Fatalf("cache hits %d, want 2", st.CacheHits)
	}
	if st.Filtered != 2 {
		t.Fatalf("filtered request counter %d, want 2", st.Filtered)
	}
}

// TestEquivalentFilterSpellingsShareCache is the flip side: two
// spellings of one predicate canonicalize identically, so the second
// must be a cache hit.
func TestEquivalentFilterSpellingsShareCache(t *testing.T) {
	b := &filterEchoBackend{dim: 4}
	s, err := NewServer(Config{K: 2, CacheSize: 64, MaxBatch: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vec := []float32{1, 2, 3, 4}
	if _, err := s.SearchOpts(context.Background(), vec, SearchOptions{
		Filter: mustParse(t, `tenant = 1 AND lang = "en"`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SearchOpts(context.Background(), vec, SearchOptions{
		Filter: mustParse(t, `lang = "en" AND (tenant = 1)`)}); err != nil {
		t.Fatal(err)
	}
	if b.filtered != 1 {
		t.Fatalf("%d filtered backend calls, want 1 (canonical identity should coalesce)", b.filtered)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", st.CacheHits)
	}
}

// TestMixedBatchSplitsByShape verifies one micro-batch carrying several
// (k, filter) shapes dispatches each shape separately and routes every
// answer to its own caller.
func TestMixedBatchSplitsByShape(t *testing.T) {
	b := &filterEchoBackend{dim: 4, gate: make(chan struct{})}
	// Cache off so every request reaches the backend.
	s, err := NewServer(Config{K: 2, MaxK: 3, MaxBatch: 16}, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := sync.OnceFunc(func() { close(b.gate) })
	defer release() // a failed wait must not leave Close blocked on the gate

	// A first request occupies the worker, so the three shapes queue
	// behind it and its next pull takes them as one batch.
	blocker := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), []float32{9, 9, 9, 9})
		blocker <- err
	}()
	waitStats(t, s, func(st Stats) bool { return st.Accepted == 1 && st.QueueDepth == 0 })

	pred := mustParse(t, `tenant = 9`)
	tracer := obs.NewTracer(obs.TracerConfig{})
	type res struct {
		id  int64
		n   int
		tr  *obs.Trace
		err error
	}
	results := make(chan res, 3)
	run := func(opts SearchOptions) {
		tr := tracer.Start("test")
		cands, err := s.SearchOpts(obs.WithTrace(context.Background(), tr), []float32{1, 2, 3, 4}, opts)
		if err != nil {
			results <- res{err: err}
			return
		}
		results <- res{id: cands[0].ID, n: len(cands), tr: tr}
	}
	go run(SearchOptions{})
	go run(SearchOptions{K: 3})
	go run(SearchOptions{Filter: pred})
	waitStats(t, s, func(st Stats) bool { return st.QueueDepth == 3 })
	release()
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	var plainN, filteredN, bigKN int
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		tracer.Finish(r.tr, nil)
		if size := batchSpanSize(r.tr.Wire().Root); size != "3" {
			t.Errorf("request pulled in a batch of %q, want all three shapes in one batch", size)
		}
		switch {
		case r.id == 1 && r.n == 2:
			plainN++
		case r.id == 1 && r.n == 3:
			bigKN++
		case r.id >= 1000:
			filteredN++
		}
	}
	if plainN != 1 || bigKN != 1 || filteredN != 1 {
		t.Fatalf("mixed batch misrouted: plain=%d bigK=%d filtered=%d", plainN, bigKN, filteredN)
	}
	// One dispatch for the blocker, then one per shape of the shared batch.
	if st := s.Stats(); st.Batches != 4 || b.plain != 3 || b.filtered != 1 {
		t.Fatalf("dispatches %d (plain %d, filtered %d), want 4 (3, 1)", st.Batches, b.plain, b.filtered)
	}
}

// waitStats polls s.Stats until cond holds, failing the test after 5s.
func waitStats(t *testing.T, s *Server, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never reached the awaited state: %+v", s.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// batchSpanSize returns the size attribute of the trace's serve.batch
// span ("" when absent).
func batchSpanSize(root *obs.WireSpan) string {
	for _, c := range root.Children {
		if c.Name == "serve.batch" {
			return c.Attrs["size"]
		}
	}
	return ""
}

func TestFilteredRequestValidation(t *testing.T) {
	// A predicate-blind backend (FuncBackend) rejects filtered requests
	// with ErrFilterUnsupported; oversized k is rejected at admission.
	s, err := NewServer(Config{K: 2}, &FuncBackend{D: 4, Fn: func(q *vecmath.Matrix, k int) ([][]topk.Candidate, error) {
		return make([][]topk.Candidate, q.Rows), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SearchOpts(context.Background(), []float32{0, 0, 0, 0}, SearchOptions{
		Filter: mustParse(t, `tenant = 1`)}); !errors.Is(err, ErrFilterUnsupported) {
		t.Fatalf("filtered request against plain backend: %v, want ErrFilterUnsupported", err)
	}
	if _, err := s.SearchOpts(context.Background(), []float32{0, 0, 0, 0}, SearchOptions{K: 100}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("k beyond MaxK: %v, want ErrBadRequest", err)
	}
}
