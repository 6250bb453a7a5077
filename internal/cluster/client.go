package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topk"
)

// shardError is a non-2xx shard reply. Status distinguishes client
// mistakes (4xx: do not trip the breaker — the shard is healthy, the
// request was wrong) from shard failures (5xx).
type shardError struct {
	Status int
	Msg    string
}

// Error renders the status and the shard's error text.
func (e *shardError) Error() string {
	return fmt.Sprintf("shard replied %d: %s", e.Status, e.Msg)
}

// isShardFailure reports whether err should count against the shard's
// breaker: transport errors, timeouts, and 5xx replies do; 4xx replies
// (bad request) do not, and neither does 501 — a read-only shard
// rejecting writes is answering exactly as deployed, and counting it
// would knock a healthy shard out of the search fanout.
func isShardFailure(err error) bool {
	if se, ok := err.(*shardError); ok {
		return se.Status >= 500 && se.Status != http.StatusNotImplemented
	}
	return err != nil
}

// isShardStatusError reports whether err carries an actual HTTP reply
// from the shard (as opposed to a transport or context error) — the
// shard answered, so its outcome is attributable even if the caller's
// context has since expired.
func isShardStatusError(err error) bool {
	var se *shardError
	return errors.As(err, &se)
}

// shardCounters is one shard's atomic counter block; see ShardStats.
type shardCounters struct {
	requests  atomic.Uint64 // search attempts (hedges not included)
	errors    atomic.Uint64 // failed searches (after hedging)
	hedges    atomic.Uint64 // hedge requests launched
	hedgeWins atomic.Uint64 // hedges whose reply beat the primary
	writes    atomic.Uint64 // writes routed to this shard
	writeErrs atomic.Uint64 // failed writes
}

// shard is the router's view of one shard process: its client, health
// state, circuit breaker, and latency histogram (which drives the hedge
// delay).
type shard struct {
	index int
	url   string // base URL, no trailing slash
	hc    *http.Client

	healthy atomic.Bool
	br      *breaker
	lat     *metrics.Histogram
	ctr     shardCounters

	mu  sync.Mutex
	id  string // shard id discovered on /healthz
	dim int    // dimensionality discovered on /healthz
}

// available reports whether the shard should receive traffic now: the
// health prober considers it alive and its breaker admits the request.
// A true return from a half-open breaker claims the probe slot, so the
// caller must send the request and report the outcome.
func (s *shard) available(now time.Time) bool {
	return s.healthy.Load() && s.br.Allow(now)
}

// identity returns the discovered (id, dim) pair.
func (s *shard) identity() (string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id, s.dim
}

// postJSON POSTs body to url+path and decodes a 2xx reply into out.
// Non-2xx replies become *shardError carrying the shard's error text. A
// non-empty traceparent propagates the router's trace identity so the
// shard joins the distributed trace and annotates its reply.
func (s *shard) postJSON(ctx context.Context, path string, body, out any, traceparent string) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return &shardError{Status: resp.StatusCode, Msg: readErrorBody(resp.Body)}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readErrorBody extracts the "error" field of a JSON error reply, falling
// back to the raw (truncated) body.
func readErrorBody(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var er serve.ErrorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return er.Error
	}
	return string(raw)
}

// search runs one POST /search against the shard. k and filterExpr pass
// through on the wire verbatim (zero/empty = shard defaults): the shard
// owns predicate canonicalization, planning, and execution, so the
// router adds no filter semantics of its own. The second return is the
// shard's span-tree annotation (nil unless the request carried a
// traceparent and the shard traced it).
func (s *shard) search(ctx context.Context, vec []float32, k int, filterExpr, traceparent string) ([]topk.Candidate, *obs.WireSpan, error) {
	var resp serve.SearchResponse
	if err := s.postJSON(ctx, "/search", serve.SearchRequest{Vector: vec, K: k, Filter: filterExpr}, &resp, traceparent); err != nil {
		return nil, nil, err
	}
	if len(resp.IDs) != len(resp.Distances) {
		return nil, nil, fmt.Errorf("shard %s: malformed response: %d ids vs %d distances",
			s.url, len(resp.IDs), len(resp.Distances))
	}
	cands := make([]topk.Candidate, len(resp.IDs))
	for i := range resp.IDs {
		cands[i] = topk.Candidate{ID: resp.IDs[i], Dist: resp.Distances[i]}
	}
	return cands, resp.Trace, nil
}

// hedgedSearch runs search with tail hedging: if the primary request has
// not answered within hedgeAfter, a duplicate is launched and the first
// successful reply wins (the loser is cancelled). hedgeAfter <= 0
// disables hedging. A primary that fails before the hedge fires returns
// immediately — hedging exists to cut tail latency, not to retry errors.
//
// The winning attempt's OWN service time (not time since the primary
// started) is recorded into the shard's latency histogram. The histogram
// drives the next hedge delay, so recording hedge wins as
// hedge-delay-plus-response would feed the delay back into the quantile
// and ratchet it upward until hedging stops firing.
func (s *shard) hedgedSearch(ctx context.Context, vec []float32, k int, filterExpr string, hedgeAfter time.Duration, traceparent string) ([]topk.Candidate, *obs.WireSpan, error) {
	if hedgeAfter <= 0 {
		t0 := time.Now()
		c, ann, err := s.search(ctx, vec, k, filterExpr, traceparent)
		if err == nil {
			s.lat.Observe(time.Since(t0).Seconds())
		}
		return c, ann, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		cands  []topk.Candidate
		ann    *obs.WireSpan
		dur    time.Duration
		err    error
		hedged bool
	}
	ch := make(chan attempt, 2)
	launch := func(hedged bool) {
		t0 := time.Now()
		c, ann, err := s.search(cctx, vec, k, filterExpr, traceparent)
		ch <- attempt{c, ann, time.Since(t0), err, hedged}
	}
	go launch(false)
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()

	inflight := 1
	for {
		select {
		case a := <-ch:
			if a.err == nil {
				if a.hedged {
					s.ctr.hedgeWins.Add(1)
				}
				s.lat.Observe(a.dur.Seconds())
				return a.cands, a.ann, nil
			}
			inflight--
			if inflight == 0 {
				return nil, nil, a.err
			}
			// One attempt failed while the other is still running; its
			// outcome decides.
		case <-timer.C:
			s.ctr.hedges.Add(1)
			// Throttled: a tail-latency episode becomes one flight entry per
			// second, marking when hedging started firing against the shard.
			obs.Flight.RecordEvery(time.Second, "hedge",
				obs.Int("shard", int64(s.index)), obs.Str("url", s.url))
			inflight++
			go launch(true)
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// hedgeDelay returns the shard's current hedge trigger: its observed
// latency quantile once minSamples responses have warmed the histogram,
// floored at minDelay (hedging at cache-hit microseconds would double
// traffic for nothing). Returns 0 (hedging off) while cold.
func (s *shard) hedgeDelay(quantile float64, minSamples int, minDelay time.Duration) time.Duration {
	if quantile <= 0 || s.lat.Count() < uint64(minSamples) {
		return 0
	}
	d := time.Duration(s.lat.Quantile(quantile) * float64(time.Second))
	if d < minDelay {
		d = minDelay
	}
	return d
}

// write routes one upsert (vec != nil, attrs optional) or delete to the
// shard.
func (s *shard) write(ctx context.Context, upsert bool, id int64, vec []float32, attrs filter.Attrs) error {
	path := "/delete"
	if upsert {
		path = "/upsert"
	}
	return s.postJSON(ctx, path, serve.WriteRequest{ID: id, Vector: vec, Attrs: attrs}, nil, "")
}

// probeHealth GETs /healthz, updates the discovered identity, and
// reports whether the shard is ready for traffic.
func (s *shard) probeHealth(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var hp serve.HealthPayload
	if json.NewDecoder(resp.Body).Decode(&hp) == nil {
		s.mu.Lock()
		if hp.ShardID != "" {
			s.id = hp.ShardID
		}
		if hp.Dim > 0 {
			s.dim = hp.Dim
		}
		s.mu.Unlock()
	}
	return resp.StatusCode == http.StatusOK
}

// fetch GETs path from the shard and decodes its JSON reply into out (a
// *json.RawMessage keeps it verbatim) — the one way the router's fleet
// roll-ups ask a shard for a snapshot.
func (s *shard) fetch(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &shardError{Status: resp.StatusCode, Msg: readErrorBody(resp.Body)}
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
}

// gather fetches path from every healthy shard concurrently, bounding
// the whole collection by timeout, and returns the replies by shard
// index. Snapshots are best-effort: a shard that is unhealthy or does not
// answer in time is nil.
func gather[T any](ctx context.Context, r *Router, timeout time.Duration, path string) []*T {
	out := make([]*T, len(r.shards))
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, s := range r.shards {
		if !s.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := new(T)
			if s.fetch(ctx, path, v) == nil {
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out
}
