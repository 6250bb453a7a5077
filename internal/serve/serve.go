// Package serve is the online query-serving layer: it turns a
// batch-oriented search backend (internal/mutable's UpdatableIndex) into
// a concurrent request/response service the way a production ANNS tier
// would front it.
//
// The paper batches queries to amortize DPU launches (Fig. 16). Here the
// scan runs on the host, so a request never waits for batch-mates; the
// batching that remains is what backlog forms. Four mechanisms cooperate:
//
//   - micro-batching: each worker pulls its own batches from the
//     admission queue. An idle worker takes the first request at once;
//     requests that queue while it is busy are taken together by its
//     next pull, up to MaxBatch.
//
//   - admission control: the queue is bounded (QueueDepth); requests that
//     find it full are shed immediately with ErrOverloaded rather than
//     growing an unbounded backlog. Every request carries a deadline
//     (from its context or DefaultTimeout); requests whose deadline
//     passes while queued are dropped before wasting backend work.
//
//   - result caching: an LRU cache keyed on the quantized query vector
//     exploits the Zipf-skewed query popularity modelled in
//     internal/workload — the same skew the paper measures per cluster in
//     Fig. 4a. Hot queries repeat verbatim in real traffic, and an
//     exact-match hit skips the backend entirely.
//
//   - request coalescing: duplicate queries landing in the same
//     micro-batch are dispatched as one backend row and fanned back out,
//     so skewed traffic costs the backend its distinct queries only —
//     an advantage batch-size-1 dispatch can never realize.
//
// Latency (admission to reply, including queue wait) is recorded in a
// streaming histogram (internal/metrics); Stats exposes p50/p95/p99,
// shed/expired counts and batch occupancy, and is what cmd/upanns-serve
// publishes on its /stats endpoint.
package serve

import (
	"errors"
	"time"

	"repro/internal/obs"
)

// Errors returned by Server.Search.
var (
	// ErrOverloaded reports admission-control shedding: the bounded queue
	// was full when the request arrived.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrClosed reports a request submitted during or after shutdown.
	ErrClosed = errors.New("serve: server closed")
	// ErrDeadline reports a request whose deadline expired before a result
	// was produced (while queued, batched, or waiting on the backend).
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrBadRequest reports a request rejected before admission (k out of
	// range); the HTTP surface maps it — and filter.ErrInvalid — to 400.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrFilterUnsupported reports a filtered request against a backend
	// whose Search rejects a non-nil SearchOpts.Pred; the HTTP surface
	// maps it to 501.
	ErrFilterUnsupported = errors.New("serve: backend does not support filtered search")
)

// Config tunes the serving layer.
type Config struct {
	// K is the number of neighbors returned per query (default 10). It
	// must not exceed the backend's configured K.
	K int
	// MaxK bounds per-request k overrides (SearchOptions.K / the wire
	// request's "k" field); default K, so overrides are off unless the
	// deployment opts in. Raising it past the backend's capability turns
	// oversized requests into backend errors instead of 400s.
	MaxK int

	// MaxBatch caps queries per backend dispatch (default 32). 1 disables
	// micro-batching: every request is dispatched alone.
	MaxBatch int

	// QueueDepth bounds the admission queue (default 1024). Requests
	// arriving when the queue is full are shed with ErrOverloaded; at most
	// QueueDepth requests wait beyond those the workers are running.
	QueueDepth int
	// DefaultTimeout is the per-request deadline applied when the caller's
	// context carries none (default 1s).
	DefaultTimeout time.Duration

	// CacheSize is the LRU result-cache capacity in entries; 0 disables
	// caching.
	CacheSize int
	// CacheQuantum is the grid step used to quantize query vectors into
	// cache keys (default 1e-3): queries within the same grid cell share a
	// cache entry, making the key robust to float jitter while keeping
	// collisions between genuinely different queries negligible.
	CacheQuantum float64

	// Costs, when non-nil, receives one cost entry per completed request:
	// the dispatch's backend cost vector divided across its distinct
	// queries plus the request's own scheduling times. It feeds the
	// /debug/costly heat ring. Nil disables cost accounting on untraced
	// requests (traced requests still carry a cost vector in their trace).
	Costs *obs.CostTracker

	// Quality, when non-nil, head-samples successfully answered queries
	// into the shadow-oracle quality plane: the sampled (vector, k,
	// filter, result) is re-executed asynchronously against the exact
	// oracle and folded into streaming recall estimators. The shadow
	// path never re-enters the server, so sampling cannot inflate the
	// admission, cache, cost, or SLO surfaces.
	Quality *obs.Quality
}

// DefaultConfig returns the serving defaults described on each field.
func DefaultConfig() Config {
	return Config{
		K:              10,
		MaxBatch:       32,
		QueueDepth:     1024,
		DefaultTimeout: time.Second,
		CacheQuantum:   1e-3,
	}
}

// withDefaults fills zero fields with their defaults.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxK <= 0 {
		c.MaxK = c.K
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = d.DefaultTimeout
	}
	if c.CacheQuantum <= 0 {
		c.CacheQuantum = d.CacheQuantum
	}
	return c
}
