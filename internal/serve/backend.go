package serve

import (
	"repro/internal/mutable"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Backend answers one micro-batch of queries. The single Search method is
// the one door for every request shape: opts carries the per-dispatch k,
// the optional attribute predicate, and the optional stage log (see
// mutable.SearchOpts). Backends that cannot answer filtered batches
// reject opts.Pred != nil with ErrFilterUnsupported; backends without
// internal stages simply ignore opts.Stages. internal/mutable's
// UpdatableIndex implements the full surface natively.
//
// Implementations must be safe for calls from a single worker goroutine.
type Backend interface {
	// Search returns opts.K candidates per query row, ascending distance.
	Search(queries *vecmath.Matrix, opts mutable.SearchOpts) ([][]topk.Candidate, error)
	// Dim returns the backend's query dimensionality.
	Dim() int
}

// FuncBackend adapts a plain (queries, k) function: tests exercise
// batching with it, and the serving bench and example put the paper's
// simulated-DPU engine behind it. Filtered batches are unsupported.
type FuncBackend struct {
	D  int
	Fn func(queries *vecmath.Matrix, k int) ([][]topk.Candidate, error)
}

// Dim returns the configured dimensionality.
func (b *FuncBackend) Dim() int { return b.D }

// Search invokes the wrapped function with opts.K.
func (b *FuncBackend) Search(queries *vecmath.Matrix, opts mutable.SearchOpts) ([][]topk.Candidate, error) {
	if opts.Pred != nil {
		return nil, ErrFilterUnsupported
	}
	return b.Fn(queries, opts.K)
}
