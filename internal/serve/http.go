package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/topk"
)

// This file is the shard HTTP surface: the wire types and handler that
// expose a Server (and optionally a WriteBatcher) over HTTP. It is shared
// by cmd/upanns-serve (one shard process) and booted in-process by the
// cluster example and benchmark, and its wire types are what the
// internal/cluster router speaks when it fans queries out to shards.

// SearchRequest is the POST /search body. K and Filter are optional: K
// overrides the served result size (bounded by the server's MaxK), and
// Filter constrains results to vectors whose attribute tags satisfy the
// predicate expression (e.g. `tenant = 42 AND lang IN ("en", "fr")`;
// grammar in internal/filter.Parse). A cluster router passes both
// through to every shard verbatim.
type SearchRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k,omitempty"`
	Filter string    `json:"filter,omitempty"`
	// Tenant is an optional tenant tag; it does not shape execution but
	// slices the quality plane's recall estimates.
	Tenant string `json:"tenant,omitempty"`
}

// SearchResponse is the POST /search reply: parallel id/distance slices,
// ascending distance. Trace is present only when the request carried a
// sampled traceparent header: the shard's span tree for this request, in
// wire form, for the caller (typically the cluster router) to graft into
// its own trace.
type SearchResponse struct {
	IDs       []int64       `json:"ids"`
	Distances []float32     `json:"distances"`
	Trace     *obs.WireSpan `json:"trace,omitempty"`
}

// NewSearchResponse converts result candidates into the wire reply. The
// shard handler and the cluster router share it so the response encoding
// is defined once.
func NewSearchResponse(cands []topk.Candidate) SearchResponse {
	resp := SearchResponse{IDs: make([]int64, len(cands)), Distances: make([]float32, len(cands))}
	for i, c := range cands {
		resp.IDs[i] = c.ID
		resp.Distances[i] = c.Dist
	}
	return resp
}

// ShedDraining writes the drain-mode 503 reply (with Retry-After); scope
// names the draining component in the error text ("server", "router").
func ShedDraining(w http.ResponseWriter, scope string) {
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: scope + " draining"})
}

// WriteRequest is the POST /upsert and POST /delete body (Vector and
// Attrs are ignored for deletes). Attrs tags the upserted vector for
// filtered search — a flat object of int/string values matching the
// deployment's schema ({"tenant": 42, "lang": "en"}); tags replace the
// id's previous tags, and omitting Attrs clears them.
type WriteRequest struct {
	ID     int64        `json:"id"`
	Vector []float32    `json:"vector,omitempty"`
	Attrs  filter.Attrs `json:"attrs,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatsPayload is the GET /stats response shape: the serving counters,
// plus write-batcher and index-epoch counters when the deployment has
// them, tagged with the shard's identity so a cluster router can tell
// shards apart in aggregated views.
type StatsPayload struct {
	ShardID string      `json:"shard_id,omitempty"`
	Serve   Stats       `json:"serve"`
	Writes  *WriteStats `json:"writes,omitempty"`
	Index   any         `json:"index,omitempty"`
	// Process carries process-level health (uptime, goroutines, GC
	// pauses); the router exposes the same shape per shard and for
	// itself, so dashboards read one schema everywhere.
	Process *obs.ProcessStats `json:"process,omitempty"`
	// Trace carries the tracer's sampling counters when tracing is
	// enabled.
	Trace *obs.TracerStats `json:"trace,omitempty"`
	// Filter carries the filtered-search planning counters
	// (pre/post/adaptive decisions, selectivity histogram) when the
	// deployment indexes attributes. It is a typed field — not part of
	// the opaque Index payload — so a cluster router can decode and sum
	// it across shards.
	Filter *filter.StatsSnapshot `json:"filter,omitempty"`
	// Quality carries the shadow-oracle quality plane's snapshot
	// (recall estimate with CI, slices, drift state) when quality
	// sampling is enabled. Typed, like Filter, so a cluster router can
	// decode it per shard for its aggregated view.
	Quality *obs.QualitySnapshot `json:"quality,omitempty"`
}

// HealthPayload is the GET /healthz response body. The status code is the
// contract (200 serving, 503 draining); the body carries the shard
// identity and dimensionality for the cluster router's health prober,
// which validates query vectors against Dim before fanning out.
type HealthPayload struct {
	Status  string `json:"status"`
	ShardID string `json:"shard_id,omitempty"`
	Dim     int    `json:"dim,omitempty"`
}

// HandlerConfig configures the shard HTTP surface.
type HandlerConfig struct {
	// ShardID tags /stats and /healthz so a router (or operator) can tell
	// shards apart. Empty is fine for a standalone single-host server.
	ShardID string
	// Writer enables POST /upsert and /delete; nil serves them as 501.
	Writer *WriteBatcher
	// IndexStats, when non-nil, is called per /stats request to produce
	// the payload's "index" section (e.g. mutable.UpdatableIndex.Stats).
	IndexStats func() any
	// FilterStats, when non-nil, is called per /stats request to produce
	// the payload's "filter" section
	// (e.g. mutable.UpdatableIndex.FilterStats). Returning nil omits it.
	FilterStats func() *filter.StatsSnapshot
	// Tracer enables request tracing: /search requests start (or join,
	// via an incoming traceparent header) a trace, and finished traces
	// land in GET /trace/recent. Nil disables tracing; the endpoints
	// still exist and serve empty payloads.
	Tracer *obs.Tracer
	// SLO, when non-nil, records every /search outcome into the burn-rate
	// tracker served at GET /slo. Client errors (bad request, invalid
	// filter) do not count against the error budget; shed, timed-out and
	// backend-failed requests do.
	SLO *obs.SLOTracker
	// Costs, when non-nil, serves the per-query heat ring at
	// GET /debug/costly. Point it at the same tracker as
	// Config.Costs on the server so the ring actually fills.
	Costs *obs.CostTracker
	// Quality, when non-nil, serves the shadow-oracle quality plane at
	// GET /quality and folds its snapshot into /stats and /metrics.
	// Point it at the same plane as Config.Quality on the server so the
	// estimators actually fill.
	Quality *obs.Quality
	// Metrics, when non-nil, is called per GET /metrics request to append
	// deployment-specific series (e.g. mutable.UpdatableIndex.WriteMetrics)
	// after the process, tracer, kernel and serving families.
	Metrics func(*obs.PromWriter)
}

// Handler is the shard HTTP API over one serving deployment:
//
//	POST /search  SearchRequest        -> SearchResponse
//	POST /upsert  WriteRequest         -> {"id": N}
//	POST /delete  WriteRequest         -> {"id": N}
//	GET  /stats                        -> StatsPayload
//	GET  /healthz                      -> HealthPayload (200 serving, 503 draining)
//	GET  /metrics                      -> Prometheus text exposition
//	GET  /slo                          -> obs.SLOSnapshot (burn rates + alert state)
//	GET  /quality                      -> obs.QualitySnapshot (shadow-oracle recall + drift)
//	GET  /trace/recent                 -> obs.RecentPayload (recent + slow/error traces)
//	GET  /debug/costly                 -> obs.CostlyPayload (per-query heat ring)
//	GET  /debug/bundle                 -> postmortem tar.gz (flight record, traces, metrics, profiles)
//	GET  /debug/pprof/...              -> runtime profiles
//
// Overload maps to 503 + Retry-After, missed deadlines to 504. Create
// with NewHandler; flip StartDraining when shutdown begins so admission
// stops (new requests shed with 503, /healthz turns 503) while in-flight
// requests ride out the drain grace period.
type Handler struct {
	srv      *Server
	cfg      HandlerConfig
	mux      *http.ServeMux
	draining atomic.Bool
}

// NewHandler returns the shard HTTP surface over srv.
func NewHandler(srv *Server, cfg HandlerConfig) *Handler {
	h := &Handler{srv: srv, cfg: cfg, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /search", h.handleSearch)
	h.mux.HandleFunc("POST /upsert", func(w http.ResponseWriter, r *http.Request) { h.handleWrite(true, w, r) })
	h.mux.HandleFunc("POST /delete", func(w http.ResponseWriter, r *http.Request) { h.handleWrite(false, w, r) })
	h.mux.HandleFunc("GET /stats", h.handleStats)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	MountObs(h.mux, ObsConfig{
		Tracer:  cfg.Tracer,
		SLO:     cfg.SLO,
		Costs:   cfg.Costs,
		Quality: cfg.Quality,
		Collect: h.collectMetrics,
		Bundle:  h.bundleSections,
	})
	return h
}

// ObsConfig wires the shared observability surface MountObs mounts. All
// fields except Collect may be nil: the endpoints still exist and serve
// empty ("disabled") payloads, so dashboards and scrapers see one URL
// schema on every process regardless of what the deployment enabled.
type ObsConfig struct {
	// Tracer serves GET /trace/recent and the bundle's traces section.
	Tracer *obs.Tracer
	// SLO serves GET /slo and the bundle's slo.json section.
	SLO *obs.SLOTracker
	// SLOPayload, when non-nil, overrides the /slo (and slo.json) body —
	// the cluster router uses it to serve the fleet rollup instead of its
	// own tracker alone.
	SLOPayload func() any
	// Costs serves GET /debug/costly and the bundle's costly.json section.
	Costs *obs.CostTracker
	// Quality serves GET /quality and the bundle's quality.json section.
	Quality *obs.Quality
	// QualityPayload, when non-nil, overrides the /quality (and
	// quality.json) body — the cluster router uses it to serve the
	// fleet-wide worst-of rollup instead of a single shard's snapshot.
	QualityPayload func() any
	// Collect builds the GET /metrics exposition; it also fills the
	// bundle's metrics.txt section.
	Collect func(*obs.PromWriter)
	// Bundle, when non-nil, appends process-specific postmortem sections
	// (effective config, stats snapshots) to GET /debug/bundle.
	Bundle func() []obs.BundleSection
}

// MountObs wires the shared observability surface — /metrics, /slo,
// /trace/recent, /debug/costly, /debug/bundle and /debug/pprof — onto
// mux. The shard handler and the cluster router both use it so operators
// see the same endpoints on every process.
func MountObs(mux *http.ServeMux, oc ObsConfig) {
	sloPayload := oc.SLOPayload
	if sloPayload == nil {
		sloPayload = func() any { return oc.SLO.Snapshot() }
	}
	qualityPayload := oc.QualityPayload
	if qualityPayload == nil {
		qualityPayload = func() any { return oc.Quality.Snapshot() }
	}
	mux.Handle("GET /metrics", obs.MetricsHandler(oc.Collect))
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, sloPayload())
	})
	mux.HandleFunc("GET /quality", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, qualityPayload())
	})
	mux.Handle("GET /trace/recent", oc.Tracer.Handler())
	mux.Handle("GET /debug/costly", oc.Costs.Handler())
	mux.Handle("GET /debug/bundle", obs.BundleHandler(func() []obs.BundleSection {
		// Every pull snapshots current state: the flight record first
		// (it is why anyone pulls a bundle), then the request-plane views,
		// then the runtime profiles.
		s := []obs.BundleSection{
			obs.JSONSection("flight.json", func() any { return obs.Flight.Events() }),
			obs.JSONSection("traces.json", func() any {
				return obs.RecentPayload{Recent: oc.Tracer.Recent(), Slow: oc.Tracer.Slow()}
			}),
			{Name: "metrics.txt", Fill: func() ([]byte, error) {
				w := obs.NewPromWriter()
				if oc.Collect != nil {
					oc.Collect(w)
				}
				return w.Bytes(), nil
			}},
			obs.JSONSection("slo.json", sloPayload),
			obs.JSONSection("quality.json", qualityPayload),
			obs.JSONSection("costly.json", func() any { return oc.Costs.Payload() }),
			obs.ProfileSection("goroutine.txt", "goroutine"),
			obs.ProfileSection("heap.txt", "heap"),
		}
		if oc.Bundle != nil {
			s = append(s, oc.Bundle()...)
		}
		return s
	}))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// bundleSections are the shard's own postmortem sections: the effective
// serving configuration and a full stats snapshot.
func (h *Handler) bundleSections() []obs.BundleSection {
	return []obs.BundleSection{
		obs.JSONSection("config.json", func() any { return h.srv.Config() }),
		obs.JSONSection("stats.json", func() any { return h.statsPayload() }),
	}
}

// collectMetrics builds the shard's /metrics payload: process health,
// tracer counters, the process-global kernel bandwidth accounting (with
// its archmodel roofline bound), the serving and write counters, and any
// deployment extras.
func (h *Handler) collectMetrics(w *obs.PromWriter) {
	obs.Process().WriteMetrics(w)
	h.cfg.Tracer.WriteMetrics(w)
	obs.Kernel.WriteMetrics(w)
	obs.Tier.WriteMetrics(w)
	h.srv.Stats().WriteMetrics(w)
	if h.cfg.Writer != nil {
		h.cfg.Writer.Stats().WriteMetrics(w)
	}
	h.cfg.SLO.WriteMetrics(w)
	h.cfg.Costs.WriteMetrics(w)
	h.cfg.Quality.WriteMetrics(w)
	obs.Flight.WriteMetrics(w)
	if h.cfg.Metrics != nil {
		h.cfg.Metrics(w)
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// StartDraining flips the handler into drain mode: /search /upsert
// /delete shed new work with 503 and /healthz reports 503, which is the
// readiness signal a cluster router (or load balancer) uses to stop
// sending traffic before the process exits. It does not cancel in-flight
// requests and is idempotent.
func (h *Handler) StartDraining() {
	if !h.draining.Swap(true) {
		obs.Flight.Record("drain", obs.Str("shard", h.cfg.ShardID))
	}
}

// shedIfDraining rejects the request with 503 during drain; it reports
// whether a response was written.
func (h *Handler) shedIfDraining(w http.ResponseWriter) bool {
	if h.draining.Load() {
		ShedDraining(w, "server")
		return true
	}
	return false
}

// MaxBodyBytes bounds request bodies on every serving surface (shard and
// router alike): a few MB covers any legal vector at any supported
// dimensionality, and keeps a single oversized POST from allocating
// unbounded memory ahead of the dimension check.
const MaxBodyBytes = 4 << 20

// DecodeRequest applies the body bound and decodes the JSON request body
// into v, answering 400 itself on failure; it reports whether decoding
// succeeded. The shard handler and the cluster router share it so the
// wire contract (body cap, error shape) is defined once.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad JSON: " + err.Error()})
		return false
	}
	return true
}

func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request) {
	if h.shedIfDraining(w) {
		return
	}
	var req SearchRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	if len(req.Vector) != h.srv.dim {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("vector has %d dims, index has %d", len(req.Vector), h.srv.dim)})
		return
	}
	var opts SearchOptions
	opts.K = req.K
	opts.Tenant = req.Tenant
	if req.Filter != "" {
		pred, err := filter.Parse(req.Filter)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		opts.Filter = pred
	}
	// Start (or join, when the router sent a traceparent) the request
	// trace; the server and backend add spans to it through the context.
	incoming := r.Header.Get(obs.TraceparentHeader)
	tr := h.cfg.Tracer.StartRemote(incoming, "serve.request")
	ctx := obs.WithTrace(r.Context(), tr)
	start := time.Now()
	cands, err := h.srv.SearchOpts(ctx, req.Vector, opts)
	h.cfg.Tracer.Finish(tr, err)
	// Client mistakes (bad k, invalid filter) do not burn the error
	// budget; shed, timed-out and backend-failed requests do.
	clientErr := errors.Is(err, ErrBadRequest) || errors.Is(err, filter.ErrInvalid) ||
		errors.Is(err, ErrFilterUnsupported)
	h.cfg.SLO.Record(err != nil && !clientErr, false, time.Since(start))
	if h.writeServeError(w, err) {
		return
	}
	resp := NewSearchResponse(cands)
	if incoming != "" {
		// Annotate the reply with this shard's span tree so the caller
		// can graft it into the distributed trace.
		resp.Trace = tr.WireRoot()
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleWrite(upsert bool, w http.ResponseWriter, r *http.Request) {
	if h.shedIfDraining(w) {
		return
	}
	if h.cfg.Writer == nil {
		WriteJSON(w, http.StatusNotImplemented, ErrorResponse{
			Error: "writes are only supported in single-host (mutable) mode"})
		return
	}
	var req WriteRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	var err error
	if upsert {
		if len(req.Vector) != h.srv.dim {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: fmt.Sprintf("vector has %d dims, index has %d", len(req.Vector), h.srv.dim)})
			return
		}
		err = h.cfg.Writer.UpsertWithAttrs(r.Context(), req.ID, req.Vector, req.Attrs)
	} else {
		err = h.cfg.Writer.Delete(r.Context(), req.ID)
	}
	if h.writeServeError(w, err) {
		return
	}
	WriteJSON(w, http.StatusOK, map[string]int64{"id": req.ID})
}

func (h *Handler) statsPayload() StatsPayload {
	st := StatsPayload{ShardID: h.cfg.ShardID, Serve: h.srv.Stats()}
	if h.cfg.Writer != nil {
		ws := h.cfg.Writer.Stats()
		st.Writes = &ws
	}
	if h.cfg.IndexStats != nil {
		st.Index = h.cfg.IndexStats()
	}
	if h.cfg.FilterStats != nil {
		st.Filter = h.cfg.FilterStats()
	}
	p := obs.Process()
	st.Process = &p
	if h.cfg.Tracer != nil {
		ts := h.cfg.Tracer.Stats()
		st.Trace = &ts
	}
	if h.cfg.Quality != nil {
		qs := h.cfg.Quality.Snapshot()
		st.Quality = &qs
	}
	return st
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, h.statsPayload())
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, HealthPayload{Status: "draining", ShardID: h.cfg.ShardID, Dim: h.srv.dim})
		return
	}
	WriteJSON(w, http.StatusOK, HealthPayload{Status: "ok", ShardID: h.cfg.ShardID, Dim: h.srv.dim})
}

// writeServeError maps serving-layer errors onto HTTP statuses; it
// reports whether a response was written.
func (h *Handler) writeServeError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrClosed):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		WriteJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "deadline exceeded"})
	case errors.Is(err, ErrBadRequest), errors.Is(err, filter.ErrInvalid):
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrFilterUnsupported):
		WriteJSON(w, http.StatusNotImplemented, ErrorResponse{Error: err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
	return true
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response write
}
